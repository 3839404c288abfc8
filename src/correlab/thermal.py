"""Finite-volume Gibbs states and thermal correlation functions.

All Boltzmann weights are computed from shifted energies Etil = E - E_min,
so every exponent that appears is <= 0 inside the analyticity strip and the
partition sum never overflows.  The analytic continuation

    F(z) = phi(A tau_z(B)),   z = t + i s,  0 <= s <= beta,

is evaluated in the energy eigenbasis through the pair product
P = A * B^T, built once per pair (real when it is): with u = e^{iEt},

    F(t + is) = sum_m row_m conj(u_m) (P (col * u))_m,
    row = e^{-(beta - s)E} / Z,   col = e^{-sE},

taken over column blocks of the time grid, so no D x D array is formed
per evaluation.  The conjugate function G(t) = phi(tau_t(B) A) lives on
the strip -beta <= s <= 0, and the KMS boundary condition
F(t + i beta) = G(t) ties the two together.  G is F of the swapped pair
at the mirrored point, G_{A,B}(z) = F_{B,A}(-z), and the swapped pair's
product is P^T, so one evaluator serves both.  It tolerates a bounded
excursion outside the native strip (needed by the contour pipeline) and
refuses to produce overflowed garbage.  The ordinary and canonical
correlators read the pair a KMSFunction holds: F(0) and the beta-average
of F(ib), each less phi(A) phi(B).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .operators import EmbeddedOperator, LocalOperator, _as_matrix
from .quadrature import _refine_by_doubling, gauss_legendre
from .spectral import SpectralDecomposition, _matmul, _on_window, eig_hermitian

_EXP_CAP = 700.0          # np.exp overflows just past 709
_STRIP_TOL = 1e-9
_QUAD_START = 64
_QUAD_MAX = 512
_QUAD_TOL = 1e-10
_PAIR_TILE = 64           # side of the tiles A * B^T is reduced over
_KERNEL_BLOCK = 1 << 18   # entries per row block of the Duhamel kernel
_PHASE_BLOCK = 1 << 16    # entries per column block of the KMS phase table

OperatorLike = Union[EmbeddedOperator, LocalOperator, np.ndarray]


class _UnconvergedQuadrature(RuntimeWarning):
    """The quadrature route of canonical_correlator reached _QUAD_MAX nodes
    without two refinements agreeing within _QUAD_TOL of the value (or
    the round-off floor of the sum, if that is larger)."""


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermalState:
    """Canonical Gibbs state at inverse temperature beta.

    energies are shifted so energies[0] == 0; weights are the Gibbs
    probabilities; log_partition is log sum_n exp(-beta * energies[n])
    for the shifted spectrum.  The Duhamel kernel divided by the partition
    sum is built on first use and kept.
    """

    beta: float
    decomposition: SpectralDecomposition
    energies: np.ndarray
    weights: np.ndarray
    log_partition: float
    _kernel: Optional[np.ndarray] = field(default=None, init=False,
                                          repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def to_eigenbasis(self, op: OperatorLike) -> np.ndarray:
        return self.decomposition.transform(_as_matrix(op))

    def expectation(self, op: OperatorLike) -> complex:
        return complex(_gibbs_mean(self.weights, self.to_eigenbasis(op)))

    def _duhamel_weights(self) -> np.ndarray:
        """K_mn / Z, the weights of the closed-form canonical correlator."""
        if self._kernel is None:
            kern = self._duhamel_block(self.energies, self.energies)
            object.__setattr__(self, "_kernel", kern)
        return self._kernel

    def _duhamel_block(self, e_row: np.ndarray,
                       e_col: np.ndarray) -> np.ndarray:
        """K_mn / Z between two sets of shifted energies, such as the two
        sectors of one block; not kept."""
        kern = _duhamel_kernel(self.beta, e_row, e_col)
        kern /= np.exp(self.log_partition)
        return kern


def _gibbs_mean(weights: np.ndarray, m: np.ndarray):
    """sum_m p_m M_mm, the Gibbs expectation of an eigenbasis matrix."""
    return np.sum(weights * np.diag(m))


def _paired_sum(weights: np.ndarray, am: np.ndarray, bm: np.ndarray) -> complex:
    """sum_mn W_mn A_mn B_nm, with W_mn = p_m when weights is a vector.

    Reduced over square tiles of A * B^T, so no D x D pairing is allocated,
    the transposed read of B stays in cache, and real operands stay in real
    arithmetic.
    """
    dim = am.shape[0]
    w = weights if weights.ndim == 2 else np.broadcast_to(weights[:, None], am.shape)
    total = 0.0
    for i in range(0, dim, _PAIR_TILE):
        rows = slice(i, i + _PAIR_TILE)
        for j in range(0, dim, _PAIR_TILE):
            cols = slice(j, j + _PAIR_TILE)
            tile = am[rows, cols] * bm[cols, rows].T
            tile *= w[rows, cols]
            total += tile.sum()
    return complex(total)


def gibbs_state(hamiltonian, beta: float) -> ThermalState:
    """Diagonalize (if needed) and build the Gibbs state exp(-beta H)/Z."""
    if not 0.0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and nonnegative, not {beta!r}")
    if isinstance(hamiltonian, SpectralDecomposition):
        dec = hamiltonian
    else:
        dec = eig_hermitian(hamiltonian)
    etil = dec.eigenvalues - dec.eigenvalues[0]
    boltz = np.exp(-beta * etil)
    z = float(boltz.sum())
    return ThermalState(float(beta), dec, etil, boltz / z, float(np.log(z)))


# ---------------------------------------------------------------------------
# The KMS function F(z) = phi(A tau_z(B)) and its conjugate
# ---------------------------------------------------------------------------

class KMSFunction:
    """Two-sided thermal correlation function of a fixed operator pair.

    Holds A and B in the energy eigenbasis.  The constructor takes the pair
    in that basis as D x D matrices (a real pair stays real, integers become
    float); kms_function takes it in the site basis.  The constructor
    builds the pair product P = A * B^T, stored real when its imaginary
    part is exactly zero (a real pair, or Y/Y on a real Hamiltonian), so
    threads may share it.  F reads P and G reads P^T: a grid costs one
    GEMM per column block of the phase table (a real GEMM when P is real)
    and a point one mat-vec.
    """

    def __init__(self, state: ThermalState, a_energy: OperatorLike,
                 b_energy: OperatorLike):
        self.state = state
        self.a_energy = _on_window(_as_matrix(a_energy), state.dim)
        self.b_energy = _on_window(_as_matrix(b_energy), state.dim)
        pair = self.a_energy * self.b_energy.T
        if np.iscomplexobj(pair) and not pair.imag.any():
            pair = np.ascontiguousarray(pair.real)
        self.pair_product = pair

    @property
    def phi_a(self) -> complex:
        return complex(_gibbs_mean(self.state.weights, self.a_energy))

    @property
    def phi_b(self) -> complex:
        return complex(_gibbs_mean(self.state.weights, self.b_energy))

    def _kms(self, ts, s: float, conjugate: bool) -> np.ndarray:
        """F(t + is) on the grid ts, or G(t + is) when conjugate is set.

        Both are sum_mn p_m e^{-izE_m} X_mn e^{izE_n} Y_nm: F for
        (X, Y) = (A, B) at z, G for (B, A) at -z.  Below the real axis
        (after the swap) e^{-sE_n} grows; past the overflow cap the call
        fails rather than return inf.
        """
        st = self.state
        beta = st.beta
        if not -beta - _STRIP_TOL * (1 + beta) <= s <= beta + _STRIP_TOL * (1 + beta):
            raise ValueError(
                f"imaginary part {s:.6g} outside the strip [-beta, beta]")
        ts = np.asarray(ts, dtype=float).ravel()
        pair = self.pair_product
        if conjugate:
            pair, ts, s = pair.T, -ts, -s
        if s < 0 and -s * st.energies[-1] > _EXP_CAP:
            raise FloatingPointError(
                f"continuation of {'G above' if conjugate else 'F below'}"
                " the real axis would overflow")
        row = np.exp(-(beta - s) * st.energies - st.log_partition)[:, None]
        col = np.exp(-s * st.energies)[:, None]
        out = np.empty(ts.size, dtype=complex)
        width = max(1, _PHASE_BLOCK // st.dim)
        for j in range(0, ts.size, width):
            phase = np.multiply.outer(st.energies, ts[j:j + width])
            cos = np.cos(phase)
            sin = np.sin(phase, out=phase)
            # col * u, then row * conj(u) in the same buffer
            u = np.empty(phase.shape, dtype=complex)
            np.multiply(col, cos, out=u.real)
            np.multiply(col, sin, out=u.imag)
            mu = _matmul(pair, u)
            np.multiply(row, cos, out=u.real)
            np.multiply(-row, sin, out=u.imag)
            mu *= u
            out[j:j + width] = mu.sum(axis=0)
        return out

    def eval(self, z: complex) -> complex:
        """F(z) = phi(A tau_z(B)) for z in the closed strip 0 <= Im z <= beta.

        Im z < 0 is accepted as analytic continuation while the exponents
        stay below the overflow cap.
        """
        z = complex(z)
        return complex(self._kms(z.real, z.imag, conjugate=False)[0])

    def conjugate_eval(self, z: complex) -> complex:
        """G(z) = phi(tau_z(B) A) for -beta <= Im z <= 0 (continuation above
        the axis subject to the same overflow cap)."""
        z = complex(z)
        return complex(self._kms(z.real, z.imag, conjugate=True)[0])

    def eval_grid(self, ts: np.ndarray, imag: float = 0.0) -> np.ndarray:
        return self._kms(ts, imag, conjugate=False)

    def conjugate_eval_grid(self, ts: np.ndarray, imag: float = 0.0) -> np.ndarray:
        return self._kms(ts, imag, conjugate=True)

    def boundary_gap(self, ts: np.ndarray) -> np.ndarray:
        """F(t + i beta) - G(t) on a real grid; zero is the KMS condition."""
        return (self.eval_grid(ts, imag=self.state.beta)
                - self.conjugate_eval_grid(ts, imag=0.0))


def kms_function(state: ThermalState, a: OperatorLike,
                 b: OperatorLike) -> KMSFunction:
    """F(z) = phi(A tau_z(B)) for the site-basis pair (A, B)."""
    return KMSFunction(state, state.to_eigenbasis(a), state.to_eigenbasis(b))


# ---------------------------------------------------------------------------
# Correlators of the pair a KMS function holds
# ---------------------------------------------------------------------------

def ordinary_correlator(fn: KMSFunction) -> complex:
    """Truncated correlation phi(AB) - phi(A) phi(B) = F(0) - phi(A) phi(B)."""
    return (_paired_sum(fn.state.weights, fn.a_energy, fn.b_energy)
            - fn.phi_a * fn.phi_b)


def _duhamel_kernel(beta: float, e_row: np.ndarray,
                    e_col: np.ndarray) -> np.ndarray:
    """Averaged Boltzmann kernel (1/beta) int_0^beta db exp(-(beta-b)Em - b En)
    for Em in e_row and En in e_col; the full kernel passes the spectrum
    twice.

    With x = beta |Em - En| >= 0 it is exp(-beta min(Em, En)) (1 - e^{-x})/x
    exactly, written as -expm1(-x)/x with its limit 1 at x = 0.  On the
    shifted energies both factors are at most 1, so nothing overflows.
    Built in row blocks, so its temporaries stay small beside the result.
    """
    w_row, w_col = np.exp(-beta * e_row), np.exp(-beta * e_col)
    kern = np.empty((e_row.size, e_col.size))
    rows = max(1, _KERNEL_BLOCK // e_col.size)
    for i in range(0, e_row.size, rows):
        x = np.abs(e_row[i:i + rows, None] - e_col[None, :])
        x *= beta
        ratio = np.ones_like(x)
        np.divide(-np.expm1(-x), x, out=ratio, where=x > 0.0)
        # exp(-beta min(Em, En)) is the larger of the two Boltzmann factors
        np.multiply(np.maximum(w_row[i:i + rows, None], w_col[None, :]),
                    ratio, out=kern[i:i + rows])
    return kern


def canonical_correlator(fn: KMSFunction, method: str = "closed_form") -> complex:
    """Duhamel (canonical) correlator, the beta-average of F on the
    imaginary axis,

        (1/beta) int_0^beta db  phi(A tau_{ib}(B))  -  phi(A) phi(B).

    method="closed_form" integrates each eigenbasis matrix element exactly;
    method="quadrature" uses Gauss-Legendre on [0, beta]: with nodes
    b_k = beta (x_k + 1)/2 the average is half the weighted sum of F(ib_k),
    with no division by beta, so beta = 0 needs no special case.  The node
    count is doubled from 64 until two refinements agree within 1e-10 of
    the value, or within the round-off floor eps D max|P| of the sum if
    that is larger; if 512 nodes are reached first, the last value is
    returned with a RuntimeWarning that gives the last refinement's change.
    The quadrature reads the pair product P = A * B^T of the KMS function
    as left^T P, one real GEMM whether P is real or complex (a complex P
    is read through its interleaved real view, with no copy); the closed
    form pairs A and B itself, so the two routes stay independent.
    """
    state = fn.state
    disconnected = fn.phi_a * fn.phi_b

    if method == "closed_form":
        return (_paired_sum(state._duhamel_weights(), fn.a_energy, fn.b_energy)
                - disconnected)

    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    beta, etil, pair = state.beta, state.energies, fn.pair_product

    def average(n: int) -> complex:
        x, w = gauss_legendre(n)
        bs = 0.5 * beta * (x + 1.0)
        # node-major factors: sum over m of left^T (P right) is the row sum
        # of (left^T P) * right^T, one real GEMM for a real or complex P
        left_t = np.exp(-np.outer(beta - bs, etil) - state.log_partition)
        right_t = np.exp(-np.outer(bs, etil))
        vals = np.sum(_matmul(left_t, pair) * right_t, axis=1)
        return complex(0.5 * np.sum(w * vals))

    # below eps D max|P| two refinements differ by round-off alone
    floor = np.finfo(float).eps * state.dim * float(np.abs(pair).max())
    value, nodes, converged, delta = _refine_by_doubling(
        average, _QUAD_START, _QUAD_MAX, floor, rtol=_QUAD_TOL)
    if not converged:
        warnings.warn(f"canonical quadrature: no two refinements agreed "
                      f"within {_QUAD_TOL:g} of the value by {nodes} nodes; "
                      f"the last one moved it by {delta:.3g}",
                      _UnconvergedQuadrature, stacklevel=2)
    return value - disconnected
