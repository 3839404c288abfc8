"""Finite-volume Gibbs states and thermal correlation functions.

All Boltzmann weights are computed from shifted energies Etil = E - E_min,
so every exponent that appears is <= 0 inside the analyticity strip and the
partition sum never overflows.  The analytic continuation

    F(z) = phi(A tau_z(B)),   z = t + i s,  0 <= s <= beta,

is evaluated directly in the energy eigenbasis; the conjugate function
G(t) = phi(tau_t(B) A) lives on the strip -beta <= s <= 0, and the KMS
boundary condition F(t + i beta) = G(t) ties the two together.  G is F of
the swapped pair at the mirrored point, G_{A,B}(z) = F_{B,A}(-z), so one
evaluator serves both.  It tolerates a bounded excursion outside the native
strip (needed by the contour pipeline) and refuses to produce overflowed
garbage.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .operators import EmbeddedOperator, LocalOperator, _as_matrix
from .quadrature import gauss_legendre
from .spectral import SpectralDecomposition, eig_hermitian

_EXP_CAP = 700.0          # np.exp overflows just past 709
_STRIP_TOL = 1e-9
_QUAD_START = 64
_QUAD_MAX = 512
_QUAD_TOL = 1e-10
_PAIR_TILE = 64           # side of the tiles A * B^T is reduced over
_KERNEL_BLOCK = 1 << 18   # entries per row block of the Duhamel kernel

OperatorLike = Union[EmbeddedOperator, LocalOperator, np.ndarray]


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

    def expectation(self, op: OperatorLike, basis: str = "site") -> complex:
        return complex(_gibbs_mean(self.weights, _energy_matrix(self, op, basis)))

    def _duhamel_weights(self) -> np.ndarray:
        """K_mn / Z, the weights of the closed-form canonical correlator."""
        if self._kernel is None:
            kern = _duhamel_kernel(self.beta, self.energies)
            kern /= np.exp(self.log_partition)
            object.__setattr__(self, "_kernel", kern)
        return self._kernel


def _energy_matrix(state: ThermalState, op: OperatorLike,
                   basis: str) -> np.ndarray:
    """op as an eigenbasis matrix; basis="energy" says it already is one,
    and a real one stays real."""
    if basis != "energy":
        return state.to_eigenbasis(op)
    m = np.asarray(getattr(op, "matrix", op))
    return m.astype(np.result_type(m, float), copy=False)


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
    if beta < 0:
        raise ValueError("beta must be nonnegative")
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

    Holds A and B in the energy eigenbasis so repeated evaluations on time
    grids cost one matrix product each.
    """

    def __init__(self, state: ThermalState, a_energy: np.ndarray,
                 b_energy: np.ndarray):
        self.state = state
        self.a_energy = a_energy
        self.b_energy = b_energy

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
        ts = np.asarray(ts, dtype=float)
        x, y = self.a_energy, self.b_energy
        if conjugate:
            x, y, ts, s = y, x, -ts, -s
        if s < 0 and -s * st.energies[-1] > _EXP_CAP:
            raise FloatingPointError(
                f"continuation of {'G above' if conjugate else 'F below'}"
                " the real axis would overflow")
        row = np.exp(-(beta - s) * st.energies - st.log_partition)
        col = np.exp(-s * st.energies)
        m = (row[:, None] * col[None, :]) * x * y.T
        u = np.exp(1j * np.outer(st.energies, ts))
        mu = m @ u
        # conj(u) * mu in place, operand order kept: the products are
        # bit-identical to the out-of-place form
        np.multiply(np.conjugate(u, out=u), mu, out=mu)
        return np.sum(mu, axis=0)

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


def kms_function(state: ThermalState, a: OperatorLike, b: OperatorLike,
                 basis: str = "site") -> KMSFunction:
    return KMSFunction(state, _energy_matrix(state, a, basis),
                       _energy_matrix(state, b, basis))


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------

def ordinary_correlator(state: ThermalState, a: OperatorLike, b: OperatorLike,
                        basis: str = "site") -> complex:
    """Truncated correlation phi(AB) - phi(A) phi(B)."""
    am, bm = _energy_matrix(state, a, basis), _energy_matrix(state, b, basis)
    p = state.weights
    return _paired_sum(p, am, bm) - complex(_gibbs_mean(p, am) * _gibbs_mean(p, bm))


def _duhamel_kernel(beta: float, energies: np.ndarray) -> np.ndarray:
    """Averaged Boltzmann kernel (1/beta) int_0^beta db exp(-(beta-b)Em - b En).

    Written per matrix element as exp(-beta Em) expm1(x)/x with
    x = beta (Em - En), switching to the difference quotient
    (exp(-beta En) - exp(-beta Em))/x for |x| >= 1 and to the exact
    degenerate limit exp(-beta Em) when Em and En coincide numerically.
    Built in row blocks, so its temporaries stay small beside the result.
    """
    e = energies
    wm = np.exp(-beta * e)
    delta_deg = 1e-10 * max(float(e[-1]), 1.0)
    kern = np.empty((e.size, e.size))
    rows = max(1, _KERNEL_BLOCK // e.size)
    for i in range(0, e.size, rows):
        de = e[i:i + rows, None] - e[None, :]
        x = beta * de
        wr = wm[i:i + rows, None]
        # small |x|: exp(-beta Em) * expm1(x)/x, with the x -> 0 limit
        # equal to 1; expm1 sees 0 in place of the large |x| it would
        # overflow on
        near = np.abs(x) < 1.0
        ratio = np.ones_like(x)
        np.divide(np.expm1(np.where(near, x, 0.0)), x, out=ratio,
                  where=(x != 0.0))
        # large |x|: difference quotient, safe because |x| >= 1 there
        with np.errstate(divide="ignore", invalid="ignore"):
            large = (wm[None, :] - wr) / x
        blk = np.where(near, wr * ratio, large)
        kern[i:i + rows] = np.where(np.abs(de) < delta_deg, wr, blk)
    return kern


def canonical_correlator(state: ThermalState, a: OperatorLike, b: OperatorLike,
                         method: str = "closed_form",
                         basis: str = "site") -> complex:
    """Duhamel (canonical) correlator

        (1/beta) int_0^beta db  phi(A tau_{ib}(B))  -  phi(A) phi(B).

    method="closed_form" integrates each eigenbasis matrix element exactly;
    method="quadrature" uses Gauss-Legendre on [0, beta] with the node count
    doubled from 64 until two refinements agree to 1e-10 (or 512 nodes).
    The two routes are kept deliberately independent.
    """
    am, bm = _energy_matrix(state, a, basis), _energy_matrix(state, b, basis)
    p = state.weights
    disconnected = complex(_gibbs_mean(p, am) * _gibbs_mean(p, bm))

    if method == "closed_form":
        return _paired_sum(state._duhamel_weights(), am, bm) - disconnected

    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    beta = state.beta
    if beta == 0.0:
        # the b-average collapses to phi(AB) with the uniform trace state
        return complex(np.einsum("m,mn,nm->", p, am, bm)) - disconnected

    mcore = (am * bm.T) / np.exp(state.log_partition)
    etil = state.energies

    def average(n: int) -> complex:
        x, w = gauss_legendre(n)
        bs = 0.5 * beta * (x + 1.0)
        wt = 0.5 * beta * w
        left = np.exp(-np.outer(etil, beta - bs))
        right = np.exp(-np.outer(etil, bs))
        vals = np.sum(left * (mcore @ right), axis=0)
        return complex(np.sum(wt * vals)) / beta

    nodes = _QUAD_START
    value = average(nodes)
    while nodes < _QUAD_MAX:
        nodes *= 2
        refined = average(nodes)
        done = abs(refined - value) < _QUAD_TOL
        value = refined
        if done:
            break
    return value - disconnected
