"""Finite-volume Gibbs states and thermal correlation functions.

All Boltzmann weights are computed from shifted energies Etil = E - E_min,
so every exponent that appears is <= 0 inside the analyticity strip and the
partition sum never overflows.  The analytic continuation

    F(z) = phi(A tau_z(B)),   z = t + i s,  0 <= s <= beta,

is evaluated in the energy eigenbasis over the pair's blocks, read once by
spectral._read_pair, each distinct |t| of a grid once (KMSFunction._kms).
The conjugate function G(t) = phi(tau_t(B) A) lives on the strip
-beta <= s <= 0, and the KMS boundary condition F(t + i beta) = G(t) ties
the two together.  G is F of the swapped pair at the mirrored point,
G_{A,B}(z) = F_{B,A}(-z), so one evaluator serves both.  It tolerates a
bounded excursion outside the native strip (needed by the contour
pipeline) and refuses to produce overflowed garbage.  The ordinary and
canonical correlators read the pair a KMSFunction holds: F(0) and the
beta-average of F(ib), each less phi(A) phi(B).
"""
from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .operators import EmbeddedOperator, LocalOperator, _as_matrix, \
    _on_window
from .quadrature import _refine_by_doubling, gauss_legendre
from .spectral import (SpectralDecomposition, _matmul, _read_pair,
                       _sector_columns, eig_hermitian)

_EXP_CAP = 700.0          # np.exp overflows just past 709
_STRIP_TOL = 1e-9
_QUAD_START = 64
_QUAD_MAX = 512
_QUAD_TOL = 1e-10
_KERNEL_BLOCK = 1 << 14   # entries per row block of the Duhamel kernel
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
    for the shifted spectrum.
    """

    beta: float
    decomposition: SpectralDecomposition
    energies: np.ndarray
    weights: np.ndarray
    log_partition: float

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def _kernel_blocks(self, levels: list, blocks: list) -> dict:
        """{(l, r): K(E_l, E_r) / Z} for each block (l, r, ...), levels[l]
        the shifted energies of sector l.  The kernel is symmetric in its
        two energies, so K(E_r, E_l) is the view K(E_l, E_r)^T, to the last
        bit: each unordered pair of sectors builds one block.  Readers pop
        their blocks, so none outlives its last read."""
        kernels: dict = {}
        for l, r, *_ in blocks:
            if (r, l) in kernels:
                kernels[l, r] = kernels[r, l].T
            else:
                kern = _duhamel_kernel(self.beta, levels[l], levels[r])
                kern /= np.exp(self.log_partition)
                kernels[l, r] = kern
        return kernels


def _gibbs_mean(weights: np.ndarray, m: np.ndarray):
    """sum_m p_m M_mm, the Gibbs expectation of an eigenbasis matrix."""
    return np.sum(weights * np.diag(m))


def _paired_sum(weights: np.ndarray, am: np.ndarray, bm: np.ndarray) -> complex:
    """sum_mn W_mn A_mn B_nm, with W_mn = p_m when weights is a vector; A
    and W are m x n and B is n x m, a block and its partner block.

    One einsum: it allocates nothing, and real operands stay in real
    arithmetic.  Its read of B runs across B's rows, which costs about
    twice a tiled reduction's time at the 2048-sized blocks of the
    dimension cap, and less at the sizes the workloads run.
    """
    pattern = "mn,mn,nm->" if weights.ndim == 2 else "m,mn,nm->"
    return complex(np.einsum(pattern, weights, am, bm))


def gibbs_state(hamiltonian, beta: float) -> ThermalState:
    """Diagonalize (if needed) and build the Gibbs state exp(-beta H)/Z.

    hamiltonian is a SpectralDecomposition, or anything eig_hermitian
    solves: a matrix, or an Interaction, whose H it assembles itself."""
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

    Holds the pair in its block form (spectral._read_pair): A_lr, B_rl
    and P_lr of each block pair in the energy basis, the levels read by
    sector (spectral._sector_columns).  kms_function reads a site-basis
    pair; the constructor takes an energy-basis pair of D x D matrices (a
    real pair stays real, integers become float) as one block.  P is held
    as its real parts (_pair_parts): every product with it is a real GEMM
    per part.
    """

    def __init__(self, state: ThermalState, a_energy: OperatorLike,
                 b_energy: OperatorLike):
        a = _on_window(_as_matrix(a_energy), state.dim)
        b = _on_window(_as_matrix(b_energy), state.dim)
        self._hold(state, 0, [(0, 0, a, b)],
                   ([(0, np.diagonal(a))], [(0, np.diagonal(b))]))

    def _hold(self, state: ThermalState, parity: int, pairs: list,
              diagonals: tuple) -> None:
        """Keep the pair's blocks and diagonals (spectral._read_pair), read
        on state's decomposition in the columns of parity, and form each
        block's pair product."""
        self.state = state
        self._parity = parity
        self._diagonals = diagonals
        self._blocks = [(l, r, a, b, _pair_parts(a, b)) for l, r, a, b in pairs]

    def _at(self, state: ThermalState) -> "KMSFunction":
        """The same pair in another Gibbs state of the same decomposition:
        the blocks do not depend on beta and are shared, not copied."""
        if state.decomposition is not self.state.decomposition:
            raise ValueError("state is not on the pair's decomposition")
        fn = copy.copy(self)
        fn.state = state
        return fn

    def _columns(self, values: np.ndarray) -> list:
        """values, one per level, as the blocks read them: one array per
        sector, or the whole array for a pair read whole."""
        return [x for x, in _sector_columns(self.state.decomposition,
                                            self._parity, values)]

    def _mean(self, diagonals: list) -> complex:
        """phi of the operator with these diagonals, [(l, d)]."""
        weights = self._columns(self.state.weights)
        return complex(sum(np.sum(weights[l] * d) for l, d in diagonals))

    @property
    def phi_a(self) -> complex:
        return self._mean(self._diagonals[0])

    @property
    def phi_b(self) -> complex:
        return self._mean(self._diagonals[1])

    def _kms(self, ts, s: float, conjugate: bool) -> np.ndarray:
        """F(t + is) on the grid ts, or G(t + is) when conjugate is set.

        Both are sums over the blocks of sum_mn x_m e^{-itE_m} P_mn
        y_n e^{itE_n}: F reads P_lr with x = row = e^{-(beta - s)E_l}/Z
        and y = col = e^{-sE_r}, and G, F of the swapped pair at -z, reads
        the swapped pair's blocks P_lr^T the same way.  Each distinct |t|
        is evaluated once: with c = cos(E|t|), sn = sin(E|t|),
        X = P (col * c), Y = P (col * sn), C = sum row (c X + sn Y) and
        S = sum row (sn X - c Y) give F(+-|t|) = C -+ iS, for real and
        complex P alike.  The grid is taken over column blocks of the phase
        table, so no D x D array is formed.  Below the real axis (after the
        swap) e^{-sE_n} grows; past the overflow cap the call fails rather
        than return inf.
        """
        st = self.state
        beta = st.beta
        if not -beta - _STRIP_TOL * (1 + beta) <= s <= beta + _STRIP_TOL * (1 + beta):
            raise ValueError(
                f"imaginary part {s:.6g} outside the strip [-beta, beta]")
        ts = np.asarray(ts, dtype=float).ravel()
        sign = np.sign(ts)
        if conjugate:
            sign, s = -sign, -s
        if s < 0 and -s * st.energies[-1] > _EXP_CAP:
            raise FloatingPointError(
                f"continuation of {'G above' if conjugate else 'F below'}"
                " the real axis would overflow")
        levels = self._columns(st.energies)
        row = [np.exp(-(beta - s) * e - st.log_partition)[:, None] for e in levels]
        col = [np.exp(-s * e)[:, None] for e in levels]
        mirrored, where = np.unique(np.abs(ts), return_inverse=True)
        c_sum = np.zeros(mirrored.size, dtype=complex)
        s_sum = np.zeros(mirrored.size, dtype=complex)
        width = max(1, _PHASE_BLOCK // st.dim)
        for j in range(0, mirrored.size, width):
            phases = [np.multiply.outer(e, mirrored[j:j + width]) for e in levels]
            cos = [np.cos(p) for p in phases]
            sin = [np.sin(p, out=p) for p in phases]
            n = phases[0].shape[1]
            for l, r, _, _, pair in self._blocks:
                if conjugate:
                    l, r, pair = r, l, pair.transpose(0, 2, 1)
                u = np.empty((len(col[r]), 2 * n))
                np.multiply(col[r], cos[r], out=u[:, :n])
                np.multiply(col[r], sin[r], out=u[:, n:])
                xy = _joined(_matmul(pair, u))
                x, y = xy[:, :n], xy[:, n:]
                rc, rs = row[l] * cos[l], row[l] * sin[l]
                c_sum[j:j + n] += _column_dot(rc, x) + _column_dot(rs, y)
                s_sum[j:j + n] += _column_dot(rs, x) - _column_dot(rc, y)
        return c_sum[where] - 1j * sign * s_sum[where]

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


def _pair_parts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair product P = a * b^T of a block and its partner block, as
    the stack of its real parts: (P,) when its imaginary part is exactly
    zero (a real pair, or Y/Y on a real Hamiltonian), (Re P, Im P)
    otherwise."""
    pair = a * b.T
    if np.iscomplexobj(pair) and pair.imag.any():
        return np.stack((pair.real, pair.imag))
    return np.ascontiguousarray(pair.real)[None]


def _column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m a_mj b_mj for each column j, with no temporary of a's size."""
    return np.einsum("mj,mj->j", a, b)


def _joined(parts: np.ndarray) -> np.ndarray:
    """A product with the parts of P (_pair_parts) joined into one array:
    the first part alone for a real P, part 0 + i part 1 otherwise."""
    if len(parts) == 1:
        return parts[0]
    out = np.empty(parts.shape[1:], dtype=complex)
    out.real, out.imag = parts
    return out


def kms_function(state: ThermalState, a: OperatorLike,
                 b: OperatorLike) -> KMSFunction:
    """F(z) = phi(A tau_z(B)) for the site-basis pair (A, B), read once in
    its blocks (spectral._read_pair)."""
    fn = KMSFunction.__new__(KMSFunction)
    fn._hold(state, *_read_pair(state.decomposition, *(
        _on_window(_as_matrix(m), state.dim) for m in (a, b))))
    return fn


# ---------------------------------------------------------------------------
# Correlators of the pair a KMS function holds
# ---------------------------------------------------------------------------

def ordinary_correlator(fn: KMSFunction) -> complex:
    """Truncated correlation phi(AB) - phi(A) phi(B) = F(0) - phi(A) phi(B),
    paired block by block from A_lr and B_rl."""
    weights = fn._columns(fn.state.weights)
    return (sum(_paired_sum(weights[l], a, b) for l, _, a, b, _ in fn._blocks)
            - fn.phi_a * fn.phi_b)


def _duhamel_kernel(beta: float, e_row: np.ndarray,
                    e_col: np.ndarray) -> np.ndarray:
    """Averaged Boltzmann kernel (1/beta) int_0^beta db exp(-(beta-b)Em - b En)
    for Em in e_row and En in e_col; the full kernel passes the spectrum
    twice.

    With x = beta |Em - En| >= 0 it is exp(-beta min(Em, En)) (1 - e^{-x})/x
    exactly, written as -expm1(-x)/x with its limit 1 at x = 0.  On the
    shifted energies both factors are at most 1, so nothing overflows.
    Built in row blocks of _KERNEL_BLOCK entries, a sixteenth of a
    512 x 512 kernel; the four block-sized temporaries alive at once stay
    small beside the result.
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

    method="closed_form" integrates each eigenbasis matrix element exactly:
    each block pairs A_lr with B_rl against its Duhamel kernel block
    (ThermalState._kernel_blocks).
    method="quadrature" uses Gauss-Legendre on [0, beta]: with nodes
    b_k = beta (x_k + 1)/2 the average is half the weighted sum of F(ib_k),
    with no division by beta, so beta = 0 needs no special case.  The node
    count is doubled from 64 until two refinements agree within 1e-10 of
    the value, or within the round-off floor eps D max|P| of the sum if
    that is larger; if 512 nodes are reached first, the last value is
    returned with a RuntimeWarning that gives the last refinement's change.
    The quadrature reads each block's pair product P_lr as left^T P_lr,
    one real GEMM per part of P; the closed form pairs A and B itself, so
    the two routes stay independent.
    """
    state = fn.state
    disconnected = fn.phi_a * fn.phi_b
    levels = fn._columns(state.energies)

    if method == "closed_form":
        kernels = state._kernel_blocks(levels, fn._blocks)
        return sum(_paired_sum(kernels.pop((l, r)), a, b)
                   for l, r, a, b, _ in fn._blocks) - disconnected

    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    beta = state.beta

    def average(n: int) -> complex:
        x, w = gauss_legendre(n)
        bs = 0.5 * beta * (x + 1.0)
        # node-major factors: sum over m of left^T (P right) is the row sum
        # of (left^T P) * right^T, one real GEMM per part of P
        left = [np.exp(-np.outer(beta - bs, e) - state.log_partition)
                for e in levels]
        right = [np.exp(-np.outer(bs, e)) for e in levels]
        vals = sum(_joined(np.sum(_matmul(left[l], pair) * right[r], axis=-1))
                   for l, r, _, _, pair in fn._blocks)
        return complex(0.5 * np.sum(w * vals))

    # below eps D max|P| two refinements differ by round-off alone
    peak = max((float(np.linalg.norm(pair, axis=0).max())
                for *_, pair in fn._blocks), default=0.0)
    floor = np.finfo(float).eps * state.dim * peak
    value, nodes, converged, delta = _refine_by_doubling(
        average, _QUAD_START, _QUAD_MAX, floor, rtol=_QUAD_TOL)
    if not converged:
        warnings.warn(f"canonical quadrature: no two refinements agreed "
                      f"within {_QUAD_TOL:g} of the value by {nodes} nodes; "
                      f"the last one moved it by {delta:.3g}",
                      _UnconvergedQuadrature, stacklevel=2)
    return value - disconnected
