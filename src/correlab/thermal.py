"""Finite-volume Gibbs states and thermal correlation functions.

All Boltzmann weights are computed from shifted energies Etil = E - E_min,
so every exponent that appears is <= 0 inside the analyticity strip and the
partition sum never overflows.  The analytic continuation

    F(z) = phi(A tau_z(B)),   z = t + i s,  0 <= s <= beta,

is evaluated directly in the energy eigenbasis; the conjugate function
G(t) = phi(tau_t(B) A) lives on the strip -beta <= s <= 0, and the KMS
boundary condition F(t + i beta) = G(t) ties the two together.  Both
evaluators tolerate a bounded excursion outside their native strip (needed
by the contour pipeline) and refuse to produce overflowed garbage.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .operators import EmbeddedOperator, LocalOperator, _as_matrix
from .quadrature import gauss_legendre
from .spectral import SpectralDecomposition, eig_hermitian

_EXP_CAP = 700.0          # np.exp overflows just past 709
_STRIP_TOL = 1e-9
_QUAD_START = 64
_QUAD_MAX = 512
_QUAD_TOL = 1e-10

OperatorLike = Union[EmbeddedOperator, LocalOperator, np.ndarray]


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

    def to_eigenbasis(self, op: OperatorLike) -> np.ndarray:
        return self.decomposition.transform(_as_matrix(op))

    def expectation(self, op: OperatorLike, basis: str = "site") -> complex:
        m = _as_matrix(op) if basis == "energy" else self.to_eigenbasis(op)
        return complex(np.sum(self.weights * np.diag(m)))


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
        return complex(np.sum(self.state.weights * np.diag(self.a_energy)))

    @property
    def phi_b(self) -> complex:
        return complex(np.sum(self.state.weights * np.diag(self.b_energy)))

    # -- strip bookkeeping --------------------------------------------------

    def _check_strip(self, s: float) -> None:
        beta = self.state.beta
        if not -beta - _STRIP_TOL * (1 + beta) <= s <= beta + _STRIP_TOL * (1 + beta):
            raise ValueError(
                f"imaginary part {s:.6g} outside the strip [-beta, beta]")

    def _f_weights(self, s: float):
        """Row/column Boltzmann factors of F at height s, 1/Z' folded in."""
        st = self.state
        self._check_strip(s)
        if s < 0 and -s * st.energies[-1] > _EXP_CAP:
            raise FloatingPointError(
                "continuation of F below the real axis would overflow")
        row = np.exp(-(st.beta - s) * st.energies - st.log_partition)
        col = np.exp(-s * st.energies)
        return row, col

    def _g_weights(self, s: float):
        st = self.state
        self._check_strip(s)
        if s > 0 and s * st.energies[-1] > _EXP_CAP:
            raise FloatingPointError(
                "continuation of G above the real axis would overflow")
        row = np.exp(-(st.beta + s) * st.energies - st.log_partition)
        col = np.exp(s * st.energies)
        return row, col

    # -- pointwise evaluation ----------------------------------------------

    def eval(self, z: complex) -> complex:
        """F(z) = phi(A tau_z(B)) for z in the closed strip 0 <= Im z <= beta.

        Im z < 0 is accepted as analytic continuation while the exponents
        stay below the overflow cap.
        """
        z = complex(z)
        row, col = self._f_weights(z.imag)
        m = (row[:, None] * col[None, :]) * self.a_energy * self.b_energy.T
        u = np.exp(1j * z.real * self.state.energies)
        return complex(u.conj() @ (m @ u))

    def conjugate_eval(self, z: complex) -> complex:
        """G(z) = phi(tau_z(B) A) for -beta <= Im z <= 0 (continuation above
        the axis subject to the same overflow cap)."""
        z = complex(z)
        row, col = self._g_weights(z.imag)
        m = (row[:, None] * col[None, :]) * self.b_energy * self.a_energy.T
        u = np.exp(1j * z.real * self.state.energies)
        return complex(u @ (m @ u.conj()))

    # -- grids at fixed height ---------------------------------------------

    def eval_grid(self, ts: np.ndarray, imag: float = 0.0) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        row, col = self._f_weights(imag)
        m = (row[:, None] * col[None, :]) * self.a_energy * self.b_energy.T
        u = np.exp(1j * np.outer(self.state.energies, ts))
        return np.sum(u.conj() * (m @ u), axis=0)

    def conjugate_eval_grid(self, ts: np.ndarray, imag: float = 0.0) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        row, col = self._g_weights(imag)
        m = (row[:, None] * col[None, :]) * self.b_energy * self.a_energy.T
        u = np.exp(1j * np.outer(self.state.energies, ts))
        return np.sum(u * (m @ u.conj()), axis=0)

    def boundary_gap(self, ts: np.ndarray) -> np.ndarray:
        """F(t + i beta) - G(t) on a real grid; zero is the KMS condition."""
        return (self.eval_grid(ts, imag=self.state.beta)
                - self.conjugate_eval_grid(ts, imag=0.0))


def kms_function(state: ThermalState, a: OperatorLike, b: OperatorLike,
                 basis: str = "site") -> KMSFunction:
    if basis == "energy":
        return KMSFunction(state, _as_matrix(a), _as_matrix(b))
    return KMSFunction(state, state.to_eigenbasis(a), state.to_eigenbasis(b))


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------

def ordinary_correlator(state: ThermalState, a: OperatorLike, b: OperatorLike,
                        basis: str = "site") -> complex:
    """Truncated correlation phi(AB) - phi(A) phi(B)."""
    if basis == "energy":
        am, bm = _as_matrix(a), _as_matrix(b)
    else:
        am, bm = state.to_eigenbasis(a), state.to_eigenbasis(b)
    p = state.weights
    phi_ab = np.einsum("m,mn,nm->", p, am, bm)
    phi_a = np.sum(p * np.diag(am))
    phi_b = np.sum(p * np.diag(bm))
    return complex(phi_ab - phi_a * phi_b)


def _duhamel_kernel(beta: float, energies: np.ndarray) -> np.ndarray:
    """Averaged Boltzmann kernel (1/beta) int_0^beta db exp(-(beta-b)Em - b En).

    Written per matrix element as exp(-beta Em) expm1(x)/x with
    x = beta (Em - En), switching to the difference quotient
    (exp(-beta En) - exp(-beta Em))/x for |x| >= 1 and to the exact
    degenerate limit exp(-beta Em) when Em and En coincide numerically.
    """
    e = energies
    de = e[:, None] - e[None, :]
    x = beta * de
    wm = np.exp(-beta * e)
    delta_deg = 1e-10 * max(float(e[-1]), 1.0)

    # small |x|: exp(-beta Em) * expm1(x)/x, with the x -> 0 limit equal to 1;
    # expm1 sees 0 in place of the large |x| it would overflow on
    near = np.abs(x) < 1.0
    ratio = np.ones_like(x)
    np.divide(np.expm1(np.where(near, x, 0.0)), x, out=ratio, where=(x != 0.0))
    small = wm[:, None] * ratio
    # large |x|: difference quotient, safe because |x| >= 1 there
    with np.errstate(divide="ignore", invalid="ignore"):
        large = (wm[None, :] - wm[:, None]) / x
    kern = np.where(near, small, large)
    return np.where(np.abs(de) < delta_deg, wm[:, None], kern)


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
    if basis == "energy":
        am, bm = _as_matrix(a), _as_matrix(b)
    else:
        am, bm = state.to_eigenbasis(a), state.to_eigenbasis(b)
    p = state.weights
    phi_a = np.sum(p * np.diag(am))
    phi_b = np.sum(p * np.diag(bm))
    disconnected = complex(phi_a * phi_b)

    if method == "closed_form":
        kern = _duhamel_kernel(state.beta, state.energies)
        zshift = np.exp(state.log_partition)
        return complex(np.einsum("mn,mn,nm->", kern, am, bm) / zshift) - disconnected

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
