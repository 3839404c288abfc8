"""Heisenberg dynamics on a finite window.

The evolution tau_t(A) = exp(iHt) A exp(-iHt) is applied in the energy
eigenbasis (diagonal phases, two dense products to come back), so a scan
over a time grid reuses one diagonalization.  On top of that sit the
commutator scans against an exponential light-cone envelope and the scan
of local approximants obtained by conditional expectation onto a ball
around the support of A.

The commutator scan never comes back to the site basis: the spectral norm
is unitarily invariant, so ||[B, tau_t(A)]|| is measured through the
energy basis, where tau_t(A) is an elementwise phase on A's matrix.  How
the norm is taken is decided once per scan:

- A and B Hermitian, and B diagonal in the site basis with exactly two
  distinct values l1 != l2 (every Pauli Z, every computational-basis
  projector): with B = l1 P1 + l2 P2 and X = tau_t(A) Hermitian,
  [X, B] = (l2 - l1)(P1 X P2 - P2 X P1), so the norm is
  |l1 - l2| ||V1 tau_t(A) V2*||, V_k being the rows of the eigenvector
  matrix on which B = l_k and tau_t(A) the energy-basis matrix.  Per time
  point that is two products of half size and the eigensolver on a Gram
  matrix of the smaller level set's size; B is never transformed.
- Any other pair: one D x D product X = B tau_t(A) in the energy basis.
  For Hermitian A and B the commutator is handed to the norm as an exactly
  Hermitian matrix, which keeps it on the eigensolver instead of the SVD.

The locality scan takes its norms in the site basis, where the error
D = tau_t(A) - E_r(tau_t(A)) is formed.  When eig_hermitian solved H in
reversal blocks (J H J = H exactly, J the index reversal i -> D-1-i, which
is a product of local reversals, so E_r commutes with conjugation by it)
and A is Hermitian with J A J = -A or = A exactly, D has A's parity.  In
the basis (e_i +- e_{D-1-i})/sqrt 2 an odd D is [[0, M], [M*, 0]] and an
even D is block-diagonal, so its norm comes from half-size blocks; every
other scan takes the norm of D itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .lattice import (Interaction, Lattice, Site, _is_hermitian, ball,
                      certify_locality)
from .operators import (EmbeddedOperator, conditional_expectation, embed,
                        spectral_norm)
from .spectral import (SpectralDecomposition, _matmul, _reversal_blocks,
                       _reversal_parity, _sandwich, build_hamiltonian,
                       eig_hermitian)
from .thermal import _EXP_CAP


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

@dataclass
class EvolutionContext:
    """One diagonalized window, shared by every evolution on it."""

    lattice: Lattice
    window: tuple
    decomposition: SpectralDecomposition


def evolution_context(interaction: Interaction,
                      window: Optional[Iterable[Site]] = None) -> EvolutionContext:
    ham = build_hamiltonian(interaction, window)
    return EvolutionContext(interaction.lattice, tuple(ham.window),
                            eig_hermitian(ham.matrix))


def _on_window(context: EvolutionContext, op) -> EmbeddedOperator:
    """op as an operator on the context window: a local operator is
    embedded there, an embedded one must already live there."""
    if not isinstance(op, EmbeddedOperator):
        return embed(op, context.lattice, context.window)
    if tuple(op.window) != context.window:
        raise ValueError("operator window does not match the context window")
    return op


def _tau_energy(dec: SpectralDecomposition, a_energy: np.ndarray, z: complex,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Eigenbasis matrix of tau_z(A), e^{izE_m} A_mn e^{-izE_n}, given A in
    the eigenbasis; written into out when given."""
    e = dec.eigenvalues
    u = np.exp(1j * z * e)
    uinv = np.exp(-1j * z * e)
    phase = np.multiply(u[:, None], uinv[None, :], out=out)
    return np.multiply(phase, a_energy, out=phase)


def _evolve_energy(dec: SpectralDecomposition, a_energy: np.ndarray,
                   z: complex) -> np.ndarray:
    """Site-basis matrix of tau_z(A) given A already in the eigenbasis."""
    v = dec.eigenvectors
    return _sandwich(v, _tau_energy(dec, a_energy, z), v.conj().T)


def evolve(context: EvolutionContext, op, time) -> EmbeddedOperator:
    """tau_time(op) on the context window.

    time may be real or complex; a complex time is refused with
    FloatingPointError when a phase factor exp(|Im z| max|E|) or their
    product exp(|Im z| (E_max - E_min)) would overflow.
    """
    z = complex(time)
    e = context.decomposition.eigenvalues
    lo, hi = float(e[0]), float(e[-1])
    if abs(z.imag) * max(abs(lo), abs(hi), hi - lo) > _EXP_CAP:
        raise FloatingPointError("imaginary time too large for this spectrum")
    a = _on_window(context, op)
    abar = context.decomposition.transform(a.matrix)
    mat = _evolve_energy(context.decomposition, abar, z)
    return EmbeddedOperator(context.window, context.window, mat)


# ---------------------------------------------------------------------------
# Lieb-Robinson commutator scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LRMeasurement:
    time: float
    distance: float
    commutator_norm: float
    envelope: float  # ||A|| ||B|| min(|X|,|Y|) exp(-mu l) (exp(v|t|) - 1)


@dataclass
class LRScanResult:
    mu: float
    velocity: float
    distance: float
    measurements: List[LRMeasurement]
    c_empirical: float
    noise_floor: float           # eps * D * ||A|| ||B||
    floor_rows: int              # rows whose commutator norm is below it
    c_empirical_resolved: float  # c_empirical over the other rows only


def _empirical_prefactor(pairs, floor: float) -> float:
    """Smallest c with lhs <= c * envelope on every row; inf when some row
    has zero envelope but an lhs above the round-off floor."""
    best = 0.0
    for lhs, env in pairs:
        if env > 0.0 and np.isfinite(env):
            best = max(best, lhs / env)
        elif env == 0.0 and lhs > floor:
            return float("inf")
    return best


def _check_scan(grids: dict, **rates) -> None:
    """Refuse a scan whose prefactor would rest on no measurement, or on
    envelopes that are not numbers: every rate given (None leaves it to its
    default) must be finite and positive, every grid nonempty and finite."""
    for name, value in rates.items():
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, "
                             f"not {value!r}")
    for name, grid in grids.items():
        if len(grid) == 0:
            raise ValueError(f"{name} must not be empty")
        if not np.isfinite(np.asarray(grid, dtype=float)).all():
            raise ValueError(f"{name} must be finite")


def _two_levels(m: np.ndarray):
    """(|l1 - l2|, [rows1, rows2]) when m is diagonal with exactly two
    distinct values l1 != l2, rows_k holding the indices where m = l_k and
    the smaller set first; None for any other m."""
    d = np.diag(m)
    if np.count_nonzero(m) != np.count_nonzero(d):
        return None
    levels, which = np.unique(d, return_inverse=True)
    if len(levels) != 2:
        return None
    rows = sorted((np.flatnonzero(which == k) for k in (0, 1)), key=len)
    return float(abs(levels[1] - levels[0])), rows


def _commutator_norm(bbar: np.ndarray, hermitian: bool):
    """Per-point ||[B, tau]|| from X = B tau, both in the energy basis.

    For Hermitian A and B the commutator is X - X*, and i(X - X*) is passed
    on: it is Hermitian to the last bit, so its norm comes from the
    eigensolver.  Otherwise the commutator is X - tau B.  The tau buffer is
    overwritten.
    """
    x = np.empty((len(bbar), len(bbar)), dtype=complex)

    def norm(tau: np.ndarray) -> float:
        _matmul(bbar, tau, out=x)
        if hermitian:
            comm = np.conjugate(x.T, out=tau)
            np.subtract(x, comm, out=comm)
            comm *= 1j
        else:
            comm = np.subtract(x, tau @ bbar, out=x)
        return spectral_norm(comm)
    return norm


def _half_block_norm(dec: SpectralDecomposition, gap: float, rows):
    """Per-point ||[B, tau]|| = |l1 - l2| ||M|| for a Hermitian energy-basis
    tau and B = l1 P1 + l2 P2 diagonal in the site basis, where
    M = V1 tau V2* and V_k holds the eigenvector rows on which B = l_k.

    ||M||^2 is the largest eigenvalue of the s1 x s1 Gram matrix of M^T
    (s1 <= s2 the level set sizes).  With real eigenvectors both products
    are real GEMMs (_matmul); the buffers are allocated once.
    """
    v = dec.eigenvectors
    v1, v2 = v[rows[0]], v[rows[1]].conj()
    s1, s2 = len(rows[0]), len(rows[1])
    w = np.empty((s1, dec.dim), dtype=complex)
    wt = np.empty((dec.dim, s1), dtype=complex)
    mt = np.empty((s2, s1), dtype=complex)
    gram = np.empty((s1, s1), dtype=complex)

    def norm(tau: np.ndarray) -> float:
        _matmul(v1, tau, out=w)
        np.copyto(wt, w.T)
        _matmul(v2, wt, out=mt)              # conj(V2) (V1 tau)^T = M^T
        mc = np.conjugate(mt, out=wt[:s2])   # wt is not read again
        np.matmul(mc.T, mt, out=gram)
        return gap * np.sqrt(spectral_norm(gram))
    return norm


def _reversal_norm(parity: int):
    """Per-point ||D|| for a Hermitian D with J D J = parity * D, read from
    the half blocks (TL + TR J, TL - TR J) of spectral._reversal_blocks:
    for odd D ||TL - TR J||, from the largest eigenvalue of its Gram
    matrix; for even D the larger norm of the two blocks."""

    def norm(d: np.ndarray) -> float:
        plus, minus = _reversal_blocks(d)
        if parity < 0:
            return float(np.sqrt(spectral_norm(minus @ minus.conj().T)))
        return max(spectral_norm(plus), spectral_norm(minus))
    return norm


def lr_commutator_scan(interaction: Interaction, a, b,
                       times: Sequence[float], mu: float,
                       velocity: Optional[float] = None,
                       context: Optional[EvolutionContext] = None) -> LRScanResult:
    """Measure ||[B, tau_t(A)]|| on a time grid against the light-cone
    envelope at decay rate mu.

    The scan runs on the context's window, or on the whole lattice when no
    context is given; a scan of a sub-window passes
    evolution_context(interaction, window).  The velocity defaults to the
    one certified from the interaction at the same mu.  The returned
    c_empirical is the smallest prefactor that makes the envelope an upper
    bound for the whole scan; c_empirical_resolved is the same over the rows
    at or above the round-off floor eps * D * ||A|| ||B||, and floor_rows
    counts the rows below it.

    A is transformed to the energy basis once, where tau_t(A) is an
    elementwise phase.  When A and B are Hermitian and B's window matrix
    is diagonal with exactly two distinct values l1 != l2, the norm is
    |l1 - l2| ||V1 tau_t(A) V2*|| (V_k the eigenvector rows on which
    B = l_k), from the identity [X, B] = (l2 - l1)(P1 X P2 - P2 X P1) for
    Hermitian X: two half-size products and a half-size eigensolver per
    time point, with no transform of B.  Every other pair takes one
    product X = B tau_t(A) per time point, B transformed once; for a
    Hermitian pair i(X - X*) is passed on, which is Hermitian to the last
    bit, so its norm comes from the eigensolver, and otherwise the
    commutator is X - tau_t(A) B.  mu and a given velocity must be finite
    and positive, and the time grid nonempty and finite: anything else
    would give a prefactor backed by no measurement.
    """
    _check_scan({"times": times}, mu=mu, velocity=velocity)
    if context is None:
        context = evolution_context(interaction)
    if velocity is None:
        velocity = certify_locality(interaction, mu).velocity

    aemb = _on_window(context, a)
    bemb = _on_window(context, b)
    xs, ys = aemb.support, bemb.support
    dist = context.lattice.set_distance(xs, ys)
    na = spectral_norm(a.matrix)
    nb = spectral_norm(b.matrix)
    size = min(len(xs), len(ys))

    # embedding keeps the answer, so the local matrices are checked
    hermitian = _is_hermitian(a.matrix) and _is_hermitian(b.matrix)
    dec = context.decomposition
    abar = dec.transform(aemb.matrix)
    levels = _two_levels(bemb.matrix) if hermitian else None
    if levels is None:
        norm = _commutator_norm(dec.transform(bemb.matrix), hermitian)
    else:
        norm = _half_block_norm(dec, *levels)
    del aemb, bemb  # site-basis matrices are not needed past this point
    tau = np.empty((dec.dim, dec.dim), dtype=complex)
    rows = []
    for t in times:
        t = float(t)
        lhs = norm(_tau_energy(dec, abar, t, out=tau))
        env = na * nb * size * np.exp(-mu * dist) * np.expm1(velocity * abs(t))
        rows.append(LRMeasurement(t, dist, float(lhs), float(env)))
    floor = float(np.finfo(float).eps) * dec.dim * na * nb
    c_emp = _empirical_prefactor(
        ((m.commutator_norm, m.envelope) for m in rows), floor)
    resolved = [m for m in rows if m.commutator_norm >= floor]
    c_res = _empirical_prefactor(
        ((m.commutator_norm, m.envelope) for m in resolved), floor)
    return LRScanResult(mu, float(velocity), float(dist), rows, c_emp,
                        floor, len(rows) - len(resolved), c_res)


# ---------------------------------------------------------------------------
# Local approximants
# ---------------------------------------------------------------------------

def _ball_in_window(lat: Lattice, xs, radius, window) -> tuple:
    inside = set(window)
    return tuple(s for s in ball(lat, xs, radius) if s in inside)


@dataclass(frozen=True)
class LocalityMeasurement:
    radius: float
    time: float
    error: float     # ||tau_t(A) - A^r(t)||
    envelope: float  # ||A|| exp(-mu * multiplier * r) (exp(v|t|) - 1)


@dataclass
class LocalityScanResult:
    mu: float
    velocity: float
    exponent_multiplier: float
    measurements: List[LocalityMeasurement]
    c_empirical: float
    noise_floor: float  # eps * D * ||A||
    floor_rows: int     # rows whose error is below it
    norm_route: str     # "flip_odd", "flip_even" or "dense"

    def max_error_by_radius(self) -> dict:
        out: dict = {}
        for m in self.measurements:
            out[m.radius] = max(out.get(m.radius, 0.0), m.error)
        return out


def locality_scan(interaction: Interaction, a, radii: Sequence[float],
                  times: Sequence[float], mu: float,
                  velocity: Optional[float] = None,
                  exponent_multiplier: float = 1.0,
                  context: Optional[EvolutionContext] = None) -> LocalityScanResult:
    """Approximation error of the ball-projected evolution over a grid of
    radii and times, against the bare envelope exp(-mu * multiplier * r).

    The approximant at radius r is the conditional expectation of tau_t(A)
    onto the ball of radius r around the support of A.  For Hermitian A the
    error is Hermitian up to round-off; its exactly Hermitian part is passed
    to the norm, which keeps every point on the eigensolver.  noise_floor
    is eps * D * ||A||, and floor_rows counts the rows below it.  The
    window is the context's, or the whole lattice when no context is given.
    mu, exponent_multiplier and a given velocity must be finite and
    positive, and both grids nonempty and finite.

    norm_route tells how the norm was taken, decided once from the
    decomposition and A.  When H was solved in reversal blocks
    (SpectralDecomposition.reversal_symmetric), A is Hermitian and A's
    matrix is exactly odd (any Pauli Z or Y) or even (any Pauli X) under
    the index reversal, the error has A's parity and its norm comes from
    half-size blocks: for "flip_odd" one (D/2)-sized product and a
    (D/2)-sized eigensolver, for "flip_even" two (D/2)-sized eigensolvers.
    The value differs from the dense one by round-off.  Any other scan
    ("dense") takes the norm of the D x D error.
    """
    _check_scan({"radii": radii, "times": times}, mu=mu, velocity=velocity,
                exponent_multiplier=exponent_multiplier)
    if context is None:
        context = evolution_context(interaction)
    lat = context.lattice
    if velocity is None:
        velocity = certify_locality(interaction, mu).velocity

    aemb = _on_window(context, a)
    xs = a.support
    na = spectral_norm(a.matrix)
    hermitian = _is_hermitian(a.matrix)
    parity = (_reversal_parity(a.matrix)
              if hermitian and context.decomposition.reversal_symmetric else 0)
    route = {-1: "flip_odd", 1: "flip_even", 0: "dense"}[parity]
    norm = _reversal_norm(parity) if parity else spectral_norm
    abar = context.decomposition.transform(aemb.matrix)

    rows = []
    for t in times:
        t = float(t)
        tau_mat = _evolve_energy(context.decomposition, abar, t)
        tau = EmbeddedOperator(context.window, context.window, tau_mat)
        for r in radii:
            region = _ball_in_window(lat, xs, r, context.window)
            diff = tau_mat - conditional_expectation(tau, region, lat).matrix
            if hermitian:
                diff += diff.conj().T
                diff /= 2
            err = norm(diff)
            del diff
            env = na * np.exp(-mu * exponent_multiplier * float(r)) \
                * np.expm1(velocity * abs(t))
            rows.append(LocalityMeasurement(float(r), t, float(err), float(env)))
        # no D x D array of this time point stays alive through the next
        # evolution, which is where the scan's memory peaks
        del tau, tau_mat
    floor = float(np.finfo(float).eps) * context.decomposition.dim * na
    c_emp = _empirical_prefactor(((m.error, m.envelope) for m in rows), floor)
    below = sum(m.error < floor for m in rows)
    return LocalityScanResult(mu, float(velocity), float(exponent_multiplier),
                              rows, c_emp, floor, below, route)

