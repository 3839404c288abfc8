"""Heisenberg dynamics on a finite window.

The evolution tau_t(A) = exp(iHt) A exp(-iHt) is applied in the energy
eigenbasis (diagonal phases, two dense products to come back), so a scan
over a time grid reuses one diagonalization.  On top of that sit the
commutator scans against an exponential light-cone envelope and the scan
of local approximants obtained by conditional expectation onto a ball
around the support of A.

When eig_hermitian solved H in reversal blocks (J H J = H exactly, J the
index reversal i -> D-1-i; SpectralDecomposition.sector set) and A is
Hermitian with J A J = -A or = A exactly, both scans evolve in the two
sectors instead.  In the basis (e_i +- e_{D-1-i})/sqrt 2 the eigenvectors
are diag(W+, W-), W+- = sqrt 2 V[:D/2, +- columns], and tau_t(A) is
[[0, N_t], [N_t*, 0]] for odd A (any Z or Y) with

    N_t = W+ (e^{itE+} e^{-itE-} o Abar+-) W-*,   Abar+- = W+* M_A W-,

M_A = spectral._reversal_blocks(A)[1], and diag(N+, N-) for even A (any
X).  A's blocks are read into the sector eigenbases once; each time point
costs two (D/2)-sized products per block, where the dense route costs two
D-sized ones, and A is never transformed at full size.

The commutator scan never comes back to the site basis: the spectral norm
is unitarily invariant.  How the norm is taken is decided once per scan:

- A odd, H reversal-symmetric, B diagonal with exactly two levels
  l1 != l2 whose level sets J maps onto each other (any single-site Z or
  projector): with S = diag(s_p) over p < D/2, s_p = +1 where B = l1,
  [B, tau_t(A)] is unitarily block-diagonal with blocks of norm
  ||K - K*||/2 |l1 - l2|, K = N_t S.  i(K - K*)/2 is Hermitian to the
  last bit, so one (D/2)-sized eigensolver call gives the norm.
- A and B Hermitian, B diagonal with two levels otherwise: with
  B = l1 P1 + l2 P2 and X = tau_t(A) Hermitian,
  [X, B] = (l2 - l1)(P1 X P2 - P2 X P1), so the norm is
  |l1 - l2| ||V1 tau_t(A) V2*||, V_k being the rows of the eigenvector
  matrix on which B = l_k and tau_t(A) the energy-basis matrix: two
  products of half size and the eigensolver on a Gram matrix of the
  smaller level set's size; B is never transformed.
- Any other pair: one D x D product X = B tau_t(A) in the energy basis.
  For Hermitian A and B the commutator is handed to the norm as an exactly
  Hermitian matrix, which keeps it on the eigensolver instead of the SVD.

The locality scan takes its norms in the site basis, where the error
D = tau_t(A) - E_r(tau_t(A)) is formed.  J is a product of local
reversals, so E_r commutes with conjugation by it and, on the sector
route, D has A's parity: its half block is N_t minus that of E_r(tau_t(A))
(the site matrix of tau_t(A), which E_r needs, is written from the half
blocks into one reused buffer), and its norm comes from half-size blocks.
Every other scan takes the norm of the D x D error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .lattice import (Interaction, Lattice, Site, _hermitian_part,
                      _is_hermitian, ball, certify_locality)
from .operators import (EmbeddedOperator, conditional_expectation, embed,
                        spectral_norm)
from .spectral import (SpectralDecomposition, _matmul, _reversal_blocks,
                       _reversal_matrix, _reversal_parity, _sandwich,
                       build_hamiltonian, eig_hermitian)
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


def _tau_energy(a_energy: np.ndarray, e_row: np.ndarray, e_col: np.ndarray,
                z: complex, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Eigenbasis matrix of tau_z(A), e^{izE_m} A_mn e^{-izE_n}, given A in
    the eigenbasis with rows at energies e_row and columns at e_col;
    written into out when given."""
    u = np.exp(1j * z * e_row)
    uinv = np.exp(-1j * z * e_col)
    phase = np.multiply(u[:, None], uinv[None, :], out=out)
    return np.multiply(phase, a_energy, out=phase)


def _evolve_energy(dec: SpectralDecomposition, a_energy: np.ndarray,
                   z: complex) -> np.ndarray:
    """Site-basis matrix of tau_z(A) given A already in the eigenbasis."""
    v, e = dec.eigenvectors, dec.eigenvalues
    return _sandwich(v, _tau_energy(a_energy, e, e, z), v.conj().T)


def _sector_evolution(dec: SpectralDecomposition, a: np.ndarray, parity: int,
                      signs: Optional[np.ndarray] = None):
    """t -> the half blocks of tau_t(A) in the basis (e_i +- e_{D-1-i})/sqrt 2,
    for A's window matrix with J A J = parity * A on a decomposition solved
    in reversal blocks: [N_t] for odd A (tau_t(A) = [[0, N_t], [N_t*, 0]]),
    [N+, N-] for even A (tau_t(A) = diag(N+, N-)).

    A's blocks are taken into the sector eigenbases once, Abar_lr =
    W_l* A_lr W_r, and each block at time t is
    W_l (e^{itE_l} e^{-itE_r} o Abar_lr) W_r*: two (D/2)-sized products
    (real GEMMs with real eigenvectors).  signs, over p < D/2, scales the
    columns of N_t (K = N_t diag(signs)) at no extra cost.
    """
    half = dec.dim // 2
    plus = dec.sector > 0
    w = [np.sqrt(2.0) * dec.eigenvectors[:half, c] for c in (plus, ~plus)]
    e = [dec.eigenvalues[c] for c in (plus, ~plus)]
    blocks = _reversal_blocks(a)
    pairs = [(0, 1, blocks[1])] if parity < 0 else \
        [(0, 0, blocks[0]), (1, 1, blocks[1])]
    terms = []
    for left, right, m in pairs:
        abar = _sandwich(w[left].conj().T, m, w[right])
        cols = w[right] if signs is None else signs[:, None] * w[right]
        terms.append((w[left], e[left], e[right], abar, cols.conj().T))
    phased = np.empty((half, half), dtype=complex)

    def at(t: float) -> list:
        return [_sandwich(wl, _tau_energy(abar, el, er, t, out=phased), wr)
                for wl, el, er, abar, wr in terms]
    return at


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


def _mirrored_levels(rows, dim: int) -> Optional[np.ndarray]:
    """signs s_p over p < dim/2, +1 where p is in rows[0] and -1 where
    dim-1-p is, when the index reversal maps the level set rows[0] onto
    rows[1]; None otherwise."""
    first = np.zeros(dim, dtype=bool)
    first[rows[0]] = True
    if dim % 2 or not np.array_equal(first[::-1], ~first):
        return None
    return np.where(first[:dim // 2], 1.0, -1.0)


def _sector_commutator_norm(halves, gap: float):
    """Per-point ||[B, tau_t(A)]|| = gap ||i(K - K*)/2|| from the sector
    evolution of an odd A whose columns carry B's signs, K = N_t S."""

    def norm(t: float) -> float:
        k, = halves(t)
        k *= 1j
        return gap * spectral_norm(_hermitian_part(k))
    return norm


def _energy_basis_norm(dec: SpectralDecomposition, a: np.ndarray,
                       b: np.ndarray, hermitian: bool, levels):
    """Per-point ||[B, tau_t(A)]|| through the energy-basis matrix of
    tau_t(A), from A's dense transform: the half-block norm when B has
    two levels, else the one-product norm with B transformed too."""
    abar = dec.transform(a)
    if levels is None:
        norm = _commutator_norm(dec.transform(b), hermitian)
    else:
        norm = _half_block_norm(dec, *levels)
    e = dec.eigenvalues
    tau = np.empty((dec.dim, dec.dim), dtype=complex)
    return lambda t: norm(_tau_energy(abar, e, e, t, out=tau))


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

    When H was solved in reversal blocks (SpectralDecomposition.sector
    set), A is Hermitian and odd under the index reversal J (any Z or Y),
    and B is Hermitian, diagonal with two levels l1 != l2, and J maps the
    one level set onto the other (any single-site Z or computational-basis
    projector), the scan evolves in the sectors: per time point two
    (D/2)-sized products give K = N_t S (module docstring; S the signs of
    B's levels over the first half), and the norm is
    |l1 - l2| ||i(K - K*)/2|| from one (D/2)-sized eigensolver call on a
    matrix that is Hermitian to the last bit.  Neither A nor B is
    transformed at full size.

    Otherwise A is transformed to the energy basis once, where tau_t(A)
    is an elementwise phase.  When A and B are Hermitian and B's window
    matrix is diagonal with exactly two distinct values l1 != l2, the norm
    is |l1 - l2| ||V1 tau_t(A) V2*|| (V_k the eigenvector rows on which
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
    levels = _two_levels(bemb.matrix) if hermitian else None
    signs = None
    if levels is not None and dec.reversal_symmetric \
            and _reversal_parity(a.matrix) == -1:
        signs = _mirrored_levels(levels[1], dec.dim)
    if signs is not None:
        norm_at = _sector_commutator_norm(
            _sector_evolution(dec, aemb.matrix, -1, signs), levels[0])
    else:
        norm_at = _energy_basis_norm(dec, aemb.matrix, bemb.matrix,
                                     hermitian, levels)
    del aemb, bemb  # site-basis matrices are not needed past this point
    rows = []
    for t in times:
        t = float(t)
        lhs = norm_at(t)
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

def _sector_error_norm(blocks, approx_blocks, parity: int) -> float:
    """||tau_t(A) - E_r(tau_t(A))|| from the half blocks of tau_t(A)
    (_sector_evolution) and the stack _reversal_blocks(E_r(tau_t(A))).

    For odd A the error is [[0, M], [M*, 0]] with M = N_t minus the
    approximant's second block, and ||M|| comes from the largest eigenvalue
    of M M*; for even A it is the larger norm of the two diagonal blocks,
    each passed on as its exactly Hermitian part.
    """
    if parity < 0:
        m = blocks[0] - approx_blocks[1]
        return float(np.sqrt(spectral_norm(m @ m.conj().T)))
    return max(spectral_norm(_hermitian_part(n - e))
               for n, e in zip(blocks, approx_blocks))


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

    norm_route tells how the scan ran, decided once from the
    decomposition and A.  When H was solved in reversal blocks
    (SpectralDecomposition.sector set), A is Hermitian and A's matrix is
    exactly odd (any Pauli Z or Y) or even (any Pauli X) under the index
    reversal, the scan evolves in the sectors (module docstring): A's
    half blocks are read into the sector eigenbases once, and each time
    point forms tau_t(A)'s half blocks with two (D/2)-sized products per
    block and writes its site matrix, which E_r needs, into one reused
    buffer.  The error has A's parity, and its half block is tau_t(A)'s
    minus that of E_r(tau_t(A)): for "flip_odd" its norm takes one
    (D/2)-sized product and a (D/2)-sized eigensolver, for "flip_even" two
    (D/2)-sized eigensolvers.  The value differs from the dense one by
    round-off.  Any other scan ("dense") transforms A once, evolves at
    full size and takes the norm of the D x D error's Hermitian part.
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
    dec = context.decomposition
    parity = (_reversal_parity(a.matrix)
              if hermitian and dec.reversal_symmetric else 0)
    route = {-1: "flip_odd", 1: "flip_even", 0: "dense"}[parity]
    if parity:
        halves = _sector_evolution(dec, aemb.matrix, parity)
        buf = np.empty((dec.dim, dec.dim), dtype=complex)
    else:
        abar = dec.transform(aemb.matrix)
    del aemb

    rows = []
    for t in times:
        t = float(t)
        if parity:
            blocks = halves(t)
            tau_mat = _reversal_matrix(
                *((blocks[0].conj().T, blocks[0]) if parity < 0 else blocks),
                parity, out=buf)
        else:
            tau_mat = _evolve_energy(dec, abar, t)
        tau = EmbeddedOperator(context.window, context.window, tau_mat)
        for r in radii:
            region = _ball_in_window(lat, xs, r, context.window)
            approx = conditional_expectation(tau, region, lat).matrix
            if parity:
                err = _sector_error_norm(blocks, _reversal_blocks(approx),
                                         parity)
            else:
                diff = tau_mat - approx
                err = spectral_norm(_hermitian_part(diff) if hermitian
                                    else diff)
                del diff
            del approx
            env = na * np.exp(-mu * exponent_multiplier * float(r)) \
                * np.expm1(velocity * abs(t))
            rows.append(LocalityMeasurement(float(r), t, float(err), float(env)))
        # no D x D array of this time point but the reused buffer stays
        # alive through the next evolution, where the scan's memory peaks
        del tau, tau_mat
    floor = float(np.finfo(float).eps) * dec.dim * na
    c_emp = _empirical_prefactor(((m.error, m.envelope) for m in rows), floor)
    below = sum(m.error < floor for m in rows)
    return LocalityScanResult(mu, float(velocity), float(exponent_multiplier),
                              rows, c_emp, floor, below, route)

