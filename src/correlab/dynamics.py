"""Heisenberg dynamics on a finite window.

The evolution tau_t(A) = exp(iHt) A exp(-iHt) is applied in the energy
eigenbasis, so a scan over a time grid reuses one diagonalization.  On top
of that sit the commutator scans against an exponential light-cone
envelope and the scan of local approximants obtained by conditional
expectation onto a ball around the support of A.

Every evolution is one helper, _evolution: an operator's blocks Abar,
read once into pairs of eigenbases (W_l, E_l) and (W_r, E_r), evolve as

    t -> W_l (e^{itE_l} e^{-itE_r} o Abar) W_r*,

a phase and two products per block.  The routes differ only in the blocks
and bases, which spectral's block form gives (spectral module docstring),
and the parity alone chooses them (_block_parity, asked with A's local
matrix): an A with a parity, Hermitian or not, is read in its half blocks
in the sector bases (W+-, E+-), each product (D/2)-sized, and any other A
whole in (V, E).  Hermiticity only says whether an odd A's (-, +) block is
the partner of its (+, -) block; evolve reads both, since a complex time
makes tau_z(A) non-Hermitian.  evolve, like locality_scan, writes the
site matrix back from the evolved blocks (_block_matrix).  Each scan
chooses its route once:

- lr_commutator_scan, for Hermitian A and B with B diagonal with two
  levels l1 != l2, from [X, B] = (l2 - l1)(P1 X P2 - P2 X P1) for
  Hermitian X:
  - in the sectors when spectral reads A as odd (any Z or Y on a
    reversal-symmetric H) and J maps one level set of B onto the other
    (any single-site Z or projector, _mirrored_levels).  K = N_t S is
    A's odd block evolved into (W+, E+) and (S W-, E-),
    S = diag(s_p) over p < D/2 with s_p = +1 where B = l1, and the norm
    is |l1 - l2| ||i(K - K*)/2||: one (D/2)-sized eigensolver call on a
    matrix that is Hermitian to the last bit.  Nothing is transformed at
    full size.
  - on half blocks otherwise: M is A's dense transform evolved into the
    rows V1 and V2 of V on B's two level sets, and the norm is
    |l1 - l2| ||M||, from the Gram matrix of the smaller level set's size.
    B is never transformed.
- lr_commutator_scan, any other pair: one D x D product X = B tau_t(A) in
  the energy basis, A and B transformed once.  For a Hermitian pair the
  commutator is handed on as i(X - X*), Hermitian to the last bit, which
  keeps it on the eigensolver instead of the SVD.
- locality_scan: "flip_odd" or "flip_even" by the parity spectral reads
  A with, "dense" otherwise (norm_route).  Each time point
  writes the site matrix of tau_t(A), which E_r needs, from its blocks.
  J is a product of local reversals, so E_r commutes with it: the error
  tau_t(A) - E_r(tau_t(A)) has A's parity, its blocks are tau_t(A)'s minus
  E_r(tau_t(A))'s in the same layout, and its norm is the largest block
  norm, an off-diagonal block's through its Gram matrix and a diagonal
  block's through its exactly Hermitian part (spectral_norm when A is not
  Hermitian).

Both scans certify the velocity, when none is given, and form every
envelope before the first evolution; a grid on which an envelope is not a
finite number is refused there (_envelopes), and the CLI refuses it at
validation through the same helpers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .lattice import (Interaction, Lattice, Site, _hermitian_part,
                      _is_hermitian, ball, certify_locality)
from .operators import (EmbeddedOperator, _check_measured, _hermitian_norm,
                        conditional_expectation, embed, spectral_norm)
from .spectral import (SpectralDecomposition, _block_matrix, _block_parity,
                       _matmul, _mirrored_levels, _read_blocks, _sandwich,
                       _sector_bases, _sector_blocks, build_hamiltonian,
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


def _tau_energy(a_energy: np.ndarray, e_row: np.ndarray, e_col: np.ndarray,
                z: complex, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Eigenbasis matrix of tau_z(A), e^{izE_m} A_mn e^{-izE_n}, given A in
    the eigenbasis with rows at energies e_row and columns at e_col;
    written into out when given."""
    u = np.exp(1j * z * e_row)
    uinv = np.exp(-1j * z * e_col)
    phase = np.multiply(u[:, None], uinv[None, :], out=out)
    return np.multiply(phase, a_energy, out=phase)


def _evolution(bases: list, blocks: list):
    """t -> [(l, r, W_l (e^{itE_l} e^{-itE_r} o Abar) W_r*)] over the blocks
    (l, r, Abar) of an operator read into bases[l] = (W_l, E_l) and
    bases[r] = (W_r, E_r), blocks of one shape.

    Each block takes the phase, formed in one reused buffer, and two
    products (real GEMMs with real W, _sandwich).  t may be complex.
    """
    terms = [(l, r, bases[l][0], bases[l][1], abar, bases[r][1],
              bases[r][0].conj().T) for l, r, abar in blocks]
    phased = np.empty(blocks[0][2].shape, dtype=complex)

    def at(t: complex) -> list:
        return [(l, r, _sandwich(wl, _tau_energy(abar, el, er, t, out=phased),
                                 wr))
                for l, r, wl, el, abar, er, wr in terms]
    return at


def evolve(context: EvolutionContext, op, time) -> EmbeddedOperator:
    """tau_time(op) on the context window.

    time may be real or complex, and must be finite; a complex time is
    refused with FloatingPointError when a phase factor exp(|Im z| max|E|)
    or their product exp(|Im z| (E_max - E_min)) would overflow.

    op is read by its parity on the decomposition (_block_parity), as
    locality_scan reads A: with one, in its sector blocks (both
    off-diagonal blocks of an odd op, so a complex time needs no
    Hermitian partner), each evolved with (D/2)-sized products and written
    back by _block_matrix, with no dense V; without one, whole in (V, E).
    """
    z = complex(time)
    if not np.isfinite(z):
        raise ValueError(f"time must be finite, not {time!r}")
    dec = context.decomposition
    lo, hi = float(dec.eigenvalues[0]), float(dec.eigenvalues[-1])
    if abs(z.imag) * max(abs(lo), abs(hi), hi - lo) > _EXP_CAP:
        raise FloatingPointError("imaginary time too large for this spectrum")
    parity = _block_parity(dec, op.matrix)
    blocks = _evolution(*_read_blocks(dec, _on_window(context, op).matrix,
                                      parity, hermitian=False))(z)
    return EmbeddedOperator(context.window, context.window,
                            _block_matrix(blocks, parity))


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


def _empirical_prefactor(pairs: list, floor: float) -> float:
    """Smallest c with lhs <= c * envelope on every row; inf when some row
    has zero envelope but an lhs above the round-off floor.  Every
    envelope is finite and nonnegative (_envelopes)."""
    if any(env == 0.0 and lhs > floor for lhs, env in pairs):
        return float("inf")
    return max((lhs / env for lhs, env in pairs if env > 0.0), default=0.0)


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


def _envelopes(interaction: Interaction, mu: float, velocity, scale: float,
               decays: Sequence[float], times: Sequence[float]):
    """(v, rows): v the velocity given, or the one certified from the
    interaction at mu, and for each time t the row of envelopes
    scale e^{-d} (e^{v|t|} - 1) over the decays d.

    A grid with an envelope that is not a finite number is refused: where
    e^{-d} underflows to 0 and e^{v|t|} overflows the envelope is NaN, and
    an infinite one bounds nothing, so its row would back no prefactor.
    """
    if velocity is None:
        velocity = certify_locality(interaction, mu).velocity
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        rows = [[scale * np.exp(-d) * np.expm1(velocity * abs(float(t)))
                 for d in decays] for t in times]
    if not np.isfinite(rows).all():
        raise ValueError(f"the envelope is not finite at mu={mu!r}, "
                         f"v={velocity!r}: e^(-mu l) or e^(v|t|) out of range")
    return velocity, rows


def _lr_envelopes(interaction: Interaction, a, b, times: Sequence[float],
                  mu: float, velocity):
    """(l, ||A||, ||B||, v, rows) of lr_commutator_scan: the distance l
    between the supports X and Y, and for each time the one-entry row
    ||A|| ||B|| min(|X|, |Y|) e^{-mu l} (e^{v|t|} - 1) (_envelopes).  A or
    B a multiple of the identity is refused (operators._check_measured)."""
    _check_measured("a", a.matrix)
    _check_measured("b", b.matrix)
    dist = interaction.lattice.set_distance(a.support, b.support)
    na, nb = spectral_norm(a.matrix), spectral_norm(b.matrix)
    size = min(len(a.support), len(b.support))
    return (dist, na, nb, *_envelopes(interaction, mu, velocity,
                                      na * nb * size, [mu * dist], times))


def _locality_envelopes(interaction: Interaction, a, radii: Sequence[float],
                        times: Sequence[float], mu: float, velocity,
                        exponent_multiplier: float):
    """(||A||, v, rows) of locality_scan: for each time the envelopes
    ||A|| e^{-mu multiplier r} (e^{v|t|} - 1) over the radii r
    (_envelopes).  Refused: an A that is a multiple of the identity
    (operators._check_measured), a negative radius, which has no ball, and
    radii that do not increase, whose rows would repeat or leave the
    monotonicity in r unchecked."""
    _check_measured("a", a.matrix)
    if any(r < 0 for r in radii):
        raise ValueError(f"radius must be nonnegative, not {min(radii)!r}")
    if any(r1 >= r2 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    na = spectral_norm(a.matrix)
    decays = [mu * exponent_multiplier * float(r) for r in radii]
    return (na, *_envelopes(interaction, mu, velocity, na, decays, times))


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

    For Hermitian A and B the commutator is X - X*, and i(X - X*) is
    Hermitian to the last bit, so its norm comes from the eigensolver with
    no Hermiticity check (_hermitian_norm).  Otherwise the commutator is
    X - tau B, through spectral_norm.  The tau buffer is overwritten.
    """
    x = np.empty((len(bbar), len(bbar)), dtype=complex)

    def norm(tau: np.ndarray) -> float:
        _matmul(bbar, tau, out=x)
        if not hermitian:
            return spectral_norm(np.subtract(x, tau @ bbar, out=x))
        comm = np.conjugate(x.T, out=tau)
        np.subtract(x, comm, out=comm)
        comm *= 1j
        return _hermitian_norm(comm)
    return norm


def _gram_norm(m: np.ndarray) -> float:
    """||m|| as the square root of the largest eigenvalue of m m*, which is
    Hermitian by construction: one product and an eigensolver of m's row
    count."""
    return float(np.sqrt(_hermitian_norm(m @ m.conj().T)))


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

    The norm is taken by the route chosen once from the decomposition, A
    and B (module docstring): in the reversal sectors, on the half blocks
    of B's two level sets, or by one D x D product per time point.  mu and
    a given velocity must be finite and positive, the time grid nonempty
    and finite, and every envelope a finite number (_envelopes): anything
    else would give a prefactor backed by no measurement.
    """
    _check_scan({"times": times}, mu=mu, velocity=velocity)
    dist, na, nb, velocity, envelopes = _lr_envelopes(interaction, a, b,
                                                      times, mu, velocity)
    if context is None:
        context = evolution_context(interaction)

    aemb = _on_window(context, a)
    bemb = _on_window(context, b)

    # embedding keeps the answer, so the local matrices are checked
    hermitian = _is_hermitian(a.matrix) and _is_hermitian(b.matrix)
    dec = context.decomposition
    levels = _two_levels(bemb.matrix) if hermitian else None
    signs = (_mirrored_levels(levels[1], dec.dim) if levels is not None
             and _block_parity(dec, a.matrix) < 0 else None)
    if levels is None:  # one product X = B tau_t in the energy basis
        abar, e = dec.transform(aemb.matrix), dec.eigenvalues
        norm = _commutator_norm(dec.transform(bemb.matrix), hermitian)
        tau = np.empty((dec.dim, dec.dim), dtype=complex)

        def norm_at(t: float) -> float:
            return norm(_tau_energy(abar, e, e, t, out=tau))
    else:
        if signs is not None:  # sector: ||i(K - K*)/2|| for K = N_t S
            bases, blocks = _read_blocks(dec, aemb.matrix, -1)
            w, e = bases[1]
            bases[1] = (signs[:, None] * w, e)

            def block_norm(k: np.ndarray) -> float:
                k *= 1j
                return _hermitian_norm(_hermitian_part(k))
        else:  # half block: ||M|| for M = V1 tau_t V2*
            blocks = [(0, 1, dec.transform(aemb.matrix))]
            bases = [(v[rows], e) for v, e in _sector_bases(dec, 0)
                     for rows in levels[1]]
            block_norm = _gram_norm
        evolved = _evolution(bases, blocks)

        def norm_at(t: float) -> float:
            (_, _, m), = evolved(t)
            return levels[0] * block_norm(m)
    del aemb, bemb  # site-basis matrices are not needed past this point
    rows = []
    for t, (env,) in zip(times, envelopes):
        t = float(t)
        rows.append(LRMeasurement(t, dist, float(norm_at(t)), float(env)))
    floor = float(np.finfo(float).eps) * dec.dim * na * nb
    pairs = [(m.commutator_norm, m.envelope) for m in rows]
    resolved = [(lhs, env) for lhs, env in pairs if lhs >= floor]
    c_emp = _empirical_prefactor(pairs, floor)
    c_res = _empirical_prefactor(resolved, floor)
    return LRScanResult(mu, float(velocity), float(dist), rows, c_emp,
                        floor, len(rows) - len(resolved), c_res)


# ---------------------------------------------------------------------------
# Local approximants
# ---------------------------------------------------------------------------

def _error_norm(blocks: list, approx_blocks: list, hermitian: bool) -> float:
    """||tau_t(A) - E_r(tau_t(A))|| from the blocks of both in one layout
    (_evolution and _sector_blocks): the largest norm of a block of the
    difference.  An off-diagonal block's norm comes from its Gram matrix, a
    diagonal block's from its exactly Hermitian part when A is Hermitian,
    and from spectral_norm otherwise.
    """
    return max(_gram_norm(n - e) if left != right
               else _hermitian_norm(_hermitian_part(n - e)) if hermitian
               else spectral_norm(n - e)
               for (left, right, n), (_, _, e) in zip(blocks, approx_blocks))


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
    onto the ball of radius r around the support of A; each ball is built
    before the first evolution, so a negative radius is refused at once.
    For Hermitian A the error is Hermitian up to round-off; its exactly
    Hermitian part is passed to the norm, which keeps every point on the
    eigensolver.  noise_floor is eps * D * ||A||, and floor_rows counts the
    rows below it.  The window is the context's, or the whole lattice when
    no context is given.  mu, exponent_multiplier and a given velocity must
    be finite and positive, both grids nonempty and finite, and every
    envelope a finite number (_envelopes).

    norm_route tells how the scan ran, decided once from the decomposition
    and A's parity alone (module docstring): "flip_odd" and "flip_even"
    evolve A's half blocks in the reversal sectors, Hermitian A or not,
    with (D/2)-sized products, and differ from the dense value by
    round-off; "dense" evolves at full size.
    """
    _check_scan({"radii": radii, "times": times}, mu=mu, velocity=velocity,
                exponent_multiplier=exponent_multiplier)
    na, velocity, envelopes = _locality_envelopes(
        interaction, a, radii, times, mu, velocity, exponent_multiplier)
    if context is None:
        context = evolution_context(interaction)
    lat = context.lattice

    aemb = _on_window(context, a)
    inside = set(context.window)
    regions = [tuple(s for s in ball(lat, a.support, r) if s in inside)
               for r in radii]
    hermitian = _is_hermitian(a.matrix)
    dec = context.decomposition
    parity = _block_parity(dec, a.matrix)
    route = {-1: "flip_odd", 1: "flip_even", 0: "dense"}[parity]
    evolved = _evolution(*_read_blocks(dec, aemb.matrix, parity,
                                       hermitian=hermitian))
    buf = np.empty((dec.dim, dec.dim), dtype=complex) if parity else None
    del aemb

    rows = []
    for t, envs in zip(times, envelopes):
        t = float(t)
        blocks = evolved(t)
        tau = EmbeddedOperator(context.window, context.window,
                               _block_matrix(blocks, parity, out=buf))
        for r, region, env in zip(radii, regions, envs):
            approx = conditional_expectation(tau, region, lat).matrix
            err = _error_norm(blocks, _sector_blocks(approx, parity,
                                                     hermitian), hermitian)
            del approx
            rows.append(LocalityMeasurement(float(r), t, float(err), float(env)))
        # no D x D array of this time point but the reused buffer stays
        # alive through the next evolution, where the scan's memory peaks
        del tau, blocks
    floor = float(np.finfo(float).eps) * dec.dim * na
    c_emp = _empirical_prefactor([(m.error, m.envelope) for m in rows], floor)
    below = sum(m.error < floor for m in rows)
    return LocalityScanResult(mu, float(velocity), float(exponent_multiplier),
                              rows, c_emp, floor, below, route)

