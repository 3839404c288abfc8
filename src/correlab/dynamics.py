"""Heisenberg dynamics on a finite lattice.

The evolution tau_t(A) = exp(iHt) A exp(-iHt) is applied in the energy
eigenbasis of H on the whole lattice, so a scan over a time grid reuses
one diagonalization.  On top of that sit the commutator scans against an
exponential light-cone envelope and the scan of local approximants
obtained by conditional expectation onto a ball around the support of A.

Every evolution but one is one helper, _evolution, over an operator's
blocks as spectral._read_blocks reads them in the parity
spectral._block_parity gives A's local matrix; evolve and locality_scan
write the site matrix back with spectral._block_matrix.  The exception is
lr_commutator_scan's one-product route, which evolves the dense
energy-basis Abar = V* A V (SpectralDecomposition.transform) by its phases
alone, with _tau_energy.  Each scan chooses its route once:
lr_commutator_scan in the reversal sectors or by one D x D product, and
locality_scan by A's parity alone (norm_route).  Both form and check every
envelope before the first evolution (_envelopes), through the helpers the
CLI validates with.

Each scan takes its own verdict, and the CLI reports it as it is: the
prefactors and the count of rows below the round-off floor come from one
rule, _prefactor, which verify.theorem_check shares.  lr_commutator_scan
passes when its prefactor is finite; locality_scan when its prefactor is
finite and its largest error does not grow with the radius (_MONO_SLACK).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .lattice import (Interaction, Lattice, _finite_positive,
                      _hermitian_part, _is_hermitian, ball, certify_locality)
from .operators import (EmbeddedOperator, _check_measured, _hermitian_norm,
                        _on_window, conditional_expectation, embed,
                        spectral_norm)
from .spectral import (SpectralDecomposition, _block_matrix, _block_parity,
                       _matmul, _mirrored_levels, _read_blocks, _sandwich,
                       _sector_blocks, eig_hermitian)
from .thermal import _EXP_CAP

_MONO_SLACK = 1e-12  # growth of the largest error in r that still passes


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

@dataclass
class EvolutionContext:
    """One diagonalized lattice, shared by every evolution on it."""

    lattice: Lattice
    decomposition: SpectralDecomposition


def evolution_context(interaction: Interaction) -> EvolutionContext:
    """The interaction's H on its whole lattice, diagonalized once."""
    return EvolutionContext(interaction.lattice, eig_hermitian(interaction))


def _on_lattice(context: EvolutionContext, op) -> EmbeddedOperator:
    """op as an operator on the context's lattice: a local operator is
    embedded there, an embedded one must be of the lattice's dimension
    (operators._on_window)."""
    if not isinstance(op, EmbeddedOperator):
        return embed(op, context.lattice)
    _on_window(op.matrix, context.decomposition.dim)
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
    bases[r] = (W_r, E_r) (spectral._read_blocks), blocks of one shape:
    each takes the phase, formed in one reused buffer, and two products
    (real GEMMs with real W, _sandwich).  t may be complex."""
    terms = [(l, r, bases[l][0], bases[l][1], abar, bases[r][1],
              bases[r][0].conj().T) for l, r, abar in blocks]
    phased = np.empty(blocks[0][2].shape, dtype=complex)

    def at(t: complex) -> list:
        return [(l, r, _sandwich(wl, _tau_energy(abar, el, er, t, out=phased),
                                 wr))
                for l, r, wl, el, abar, er, wr in terms]
    return at


def evolve(context: EvolutionContext, op, time) -> EmbeddedOperator:
    """tau_time(op) on the context's lattice.

    time may be real or complex, and must be finite; a complex time is
    refused with FloatingPointError when a phase factor exp(|Im z| max|E|)
    or their product exp(|Im z| (E_max - E_min)) would overflow.  op is
    read by its parity (_block_parity), both blocks of an odd op since a
    complex time makes tau_z(op) non-Hermitian.
    """
    z = complex(time)
    if not np.isfinite(z):
        raise ValueError(f"time must be finite, not {time!r}")
    dec = context.decomposition
    lo, hi = float(dec.eigenvalues[0]), float(dec.eigenvalues[-1])
    if abs(z.imag) * max(abs(lo), abs(hi), hi - lo) > _EXP_CAP:
        raise FloatingPointError("imaginary time too large for this spectrum")
    parity = _block_parity(dec, op.matrix)
    blocks = _evolution(*_read_blocks(dec, _on_lattice(context, op).matrix,
                                      parity, hermitian=False))(z)
    return EmbeddedOperator(context.lattice.sites,
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
    passed: bool = field(init=False)  # the verdict: c_empirical is finite

    def __post_init__(self):
        self.passed = bool(np.isfinite(self.c_empirical))


def _prefactor(lhs: Sequence[float], envelopes: Sequence[float],
               floor: float):
    """(c, c_resolved, floor_rows) for the rows lhs <= c * envelope: c is
    the smallest prefactor over every row, and inf when some row has zero
    envelope but an lhs above the round-off floor; c_resolved is the same
    over the rows whose lhs is at or above the floor, and floor_rows counts
    the others.  Every lhs and envelope is finite and nonnegative."""
    ratios = [x / env if env > 0.0 else float("inf") if x > floor else 0.0
              for x, env in zip(lhs, envelopes)]
    resolved = [c for c, x in zip(ratios, lhs) if x >= floor]
    return (float(max(ratios, default=0.0)), float(max(resolved, default=0.0)),
            len(ratios) - len(resolved))


def _check_scan(grids: dict, **rates) -> None:
    """Refuse a scan whose prefactor would rest on no measurement, or on
    envelopes that are not numbers: every rate given (None leaves it to its
    default) must be finite and positive, every grid nonempty and finite."""
    for name, value in rates.items():
        if value is not None:
            _finite_positive(name, value)
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
    ||A|| ||B|| min(|X|, |Y|) e^{-mu l} (e^{v|t|} - 1) (_envelopes).
    Refused: a scan _check_scan refuses, and A or B a multiple of the
    identity (operators._check_measured)."""
    _check_scan({"times": times}, mu=mu, velocity=velocity)
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
    (_envelopes).  Refused: a scan _check_scan refuses, an A that is a
    multiple of the identity (operators._check_measured), a negative
    radius, which has no ball, and radii that do not increase, whose rows
    would repeat or leave the monotonicity in r unchecked."""
    _check_scan({"radii": radii, "times": times}, mu=mu, velocity=velocity,
                exponent_multiplier=exponent_multiplier)
    _check_measured("a", a.matrix)
    if any(r < 0 for r in radii):
        raise ValueError(f"radius must be nonnegative, not {min(radii)!r}")
    if any(r1 >= r2 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    na = spectral_norm(a.matrix)
    decays = [mu * exponent_multiplier * float(r) for r in radii]
    return (na, *_envelopes(interaction, mu, velocity, na, decays, times))


def _two_levels(m: np.ndarray):
    """(l2 - l1, mask of the indices where m = l1) when m is diagonal with
    exactly two distinct values l1 < l2; None for any other m."""
    d = np.diag(m)
    if np.count_nonzero(m) != np.count_nonzero(d):
        return None
    levels, which = np.unique(d, return_inverse=True)
    if len(levels) != 2:
        return None
    return float(levels[1] - levels[0]), which == 0


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
                       velocity: Optional[float] = None) -> LRScanResult:
    """Measure ||[B, tau_t(A)]|| on a time grid against the light-cone
    envelope at decay rate mu, on the interaction's whole lattice
    (evolution_context), with the velocity certified at mu unless one is
    given.  c_empirical is the smallest prefactor that makes the
    envelope an upper bound for the whole scan, c_empirical_resolved the
    same over the rows at or above the round-off floor (_prefactor), and
    the scan passes when c_empirical is finite.

    The norm is taken by one of two routes, chosen once:
    - in the reversal sectors, for a Hermitian pair whose A is odd
      (_block_parity) and whose B is diagonal with two levels l1 < l2 on
      index sets that J maps onto each other (any single-site Z or
      projector; _mirrored_levels gives their signs S over p < D/2).  For
      Hermitian X, [X, B] = (l2 - l1)(P1 X P2 - P2 X P1), so with K, A's
      odd block evolved into (W+, E+) and (S W-, E-), the norm is
      (l2 - l1) ||i(K - K*)/2||: one (D/2)-sized eigensolver call on a
      matrix Hermitian to the last bit, and no D-sized transform.
    - otherwise by one D x D product X = B tau_t(A) per time point in the
      energy basis, A and B transformed once (_commutator_norm).

    mu and a given velocity must be finite and positive, the time grid
    nonempty and finite, and every envelope a finite number (_envelopes):
    anything else would give a prefactor backed by no measurement.
    """
    dist, na, nb, velocity, envelopes = _lr_envelopes(interaction, a, b,
                                                      times, mu, velocity)
    context = evolution_context(interaction)

    aemb = _on_lattice(context, a)
    bemb = _on_lattice(context, b)

    # embedding keeps the answer, so the local matrices are checked
    hermitian = _is_hermitian(a.matrix) and _is_hermitian(b.matrix)
    dec = context.decomposition
    levels = _two_levels(bemb.matrix) if hermitian else None
    signs = (_mirrored_levels(levels[1]) if levels is not None
             and _block_parity(dec, a.matrix) < 0 else None)
    if signs is None:  # one product X = B tau_t in the energy basis
        abar, e = dec.transform(aemb.matrix), dec.eigenvalues
        norm = _commutator_norm(dec.transform(bemb.matrix), hermitian)
        tau = np.empty((dec.dim, dec.dim), dtype=complex)

        def norm_at(t: float) -> float:
            return norm(_tau_energy(abar, e, e, t, out=tau))
    else:  # sector: (l2 - l1) ||i(K - K*)/2||
        bases, blocks = _read_blocks(dec, aemb.matrix, -1)
        w, e = bases[1]
        bases[1] = (signs[:, None] * w, e)
        evolved = _evolution(bases, blocks)

        def norm_at(t: float) -> float:
            (_, _, k), = evolved(t)
            k *= 1j
            return levels[0] * _hermitian_norm(_hermitian_part(k))
    del aemb, bemb  # site-basis matrices are not needed past this point
    rows = []
    for t, (env,) in zip(times, envelopes):
        t = float(t)
        rows.append(LRMeasurement(t, dist, float(norm_at(t)), float(env)))
    floor = float(np.finfo(float).eps) * dec.dim * na * nb
    c_emp, c_res, below = _prefactor([m.commutator_norm for m in rows],
                                     [m.envelope for m in rows], floor)
    return LRScanResult(mu, float(velocity), float(dist), rows, c_emp,
                        floor, below, c_res)


# ---------------------------------------------------------------------------
# Local approximants
# ---------------------------------------------------------------------------

def _error_norm(blocks: list, approx_blocks: list, hermitian: bool) -> float:
    """||tau_t(A) - E_r(tau_t(A))|| from the blocks of both in one layout
    (_evolution and _sector_blocks).  J is a product of local reversals,
    so E_r commutes with it and the difference has A's parity: its norm is
    the largest norm of its blocks, an off-diagonal block's from its Gram
    matrix, a diagonal block's from its exactly Hermitian part when A is
    Hermitian (the difference is Hermitian only to round-off, and this
    keeps every point on the eigensolver), and from spectral_norm
    otherwise.
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
    # the verdict: the largest error does not grow with r by _MONO_SLACK
    # or more, and c_empirical is finite
    monotone_in_radius: bool = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        peaks = list(self.max_error_by_radius().values())  # scan order of r
        self.monotone_in_radius = all(
            p2 < p1 + _MONO_SLACK for p1, p2 in zip(peaks, peaks[1:]))
        self.passed = (self.monotone_in_radius
                       and bool(np.isfinite(self.c_empirical)))

    def max_error_by_radius(self) -> dict:
        out: dict = {}
        for m in self.measurements:
            out[m.radius] = max(out.get(m.radius, 0.0), m.error)
        return out


def locality_scan(interaction: Interaction, a, radii: Sequence[float],
                  times: Sequence[float], mu: float,
                  velocity: Optional[float] = None,
                  exponent_multiplier: float = 1.0) -> LocalityScanResult:
    """Approximation error of the ball-projected evolution over a grid of
    radii and times, against the bare envelope exp(-mu * multiplier * r),
    on the interaction's whole lattice (evolution_context).

    The approximant at radius r is the conditional expectation of tau_t(A)
    onto the ball of radius r around the support of A, each ball built
    before the first evolution; the error's norm is taken block by block
    (_error_norm).  mu, exponent_multiplier and a given velocity must be
    finite and positive, both grids nonempty and finite, and every envelope
    a finite number (_envelopes).

    The scan passes when c_empirical (_prefactor) is finite and the largest
    error over the times does not grow from one radius to the next by
    _MONO_SLACK or more (monotone_in_radius).

    norm_route tells how the scan ran, decided once by A's parity alone
    (_block_parity): "flip_odd" and "flip_even" evolve A's blocks with
    (D/2)-sized products and differ from the dense value by round-off;
    "dense" evolves A whole.  Each time point writes the site matrix of
    tau_t(A), which E_r needs, from its blocks (_block_matrix).
    """
    na, velocity, envelopes = _locality_envelopes(
        interaction, a, radii, times, mu, velocity, exponent_multiplier)
    context = evolution_context(interaction)
    lat = context.lattice

    aemb = _on_lattice(context, a)
    regions = [ball(lat, a.support, r) for r in radii]
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
        tau = EmbeddedOperator(lat.sites,
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
    c_emp, _, below = _prefactor([m.error for m in rows],
                                 [m.envelope for m in rows], floor)
    return LocalityScanResult(mu, float(velocity), float(exponent_multiplier),
                              rows, c_emp, floor, below, route)

