"""Contour-based verification of thermal correlation structure.

The central object is the strip-contour identity for the weighted Cauchy
kernel: with the Gaussian weight w(z) = exp(-z^2 - b^2), normalized so
w(ib) = 1, and a correlation function analytic on the strip
0 <= Im z <= beta,

    (1/2 pi i) [ integral over the bottom edge - integral over the top edge ]
        of  corr(z) w(z) / (z - ib)  equals  corr(ib).

Rewriting the top edge through the KMS boundary condition splits the
integral into a commutator piece (which inherits the Lieb-Robinson decay
in the distance between the supports) and two correlator pieces.  This
module evaluates the three pieces by quadrature, reconstructs corr(ib),
and compares against the direct spectral value.

A scalar residue identity (corr = 1) exercises the kernel alone and is the
first thing to check when a decomposition misbehaves.

The decay-upgrade check, theorem_check, contracts the one operator A with
thermal's closed forms, in A's blocks (_contraction), and takes its
verdict in one pure function of the measured rows, _judge_upgrade, with
the prefactor rule the scans use (dynamics._prefactor).  The tolerance
gates of the residue identity and the contour decomposition stay with
their callers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .dynamics import _prefactor
from .lattice import Interaction, Lattice, _finite_positive, _is_hermitian
from .operators import (_check_measured, _embed_ordered, _embedded_trace,
                        single_site, spectral_norm)
from .quadrature import _refine_by_doubling, gauss_legendre
from .thermal import _EXP_CAP, ThermalState, KMSFunction, _gibbs_mean, \
    gibbs_state, kms_function
from .spectral import (_block_diagonal, _block_matrix, _block_parity,
                       _matmul, _read_blocks, _rows_read, _sandwich)

_ENDPOINT_EPS = 1e-12     # |b| or |b - beta| below this counts as on-contour
_DELTA_B = 1e-6           # offset applied to on-contour heights
_SUBTRACT_CAP = 20.0      # max (beta - b) * Emax for below-strip continuation
_LOG_FLOOR = 1e-15
_RESIDUE_START = 512      # residue identity: first node count
_RESIDUE_MAX = 16384      # residue identity: last node count
_RESIDUE_TOL = 1e-13      # residue identity: agreement of two refinements


# ---------------------------------------------------------------------------
# Weight and quadrature
# ---------------------------------------------------------------------------

def weight(z, height: float):
    """Gaussian contour weight w(z) = exp(-z^2 - b^2); w(i b) = 1."""
    z = np.asarray(z, dtype=complex)
    out = np.exp(-z * z - height * height)
    return out if out.ndim else complex(out)


def _check_heights(beta: float, heights: Sequence[float]) -> None:
    """Refuse a height b outside [0, beta], exactly: the pole ib would
    leave the strip the identities integrate around.  Refuse too a height
    at which the top edge's weight, of modulus e^{beta^2 - b^2 - t^2},
    would pass e^700 at t = 0 (thermal._EXP_CAP): past it the integrands
    are NaN and the tail bound overflows."""
    if any(not 0.0 <= h <= beta for h in heights):
        raise ValueError("height must lie in [0, beta]")
    for b in heights:
        if beta * beta - b * b > _EXP_CAP:
            raise ValueError(
                f"beta={beta!r} at height {b!r}: the top edge weight "
                f"exp(beta^2 - b^2) = exp({beta * beta - b * b:.6g}) "
                f"exceeds exp({_EXP_CAP:g})")


def _check_contour(beta: float, nodes: int = 1024,
                   half_width: Optional[float] = None,
                   heights: Sequence[float] = ()) -> float:
    """The half width of a contour run, 8 unless given, once the run can
    be computed.  Refused: beta <= 2e-6, where the strip cannot hold the
    contour offset inward from its edges; fewer than 8 nodes, or more
    than the residue identity's ceiling, which would only allocate larger
    node arrays (a count in range can still be too few for the pair: the
    defect shows it); a half width T that is not finite and positive, for
    which the interval [-T, T] of the nodes would be empty, reversed or
    unbounded; and a height outside [0, beta] or past the top edge's
    exponent cap (_check_heights)."""
    if beta <= 2 * _DELTA_B:
        raise ValueError(f"beta must exceed {2 * _DELTA_B:g} to hold the "
                         "contour offset inward from the strip edges")
    if not 8 <= nodes <= _RESIDUE_MAX:
        raise ValueError(f"nodes must lie in [8, {_RESIDUE_MAX}]")
    half_width = 8.0 if half_width is None else half_width
    _finite_positive("half_width", half_width)
    _check_heights(beta, heights)
    return half_width


def _sym_gauss(nodes: int, half_width: float):
    """Gauss-Legendre nodes on [-T, T]; the +/- node pairing is exact so
    principal values cancel at machine precision."""
    x, w = gauss_legendre(nodes)
    return half_width * x, half_width * w


# ---------------------------------------------------------------------------
# Residue identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueCheck:
    beta: float
    height: float
    value: complex
    nodes: int
    tail_bound: float
    endpoint_corrected: bool
    converged: bool           # two refinements agreed before max_nodes

    @property
    def defect(self) -> float:
        return abs(self.value - 1.0)


def residue_identity(beta: float, height: float,
                     half_width: float = 10.0) -> ResidueCheck:
    """Evaluate the combined-kernel residue identity; the exact answer is 1
    for every height b in [0, beta].

    The bottom and top edge are merged over a common denominator,

        (1/2 pi i) int [ w(t) i beta + (w(t) - w(t+i beta)) (t - ib) ]
                       / [ (t - ib)(t + i beta - ib) ]  dt ,

    and integrated by symmetric Gauss-Legendre with the node count doubled
    from 512 until two refinements agree within 1e-13, or 16384 is reached;
    `converged` says which of the two ended the refinement.
    At b = 0 or b = beta the pole sits on the contour; symmetric quadrature
    then converges to the principal value, which is short of the limit from
    the interior by half a residue, so 1/2 is added back.  beta must be
    finite and positive: at beta = 0 the integrand vanishes and the
    refinements agree on a wrong answer.  So must half_width, the height
    must lie in [0, beta], and beta^2 - b^2 must not exceed 700
    (_check_heights).
    """
    _finite_positive("beta", beta)
    _finite_positive("half_width", half_width)
    _check_heights(beta, [height])
    b = float(height)

    def quad(n: int) -> complex:
        t, wq = _sym_gauss(n, half_width)
        wb = np.exp(-t * t - b * b)
        wtop = np.exp(-(t + 1j * beta) ** 2 - b * b)
        num = wb * (1j * beta) + (wb - wtop) * (t - 1j * b)
        den = (t - 1j * b) * (t + 1j * beta - 1j * b)
        return complex(np.sum(wq * num / den) / (2j * np.pi))

    value, nodes, converged, _ = _refine_by_doubling(
        quad, _RESIDUE_START, _RESIDUE_MAX, _RESIDUE_TOL)

    corrected = min(abs(b), abs(b - beta)) < _ENDPOINT_EPS
    if corrected:
        value += 0.5

    t2 = half_width * half_width
    tail = ((beta + 2 * half_width) / max(t2, 1.0)
            * math.exp(beta * beta - b * b - t2) / math.pi)
    return ResidueCheck(float(beta), b, value, nodes, tail, corrected,
                        converged)


# ---------------------------------------------------------------------------
# Contour decomposition of a thermal correlator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourGrid:
    """Everything in a contour decomposition that does not depend on the
    height: the KMS function of the pair, its disconnected part phi(A)phi(B),
    the symmetric quadrature nodes and weights on [-T, T], and F and G
    evaluated there.
    """

    fn: KMSFunction
    phi: complex              # phi(A) phi(B)
    half_width: float
    t: np.ndarray             # quadrature nodes on the real axis
    wq: np.ndarray            # quadrature weights
    f_real: np.ndarray        # F(t)
    g_real: np.ndarray        # G(t)

    @property
    def nodes(self) -> int:
        return self.t.size


def contour_grid(state: ThermalState, a, b, nodes: int = 1024,
                 half_width: Optional[float] = None) -> ContourGrid:
    """The height-independent part of contour_decomposition for the pair
    (A, B) in a site-basis state: the pair's blocks are read once
    (thermal.kms_function, which takes A and B as LocalOperators on the
    lattice of state's decomposition, EmbeddedOperators or arrays), and F
    and G are evaluated once on `nodes` symmetric Gauss-Legendre nodes on
    [-T, T], with T = 8 unless half_width is given; each node pair +-t
    costs one |t|.

    Refuses a run that _check_contour refuses.
    """
    half_width = _check_contour(state.beta, nodes, half_width)
    fn = kms_function(state, a, b)
    t, wq = _sym_gauss(nodes, half_width)
    return ContourGrid(fn, fn.phi_a * fn.phi_b, float(half_width), t, wq,
                       fn.eval_grid(t), fn.conjugate_eval_grid(t))


@dataclass(frozen=True)
class ContourDecomposition:
    beta: float
    height: float             # requested b
    effective_height: float   # after any endpoint offset
    offset: float
    half_width: float
    nodes: int
    subtracted: bool          # pole values removed from the top-edge terms
    term_commutator: complex  # top edge against F - G
    term_bottom: complex      # bottom edge against F - phi(A)phi(B)
    term_top: complex         # minus the top edge against F - phi(A)phi(B)
    direct: complex           # 2 pi i (F(ib) - phi(A) phi(B))

    @property
    def reconstruction(self) -> complex:
        return self.term_commutator + self.term_bottom + self.term_top

    @property
    def defect(self) -> float:
        return abs(self.reconstruction - self.direct)


def contour_decomposition(grid: ContourGrid,
                          height: float) -> ContourDecomposition:
    """Split 2 pi i (F(ib) - phi(A)phi(B)) into commutator and correlator
    contour terms and evaluate each by quadrature.

    The grid (contour_grid) holds what does not depend on the height; this
    function adds the two edge kernels, the point values of F and G at and
    below ib, and the pole subtraction.

    The singular factor 1/(z - ib) is handled by subtracting the pole value
    of the smooth numerator and adding its closed form back (erfc of the
    height).  On the top edge that pole value needs F continued below the
    strip, which grows like exp((beta - b) * Emax); the subtraction is
    therefore only applied while that exponent stays small, and the terms
    fall back to plain quadrature otherwise (the pole then sits deep below
    the contour and the integrand is smooth anyway).

    The height must lie in [0, beta], and beta^2 - b^2 must not exceed
    700 (_check_heights), as in residue_identity.  Heights exactly on the
    contour (b = 0 or b = beta) are nudged inward by 1e-6 and the offset
    is recorded in the result.
    """
    fn, phi, t, wq = grid.fn, grid.phi, grid.t, grid.wq
    state = fn.state
    beta = state.beta
    _check_heights(beta, [height])
    beff = float(min(max(height, _DELTA_B), beta - _DELTA_B))
    offset = abs(beff - height)

    comm = grid.f_real - grid.g_real
    corr = grid.f_real - phi

    kb = weight(t, beff) / (t - 1j * beff)
    kt = weight(t + 1j * beta, beff) / (t + 1j * (beta - beff))

    # bottom edge: pole value F(ib) - phi is always reachable in-strip
    c_bottom = fn.eval(1j * beff) - phi
    term_bottom = complex(np.sum(wq * (corr - c_bottom) * kb)
                          + c_bottom * 1j * math.pi * math.erfc(beff))
    direct = 2j * math.pi * c_bottom

    # top edge: pole values need F continued below the strip; plain
    # quadrature is the same formula with them and their closed form at zero
    emax = float(state.energies[-1])
    subtract = (beta - beff) * emax <= _SUBTRACT_CAP
    c_comm = c_top = closed_top = 0.0
    if subtract:
        below = fn.eval(1j * (beff - beta))
        c_comm = below - fn.conjugate_eval(1j * (beff - beta))
        c_top = below - phi
        closed_top = -1j * math.pi * math.erfc(-beff)
    term_comm = complex(np.sum(wq * (comm - c_comm) * kt) + c_comm * closed_top)
    term_top = complex(-(np.sum(wq * (corr - c_top) * kt) + c_top * closed_top))

    return ContourDecomposition(beta, float(height), beff, float(offset),
                                grid.half_width, grid.nodes, bool(subtract),
                                term_comm, term_bottom, term_top, direct)


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    amplitude: float
    rate: float          # y ~ amplitude exp(-rate x)
    length: float        # 1/rate (inf if rate <= 0)
    residual: float      # max |log y - log fit| over the data


def fit_decay(xs: Sequence[float], ys: Sequence[float]) -> DecayFit:
    """Least-squares fit of log y against x.

    Values below 1e-15 are floored before taking logs; with data at that
    level the fit is reported but carries little meaning.  Every sample
    must be finite, and so must the fitted amplitude: a steep decay at
    large x extrapolates to x = 0 past the largest float, and is refused.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need at least two (x, y) samples")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("samples must be finite")
    ys = np.maximum(np.abs(ys), _LOG_FLOOR)
    logy = np.log(ys)
    slope, intercept = np.polyfit(xs, logy, 1)
    resid = float(np.max(np.abs(logy - (slope * xs + intercept))))
    rate = -float(slope)
    length = 1.0 / rate if rate > 0 else float("inf")
    with np.errstate(over="ignore"):  # refused below
        amplitude = float(np.exp(intercept))
    if not np.isfinite(amplitude):
        raise ValueError(f"the fitted amplitude exp({float(intercept)!r}) "
                         "overflows")
    return DecayFit(amplitude, rate, length, resid)


# ---------------------------------------------------------------------------
# Correlation-decay upgrade check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremRow:
    distance: float
    site: object
    ordinary: complex
    canonical: complex


@dataclass(frozen=True)
class TheoremCheckResult:
    beta: float
    mu: float
    base_site: object
    rows: List[TheoremRow]
    ordinary_fit: DecayFit
    canonical_fit: DecayFit
    xi: float                 # ordinary decay length
    xi_prime: float           # upgraded length max(4 xi, 2/mu)
    xi_prime_empirical: float # canonical decay length, from the fit
    c_ordinary: float
    c_prime: float            # canonical prefactor, min(|X|,|Y|)^2 weighting
    passed: bool


def _pair_for_distance(lat: Lattice, base, distance: float):
    for s in lat.sites:
        if s != base and abs(lat.distance(base, s) - distance) < 1e-9:
            return s
    return None


def _partners(lat: Lattice, base, distances: Sequence[float]) -> list:
    """(distance, site) for each distance that some site realizes from base.

    Refuses fewer than two such distances, which leave nothing to fit, and
    two distances that select one site, equal or within the 1e-9 match of
    _pair_for_distance: that site's row would count twice in both fits.
    """
    chosen: dict = {}
    for l in map(float, distances):
        site = _pair_for_distance(lat, base, l)
        if site in chosen:
            raise ValueError(f"distances must not repeat: {chosen[site]!r} "
                             f"and {l!r} both select site {site!r}")
        if site is not None:
            chosen[site] = l
    if len(chosen) < 2:
        raise ValueError("need at least two realizable distances")
    return [(l, site) for site, l in chosen.items()]


def _contraction(state: ThermalState, a, lat: Lattice):
    """(M, rho, phi(A)) for theorem_check, M = V (W o Abar) V* and
    rho = V diag(p) V* in the site basis (W the Duhamel weights), or only
    their diagonals when A, and so each partner, is diagonal.  A is read
    in the blocks of its local matrix's parity (spectral._block_parity,
    spectral._read_blocks) into bases U_l, from the top D/2 rows of its
    embedding, which are all the blocks read (all D rows when it is read
    whole); W is built on those blocks alone
    (ThermalState._kernel_blocks), and M and rho, which is even, are
    written back from U_l (W o A)_lr U_r* and U_l diag(p_l) U_l*."""
    op, dim = a.matrix, state.dim
    parity = _block_parity(state.decomposition, op)
    diagonal = np.count_nonzero(op) == np.count_nonzero(np.diagonal(op))
    rows = _embed_ordered(op, a.support, lat, _rows_read(dim, parity))
    bases, blocks = _read_blocks(state.decomposition, rows, parity,
                                 state.energies, state.weights,
                                 hermitian=_is_hermitian(op))
    del rows  # the site-basis rows are not needed past the read
    phi_a, m_blocks = 0.0, []
    kernels = state._kernel_blocks([e for _, _, e, _ in bases], blocks)
    for l, r, abar in blocks:
        (u_l, _, _, p_l), (u_r, *_) = bases[l], bases[r]
        if l == r:
            phi_a += _gibbs_mean(p_l, abar)
        abar *= kernels.pop((l, r))  # W o A in place
        if diagonal:  # rowsum(U_l (W o A) o conj(U_r))
            n = np.einsum("ij,ij->i", _matmul(u_l, abar), u_r.conj())
        else:
            n = _sandwich(u_l, abar, u_r.conj().T)
        m_blocks.append((l, r, n))
    del blocks
    # rho is even: a block U_s diag(p_s) U_s* per basis
    rho = [(s, s, np.einsum("im,m,im->i", u, p, u.conj()) if diagonal
            else (u * p) @ u.conj().T) for s, (u, _, _, p) in enumerate(bases)]
    write = _block_diagonal if diagonal else _block_matrix
    return write(m_blocks, parity), write(rho, abs(parity)), phi_a


def _judge_upgrade(distances, ordinary, canonical, mu: float,
                   norm_sq: float) -> dict:
    """The verdict of theorem_check on plain arrays: the fit fields of
    TheoremCheckResult and `passed`, from the distances l, the ordinary
    and canonical correlators (complex or their moduli), mu and the
    ||A|| ||B|| of the pair.

    Both envelopes have unit amplitude, g = e^{-l/xi} with xi the ordinary
    fit's length and g' = e^{-l/xi'} with xi' = max(4 xi, 2/mu); since
    xi' >= 2/mu, g' is never below e^{-mu l/2}, and an infinite length
    gives e^{-l/inf} = 1.  All amplitude lives in the prefactors, each the
    smallest c with |corr| <= c ||A|| ||B|| g on every row
    (dynamics._prefactor).  The check fails only when no finite canonical
    prefactor exists.
    """
    ls = np.asarray(distances, dtype=float)
    ovals, cvals = np.abs(ordinary), np.abs(canonical)
    ofit, cfit = fit_decay(ls, ovals), fit_decay(ls, cvals)
    xi_prime = max(4.0 * ofit.length, 2.0 / mu)
    c_ord = _prefactor(ovals, norm_sq * np.exp(-ls / ofit.length), 0.0)[0]
    c_pr = _prefactor(cvals, norm_sq * np.exp(-ls / xi_prime), 0.0)[0]
    return dict(ordinary_fit=ofit, canonical_fit=cfit, xi=ofit.length,
                xi_prime=xi_prime, xi_prime_empirical=cfit.length,
                c_ordinary=c_ord, c_prime=c_pr, passed=bool(np.isfinite(c_pr)))


def theorem_check(interaction: Interaction, beta: float, mu: float,
                  distances: Sequence[float], base_site=None,
                  op_name: str = "Z") -> TheoremCheckResult:
    """Empirical counterpart of the decay-upgrade statement: if ordinary
    correlations fall off like exp(-l/xi), canonical (Duhamel) correlations
    fall off at least like exp(-l/xi') with xi' = max(4 xi, 2/mu).

    Measures both correlators for single-site pairs at the requested
    distances from base_site, fits the ordinary decay, forms the upgraded
    envelope with unit amplitude (the amplitude is absorbed into the
    prefactors), and reports the smallest prefactors that dominate the
    canonical data.  The verdict is _judge_upgrade's, on the rows alone:
    the check fails only when no finite prefactor exists.

    Both correlators are thermal's closed forms, contracted once for all
    partners.  With W the Duhamel weights and A, B in the energy basis,
    sum_mn W_mn A_mn B_nm = tr(M B) in the site basis, M = V (W o A) V*;
    likewise phi(AB) = tr(rho AB).  M and rho are built once from the one
    transformed A (_contraction), and each partner reads only the entries
    of M and rho that its embedding meets.

    beta and mu must be finite and positive (at beta = 0 every connected
    row is round-off, with nothing to fit), op_name must not name a
    multiple of the identity (operators._check_measured), and no two
    distances may select the same partner site: its row would count twice
    in both fits.
    """
    _finite_positive("mu", mu)
    _finite_positive("beta", beta)
    lat = interaction.lattice
    base = base_site if base_site is not None else lat.sites[0]
    a_loc = single_site(base, op_name)
    _check_measured("op", a_loc.matrix)
    pairs = _partners(lat, base, distances)
    state = gibbs_state(interaction, beta)

    op = a_loc.matrix
    na = spectral_norm(op)
    m, rho, phi_a = _contraction(state, a_loc, lat)

    pair_op = np.kron(op, op)
    rows: List[TheoremRow] = []
    for l, partner in pairs:
        disconnected = phi_a * _embedded_trace(rho, op, (partner,), lat)
        o = _embedded_trace(rho, pair_op, (base, partner), lat)
        c = _embedded_trace(m, op, (partner,), lat)
        rows.append(TheoremRow(l, partner, complex(o - disconnected),
                               complex(c - disconnected)))

    # the same single-site operator on both ends: ||A|| ||B|| = na^2, and
    # min(|X|, |Y|) = 1
    ls, ordinary, canonical = zip(*[
        (r.distance, abs(r.ordinary), abs(r.canonical)) for r in rows])
    judged = _judge_upgrade(ls, ordinary, canonical, mu, na * na)
    return TheoremCheckResult(float(beta), float(mu), base, rows, **judged)
