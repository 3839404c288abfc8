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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .lattice import Interaction, Lattice
from .operators import LocalOperator, embed, single_site, spectral_norm
from .quadrature import gauss_legendre
from .thermal import ThermalState, KMSFunction, canonical_correlator, \
    gibbs_state, kms_function, ordinary_correlator
from .spectral import build_hamiltonian

_ENDPOINT_EPS = 1e-12     # |b| or |b - beta| below this counts as on-contour
_DELTA_B = 1e-6           # offset applied to on-contour heights
_SUBTRACT_CAP = 20.0      # max (beta - b) * Emax for below-strip continuation
_LOG_FLOOR = 1e-15


# ---------------------------------------------------------------------------
# Weight and quadrature
# ---------------------------------------------------------------------------

def weight(z, height: float):
    """Gaussian contour weight w(z) = exp(-z^2 - b^2); w(i b) = 1."""
    z = np.asarray(z, dtype=complex)
    out = np.exp(-z * z - height * height)
    return out if out.ndim else complex(out)


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

    @property
    def defect(self) -> float:
        return abs(self.value - 1.0)


def residue_identity(beta: float, height: float, half_width: float = 10.0,
                     start_nodes: int = 512, max_nodes: int = 16384,
                     tol: float = 1e-13) -> ResidueCheck:
    """Evaluate the combined-kernel residue identity; the exact answer is 1
    for every height b in [0, beta].

    The bottom and top edge are merged over a common denominator,

        (1/2 pi i) int [ w(t) i beta + (w(t) - w(t+i beta)) (t - ib) ]
                       / [ (t - ib)(t + i beta - ib) ]  dt ,

    and integrated by symmetric Gauss-Legendre with the node count doubled
    until two refinements agree.  At b = 0 or b = beta the pole sits on the
    contour; symmetric quadrature then converges to the principal value,
    which is short of the limit from the interior by half a residue, so 1/2
    is added back.
    """
    if not 0.0 <= height <= beta + _ENDPOINT_EPS:
        raise ValueError("height must lie in [0, beta]")
    b = float(height)

    def quad(n: int) -> complex:
        t, wq = _sym_gauss(n, half_width)
        wb = np.exp(-t * t - b * b)
        wtop = np.exp(-(t + 1j * beta) ** 2 - b * b)
        num = wb * (1j * beta) + (wb - wtop) * (t - 1j * b)
        den = (t - 1j * b) * (t + 1j * beta - 1j * b)
        return complex(np.sum(wq * num / den) / (2j * np.pi))

    nodes = start_nodes
    value = quad(nodes)
    while nodes < max_nodes:
        refined = quad(2 * nodes)
        nodes *= 2
        if abs(refined - value) <= tol:
            value = refined
            break
        value = refined

    corrected = min(abs(b), abs(b - beta)) < _ENDPOINT_EPS
    if corrected:
        value += 0.5

    t2 = half_width * half_width
    tail = ((beta + 2 * half_width) / max(t2, 1.0)
            * math.exp(beta * beta - b * b - t2) / math.pi)
    return ResidueCheck(float(beta), b, value, nodes, tail, corrected)


# ---------------------------------------------------------------------------
# Contour decomposition of a thermal correlator
# ---------------------------------------------------------------------------

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


def contour_decomposition(state: ThermalState, a, b, height: float,
                          nodes: int = 1024,
                          half_width: Optional[float] = None) -> ContourDecomposition:
    """Split 2 pi i (F(ib) - phi(A)phi(B)) into commutator and correlator
    contour terms and evaluate each by quadrature.

    The singular factor 1/(z - ib) is handled by subtracting the pole value
    of the smooth numerator and adding its closed form back (erfc of the
    height).  On the top edge that pole value needs F continued below the
    strip, which grows like exp((beta - b) * Emax); the subtraction is
    therefore only applied while that exponent stays small, and the terms
    fall back to plain quadrature otherwise (the pole then sits deep below
    the contour and the integrand is smooth anyway).

    Heights exactly on the contour (b = 0 or b = beta) are nudged inward by
    1e-6 and the offset is recorded in the result.
    """
    beta = state.beta
    if not -_ENDPOINT_EPS <= height <= beta + _ENDPOINT_EPS:
        raise ValueError("height must lie in [0, beta]")
    beff = float(min(max(height, _DELTA_B), beta - _DELTA_B))
    if beta <= 2 * _DELTA_B:
        raise ValueError("beta too small to hold the offset contour")
    offset = abs(beff - height)

    half_width = 8.0 if half_width is None else half_width
    fn = kms_function(state, a, b)
    phi = fn.phi_a * fn.phi_b

    t, wq = _sym_gauss(nodes, half_width)
    f_real = fn.eval_grid(t)
    g_real = fn.conjugate_eval_grid(t)
    comm = f_real - g_real
    corr = f_real - phi

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
                                float(half_width), int(nodes), bool(subtract),
                                term_comm, term_bottom, term_top, direct)


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    kind: str            # "exponential" or "power"
    amplitude: float
    rate: float          # exp: y ~ A exp(-rate x); power: y ~ A x^(-rate)
    length: float        # 1/rate for exponential fits (inf if rate <= 0)
    residual: float      # max |log y - log fit| over the data

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            return self.amplitude * np.exp(-self.rate * x)
        return self.amplitude * x ** (-self.rate)


def fit_decay(xs: Sequence[float], ys: Sequence[float],
              kind: str = "exponential") -> DecayFit:
    """Least-squares fit of log y against x (exponential) or log x (power).

    Values below 1e-15 are floored before taking logs; with data at that
    level the fit is reported but carries little meaning.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.abs(np.asarray(ys, dtype=float)), _LOG_FLOOR)
    if xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need at least two (x, y) samples")
    logy = np.log(ys)
    if kind == "exponential":
        absc = xs
    elif kind == "power":
        if np.any(xs <= 0):
            raise ValueError("power-law fits need positive x")
        absc = np.log(xs)
    else:
        raise ValueError(f"unknown fit kind {kind!r}")
    slope, intercept = np.polyfit(absc, logy, 1)
    resid = float(np.max(np.abs(logy - (slope * absc + intercept))))
    rate = -float(slope)
    length = 1.0 / rate if (kind == "exponential" and rate > 0) else float("inf")
    return DecayFit(kind, float(np.exp(intercept)), rate, length, resid)


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


def theorem_check(interaction: Interaction, beta: float, mu: float,
                  distances: Sequence[float], base_site=None,
                  op_name: str = "Z",
                  state: Optional[ThermalState] = None) -> TheoremCheckResult:
    """Empirical counterpart of the decay-upgrade statement: if ordinary
    correlations fall off like exp(-l/xi), canonical (Duhamel) correlations
    fall off at least like exp(-l/xi') with xi' = max(4 xi, 2/mu).

    Measures both correlators for single-site pairs at the requested
    distances from base_site, fits the ordinary decay, forms the upgraded
    envelope with unit amplitude (the amplitude is absorbed into the
    prefactors), and reports the smallest prefactors that dominate the
    canonical data.  The check fails only when no finite prefactor exists.
    """
    lat = interaction.lattice
    base = base_site if base_site is not None else lat.sites[0]
    if state is None:
        state = gibbs_state(build_hamiltonian(interaction).matrix, beta)
    if state.dim != lat.window_dim(lat.sites):
        raise ValueError("state must be built on the full lattice window")
    if state.beta != beta:
        raise ValueError(f"state is at beta={state.beta!r}, not beta={float(beta)!r}")

    a_loc = single_site(base, op_name)
    na = spectral_norm(a_loc.matrix)
    a_e = state.to_eigenbasis(embed(a_loc, lat))

    rows: List[TheoremRow] = []
    for l in distances:
        partner = _pair_for_distance(lat, base, float(l))
        if partner is None:
            continue
        b_loc = single_site(partner, op_name)
        b_e = state.to_eigenbasis(embed(b_loc, lat))
        o = ordinary_correlator(state, a_e, b_e, basis="energy")
        c = canonical_correlator(state, a_e, b_e, basis="energy")
        rows.append(TheoremRow(float(l), partner, o, c))
    if len(rows) < 2:
        raise ValueError("need at least two realizable distances")

    ls = np.array([r.distance for r in rows])
    ovals = np.array([abs(r.ordinary) for r in rows])
    cvals = np.array([abs(r.canonical) for r in rows])
    nb = na  # same single-site operator on both ends

    ofit = fit_decay(ls, ovals, "exponential")
    cfit = fit_decay(ls, cvals, "exponential")
    xi = ofit.length
    xi_prime = max(4.0 * xi, 2.0 / mu) if np.isfinite(xi) else float("inf")

    # unit-amplitude envelopes; all amplitude lives in the prefactors
    g = np.exp(-ls / xi) if np.isfinite(xi) else np.ones_like(ls)
    g_prime = np.maximum(np.exp(-ls / xi_prime) if np.isfinite(xi_prime)
                         else np.ones_like(ls), np.exp(-0.5 * mu * ls))

    size_min = 1  # single-site supports
    c_ord = float(np.max(ovals / (na * nb * size_min * g)))
    c_pr = float(np.max(cvals / (na * nb * size_min ** 2 * g_prime)))

    return TheoremCheckResult(float(beta), float(mu), base, rows, ofit, cfit,
                              xi, xi_prime, cfit.length, c_ord, c_pr,
                              bool(np.isfinite(c_pr)))
