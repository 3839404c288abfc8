"""Heisenberg dynamics on a finite window.

The evolution tau_t(A) = exp(iHt) A exp(-iHt) is applied in the energy
eigenbasis (diagonal phases, two dense products to come back), so a scan
over a time grid reuses one diagonalization.  On top of that sit the
commutator scans against an exponential light-cone envelope and the local
approximants obtained by conditional expectation onto a ball around the
support of A.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from .lattice import Interaction, Lattice, Site, ball, certify_locality, shell_count
from .operators import (EmbeddedOperator, LocalOperator, commutator,
                        conditional_expectation, embed, spectral_norm)
from .spectral import SpectralDecomposition, build_hamiltonian, eig_hermitian
from .thermal import _EXP_CAP

_TINY = 1e-12


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

@dataclass
class EvolutionContext:
    """One diagonalized window, shared by every evolution on it."""

    lattice: Lattice
    window: tuple
    hamiltonian: EmbeddedOperator
    decomposition: SpectralDecomposition


def evolution_context(source: Union[Interaction, EmbeddedOperator],
                      window: Optional[Iterable[Site]] = None,
                      lattice: Optional[Lattice] = None) -> EvolutionContext:
    if isinstance(source, Interaction):
        ham = build_hamiltonian(source, window)
        lat = source.lattice
    else:
        if lattice is None:
            raise ValueError("a bare Hamiltonian needs an explicit lattice")
        ham, lat = source, lattice
    return EvolutionContext(lat, tuple(ham.window), ham,
                            eig_hermitian(ham.matrix))


def _evolve_energy(dec: SpectralDecomposition, a_energy: np.ndarray,
                   z: complex) -> np.ndarray:
    """Site-basis matrix of tau_z(A) given A already in the eigenbasis."""
    e = dec.eigenvalues
    u = np.exp(1j * z * e)
    uinv = np.exp(-1j * z * e)
    v = dec.eigenvectors
    return v @ ((u[:, None] * uinv[None, :]) * a_energy) @ v.conj().T


def evolve(context: EvolutionContext, op, time,
           allow_complex: bool = False) -> EmbeddedOperator:
    """tau_time(op) on the context window.

    Real times always work.  Complex times are opt-in (allow_complex=True)
    and are refused when exp(|Im z| max|E|) would overflow.
    """
    z = complex(time)
    if z.imag != 0.0 and not allow_complex:
        raise ValueError("complex evolution time requires allow_complex=True")
    e = context.decomposition.eigenvalues
    if abs(z.imag) * max(abs(float(e[0])), abs(float(e[-1]))) > _EXP_CAP:
        raise FloatingPointError("imaginary time too large for this spectrum")
    a = op if isinstance(op, EmbeddedOperator) else embed(op, context.lattice,
                                                          context.window)
    if tuple(a.window) != context.window:
        raise ValueError("operator window does not match the context window")
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

    def violations(self, prefactor: Optional[float] = None) -> int:
        c = self.c_empirical if prefactor is None else prefactor
        bad = 0
        for m in self.measurements:
            if m.envelope == 0.0:
                # nothing can cover a nonzero commutator here
                if m.commutator_norm > _TINY:
                    bad += 1
            elif m.commutator_norm > c * m.envelope * (1 + 1e-9) + _TINY:
                bad += 1
        return bad


def _empirical_prefactor(pairs) -> float:
    """Smallest c with lhs <= c * envelope on every row; inf when some row
    has zero envelope but a genuinely nonzero lhs."""
    best = 0.0
    for lhs, env in pairs:
        if env > 0.0 and np.isfinite(env):
            best = max(best, lhs / env)
        elif env == 0.0 and lhs > _TINY:
            return float("inf")
    return best


def lr_commutator_scan(interaction: Interaction, a, b,
                       times: Sequence[float], mu: float,
                       velocity: Optional[float] = None,
                       window: Optional[Iterable[Site]] = None,
                       context: Optional[EvolutionContext] = None) -> LRScanResult:
    """Measure ||[B, tau_t(A)]|| on a time grid against the light-cone
    envelope at decay rate mu.

    The velocity defaults to the one certified from the interaction at the
    same mu.  The returned c_empirical is the smallest prefactor that makes
    the envelope an upper bound for the whole scan.
    """
    if context is None:
        context = evolution_context(interaction, window)
    lat = context.lattice
    if velocity is None:
        velocity = certify_locality(interaction, mu).velocity

    a_loc = a if isinstance(a, LocalOperator) else None
    aemb = embed(a, lat, context.window) if a_loc is not None else a
    bemb = embed(b, lat, context.window) if isinstance(b, LocalOperator) else b
    xs, ys = aemb.support, bemb.support
    dist = min(lat.distance(x, y) for x in xs for y in ys)
    na = spectral_norm(aemb.matrix if a_loc is None else a_loc.matrix)
    nb = spectral_norm(b.matrix)
    size = min(len(xs), len(ys))

    abar = context.decomposition.transform(aemb.matrix)
    rows = []
    for t in times:
        t = float(t)
        tau = _evolve_energy(context.decomposition, abar, t)
        lhs = spectral_norm(bemb.matrix @ tau - tau @ bemb.matrix)
        env = na * nb * size * np.exp(-mu * dist) * np.expm1(velocity * abs(t))
        rows.append(LRMeasurement(t, dist, float(lhs), float(env)))
    c_emp = _empirical_prefactor((m.commutator_norm, m.envelope) for m in rows)
    return LRScanResult(mu, float(velocity), float(dist), rows, c_emp)


# ---------------------------------------------------------------------------
# Local approximants
# ---------------------------------------------------------------------------

def _ball_in_window(lat: Lattice, xs, radius, window) -> tuple:
    inside = set(window)
    return tuple(s for s in ball(lat, xs, radius) if s in inside)


def local_approximant(context: EvolutionContext, a, time: float,
                      radius: float) -> EmbeddedOperator:
    """Conditional expectation of tau_t(A) onto the ball of the given radius
    around the original support of A."""
    xs = a.support
    tau = evolve(context, a, time)
    region = _ball_in_window(context.lattice, xs, radius, context.window)
    return conditional_expectation(tau, region, context.lattice)


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

    def max_error_by_radius(self) -> dict:
        out: dict = {}
        for m in self.measurements:
            out[m.radius] = max(out.get(m.radius, 0.0), m.error)
        return out


def locality_scan(interaction: Interaction, a, radii: Sequence[float],
                  times: Sequence[float], mu: float,
                  velocity: Optional[float] = None,
                  exponent_multiplier: float = 1.0,
                  window: Optional[Iterable[Site]] = None,
                  context: Optional[EvolutionContext] = None) -> LocalityScanResult:
    """Approximation error of the ball-projected evolution over a grid of
    radii and times, against the bare envelope exp(-mu * multiplier * r)."""
    if context is None:
        context = evolution_context(interaction, window)
    lat = context.lattice
    if velocity is None:
        velocity = certify_locality(interaction, mu).velocity

    aemb = embed(a, lat, context.window) if isinstance(a, LocalOperator) else a
    xs = a.support
    na = spectral_norm(a.matrix)
    abar = context.decomposition.transform(aemb.matrix)

    rows = []
    for t in times:
        t = float(t)
        tau_mat = _evolve_energy(context.decomposition, abar, t)
        tau = EmbeddedOperator(context.window, context.window, tau_mat)
        for r in radii:
            region = _ball_in_window(lat, xs, r, context.window)
            approx = conditional_expectation(tau, region, lat)
            err = spectral_norm(tau_mat - approx.matrix)
            env = na * np.exp(-mu * exponent_multiplier * float(r)) \
                * np.expm1(velocity * abs(t))
            rows.append(LocalityMeasurement(float(r), t, float(err), float(env)))
    c_emp = _empirical_prefactor((m.error, m.envelope) for m in rows)
    return LocalityScanResult(mu, float(velocity), float(exponent_multiplier),
                              rows, c_emp)


# ---------------------------------------------------------------------------
# Derivatives of the approximant
# ---------------------------------------------------------------------------

def approximant_derivative(context: EvolutionContext, a, radius: float,
                           time: float) -> EmbeddedOperator:
    """Exact d/dt of the local approximant.

    The projection commutes with d/dt, and d/dt tau_t(A) = i tau_t([H, A])
    = i [H, tau_t(A)], so this is i times the projected commutator.
    """
    tau = evolve(context, a, time)
    comm = commutator(context.hamiltonian, tau)
    region = _ball_in_window(context.lattice, a.support, radius, context.window)
    proj = conditional_expectation(comm, region, context.lattice)
    return EmbeddedOperator(proj.window, proj.support, 1j * proj.matrix)


def approximant_derivative_fd(context: EvolutionContext, a, radius: float,
                              time: float, step: float = 1e-5) -> EmbeddedOperator:
    """Symmetric-difference version of approximant_derivative, kept as an
    independent route for cross-checks."""
    plus = local_approximant(context, a, time + step, radius)
    minus = local_approximant(context, a, time - step, radius)
    mat = (plus.matrix - minus.matrix) / (2.0 * step)
    return EmbeddedOperator(plus.window, plus.support, mat)


def commutator_derivative_bound(lattice: Lattice, ys, mu: float,
                                velocity: float, a_norm: float = 1.0,
                                b_norm: float = 1.0,
                                epsilon: float = 0.2) -> float:
    """A priori bound on |d/dt ||[B, tau_t(A)]|| | used to sanity-check scan
    grid resolution:

        v ||A|| ||B|| ( |Y| + (e^{v eps} - 1) sum_{r>=1} e^{-mu r} D(r) )

    with D(r) the number of sites in the half-open shell (r-1, r] around the
    support Y of B, and eps a short burn-in time.
    """
    ys = tuple(ys)
    dists = [lattice.distance(z, y) for z in lattice.sites for y in ys]
    rmax = int(np.ceil(max(dists))) if dists else 0
    shells = sum(np.exp(-mu * r) * shell_count(lattice, ys, float(r))
                 for r in range(1, rmax + 1))
    return float(velocity * a_norm * b_norm
                 * (len(ys) + np.expm1(velocity * epsilon) * shells))
