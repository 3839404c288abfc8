"""Finite metric lattices, interaction families, and locality certificates.

A lattice is a finite set of sites with a metric and a local Hilbert-space
dimension per site.  An interaction assigns a Hermitian matrix to each member
of a finite family of site subsets.  Two kinds of certificates are computed
here: polynomial growth of metric balls, and the weighted interaction sum
that yields a propagation velocity for Lieb-Robinson bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Site = object  # hashable site label: int on chains, (row, col) on grids

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_METRIC_TOL = 1e-9
_HERM_TOL = 1e-12


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """Finite site set with a metric and per-site local dimensions.

    Parameters
    ----------
    sites : tuple
        Site labels in canonical order.  Tensor factors of embedded
        operators follow this order, first site slowest-varying.
    distances : ndarray
        Symmetric matrix of pairwise distances in site order.
    local_dims : tuple of int
        Local Hilbert-space dimension per site.
    """

    sites: Tuple[Site, ...]
    distances: np.ndarray
    local_dims: Tuple[int, ...]
    _index: Dict[Site, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.sites)
        d = np.asarray(self.distances, dtype=float)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} does not match {n} sites")
        if len(self.local_dims) != n:
            raise ValueError("one local dimension required per site")
        if any(int(k) < 2 for k in self.local_dims):
            raise ValueError("local dimensions must be >= 2")
        if not np.allclose(d, d.T, atol=_METRIC_TOL):
            raise ValueError("metric must be symmetric")
        if not np.allclose(np.diag(d), 0.0, atol=_METRIC_TOL):
            raise ValueError("metric must vanish on the diagonal")
        off = d + np.diag(np.full(n, np.inf))
        if np.any(off <= _METRIC_TOL):
            raise ValueError("distinct sites must have positive distance")
        # triangle inequality: d(i,j) <= d(i,k) + d(k,j) for all k
        through = np.min(d[:, None, :] + d.T[None, :, :], axis=2)
        if np.any(d > through + _METRIC_TOL):
            raise ValueError("metric violates the triangle inequality")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.sites)})
        if len(self._index) != n:
            raise ValueError("site labels must be unique")

    def __len__(self) -> int:
        return len(self.sites)

    def index(self, site: Site) -> int:
        try:
            return self._index[site]
        except KeyError:
            raise KeyError(f"site {site!r} is not on the lattice") from None

    def distance(self, x: Site, y: Site) -> float:
        return float(self.distances[self.index(x), self.index(y)])

    def set_distance(self, xs: Iterable[Site], ys: Iterable[Site]) -> float:
        """d(X, Y) = min over pairs; inf for an empty set."""
        xi = [self.index(x) for x in xs]
        yi = [self.index(y) for y in ys]
        if not xi or not yi:
            return float("inf")
        return float(self.distances[np.ix_(xi, yi)].min())

    def diameter(self, xs: Iterable[Site]) -> float:
        xi = [self.index(x) for x in xs]
        if not xi:
            return 0.0
        return float(self.distances[np.ix_(xi, xi)].max())

    def sort_sites(self, xs: Iterable[Site]) -> Tuple[Site, ...]:
        """Sites in canonical lattice order."""
        xi = sorted({self.index(x) for x in xs})
        return tuple(self.sites[i] for i in xi)

    def window_dim(self, xs: Iterable[Site]) -> int:
        dim = 1
        for x in xs:
            dim *= self.local_dims[self.index(x)]
        return dim


def chain_lattice(n: int, spacing: float = 1.0, local_dim: int = 2) -> Lattice:
    """Open chain of n sites labelled 0..n-1 with |i-j|*spacing metric."""
    if n < 1:
        raise ValueError("chain needs at least one site")
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]) * float(spacing)
    return Lattice(tuple(range(n)), d, (local_dim,) * n)


def grid_lattice(nx: int, ny: int, local_dim: int = 2) -> Lattice:
    """nx-by-ny grid with Manhattan metric, sites (row, col) row-major."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs positive extents")
    sites = tuple((i, j) for i in range(nx) for j in range(ny))
    coords = np.array(sites, dtype=float)
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    return Lattice(sites, d, (local_dim,) * len(sites))


def _as_site_set(lattice: Lattice, xs) -> Tuple[Site, ...]:
    if isinstance(xs, (list, tuple, set, frozenset)):
        sites = tuple(xs)
    else:
        sites = (xs,)
    if not sites:
        raise ValueError("site set must be nonempty")
    return lattice.sort_sites(sites)


def ball(lattice: Lattice, xs, radius: float) -> Tuple[Site, ...]:
    """B_r(X) = {y : d(y, X) < r} together with X itself (strict inequality)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    base = _as_site_set(lattice, xs)
    xi = [lattice.index(x) for x in base]
    dmin = lattice.distances[:, xi].min(axis=1)
    inside = set(np.nonzero(dmin < radius)[0]) | set(xi)
    return tuple(lattice.sites[i] for i in sorted(inside))


def shell_count(lattice: Lattice, ys, radius: float) -> int:
    """|{z : d(z, Y) in (r-1, r]}| for integer shell index r >= 1."""
    if radius < 1:
        raise ValueError("shell index must be >= 1")
    base = _as_site_set(lattice, ys)
    yi = [lattice.index(y) for y in base]
    dmin = lattice.distances[:, yi].min(axis=1)
    return int(np.count_nonzero((dmin > radius - 1) & (dmin <= radius)))


# ---------------------------------------------------------------------------
# growth certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthCertificate:
    """Witnessed bound |B_r(X)| <= C |X| (1+r)^D over the tested pairs."""

    dimension: float
    constant: float
    witnesses: Tuple[Tuple[Tuple[Site, ...], float, int, float], ...]
    # rows: (site set, radius, ball size, bound value C*|X|*(1+r)^D)

    def holds(self) -> bool:
        return all(size <= bound + _METRIC_TOL for (_, _, size, bound) in self.witnesses)


def certify_growth(lattice: Lattice, dimension: float,
                   witness_sets: Sequence, radii: Sequence[float]) -> GrowthCertificate:
    """Smallest C with |B_r(X)| <= C |X| (1+r)^dimension on the witnesses.

    The certificate covers exactly the supplied (X, r) pairs; the reported
    constant is the max of the per-pair ratios.
    """
    if dimension <= 0:
        raise ValueError("growth dimension must be positive")
    if not witness_sets or not len(radii):
        raise ValueError("need at least one witness set and one radius")
    pairs = []
    c = 0.0
    for xs in witness_sets:
        base = _as_site_set(lattice, xs)
        for r in radii:
            if r < 0:
                raise ValueError("radii must be nonnegative")
            size = len(ball(lattice, base, r))
            c = max(c, size / (len(base) * (1.0 + r) ** dimension))
            pairs.append((base, float(r), size))
    rows = tuple((xs, r, size, c * len(xs) * (1.0 + r) ** dimension)
                 for (xs, r, size) in pairs)
    return GrowthCertificate(float(dimension), c, rows)


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interaction:
    """Finite family of Hermitian terms keyed by their support.

    Parameters
    ----------
    lattice : Lattice
    terms : dict
        Maps sorted site tuples to Hermitian matrices whose dimension is the
        product of the local dimensions on the support.
    name : str
    """

    lattice: Lattice
    terms: Dict[Tuple[Site, ...], np.ndarray]
    name: str = "custom"
    term_norms: Dict[Tuple[Site, ...], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clean = {}
        norms = {}
        for support, m in self.terms.items():
            sup = self.lattice.sort_sites(support)
            if len(sup) != len(tuple(support)):
                raise ValueError(f"duplicate sites in support {support!r}")
            m = np.asarray(m, dtype=complex)
            dim = self.lattice.window_dim(sup)
            if m.shape != (dim, dim):
                raise ValueError(
                    f"term on {sup!r} has shape {m.shape}, expected {(dim, dim)}")
            scale = max(1.0, float(np.abs(m).max()))
            if np.abs(m - m.conj().T).max() > _HERM_TOL * scale:
                raise ValueError(f"term on {sup!r} is not Hermitian")
            if sup in clean:
                raise ValueError(f"two terms share the support {sup!r}")
            clean[sup] = m
            norms[sup] = float(np.abs(np.linalg.eigvalsh(m)).max())
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "term_norms", norms)

    @property
    def max_range(self) -> float:
        if not self.terms:
            return 0.0
        return max(self.lattice.diameter(sup) for sup in self.terms)


def interaction_to_canonical(interaction: Interaction) -> List[Tuple[Tuple[Site, ...], List[float]]]:
    """Canonical serialization: (sorted support, row-major re/im pairs)."""
    out = []
    for sup in sorted(interaction.terms, key=lambda s: tuple(interaction.lattice.index(x) for x in s)):
        m = np.ascontiguousarray(interaction.terms[sup])
        flat = np.empty(2 * m.size)
        flat[0::2] = m.real.ravel()
        flat[1::2] = m.imag.ravel()
        out.append((sup, flat.tolist()))
    return out


# ---------------------------------------------------------------------------
# locality certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalityCertificate:
    """Certified decay rate mu and velocity v for an interaction.

    For every site x the weighted sum
        S(x) = sum over terms Z containing x of ||Phi(Z)|| |Z| e^{mu diam(Z)}
    is finite; the certificate stores v = 2 * max_x S(x), so that S(x) <= v/2
    holds on every site.
    """

    mu: float
    velocity: float
    site_sums: Dict[Site, float]
    interaction_name: str = "custom"

    def holds(self) -> bool:
        return all(s <= self.velocity / 2 + 1e-12 for s in self.site_sums.values())


def certify_locality(interaction: Interaction, mu: float) -> LocalityCertificate:
    """Per-site weighted sums and the resulting velocity v = 2 max S(x)."""
    if mu <= 0:
        raise ValueError("decay rate mu must be positive")
    lat = interaction.lattice
    sums = {site: 0.0 for site in lat.sites}
    for sup, norm in interaction.term_norms.items():
        weight = norm * len(sup) * float(np.exp(mu * lat.diameter(sup)))
        for site in sup:
            sums[site] += weight
    if not interaction.terms:
        raise ValueError("cannot certify an empty interaction")
    v = 2.0 * max(sums.values())
    return LocalityCertificate(float(mu), v, sums, interaction.name)


def locality_sweep(interaction: Interaction, mu_grid: Sequence[float]) -> List[LocalityCertificate]:
    """Certificates along a mu grid; velocity grows with mu (trade-off table)."""
    return [certify_locality(interaction, mu) for mu in mu_grid]


# ---------------------------------------------------------------------------
# builtin models
# ---------------------------------------------------------------------------

def nearest_neighbor_pairs(lattice: Lattice) -> List[Tuple[Site, Site]]:
    """Site pairs at the minimal positive distance, in canonical order."""
    n = len(lattice)
    if n < 2:
        return []
    d = lattice.distances
    off = d + np.diag(np.full(n, np.inf))
    dmin = off.min()
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - dmin) <= _METRIC_TOL:
                pairs.append((lattice.sites[i], lattice.sites[j]))
    return pairs


def _require_qubits(lattice: Lattice, name: str):
    if any(k != 2 for k in lattice.local_dims):
        raise ValueError(f"model {name!r} is defined for qubit lattices only")


def transverse_field_ising(lattice: Lattice, J: float = 1.0, h: float = 1.0) -> Interaction:
    """H = -J sum Z_i Z_j over nearest neighbors - h sum X_i.

    Terms with zero coupling are omitted from the family.
    """
    _require_qubits(lattice, "transverse_field_ising")
    terms = {}
    if J != 0.0:
        zz = np.kron(PAULI_Z, PAULI_Z)
        for (a, b) in nearest_neighbor_pairs(lattice):
            terms[(a, b)] = -J * zz
    if h != 0.0:
        for site in lattice.sites:
            terms[(site,)] = -h * PAULI_X
    return Interaction(lattice, terms, "transverse_field_ising")


def heisenberg_xxz(lattice: Lattice, J: float = 1.0, delta: float = 1.0,
                   h: float = 0.0) -> Interaction:
    """H = sum [J (X_i X_j + Y_i Y_j) + delta Z_i Z_j] - h sum Z_i."""
    _require_qubits(lattice, "heisenberg_xxz")
    terms = {}
    bond = J * (np.kron(PAULI_X, PAULI_X)
                + np.kron(PAULI_Y, PAULI_Y)).real.astype(complex) \
        + delta * np.kron(PAULI_Z, PAULI_Z)
    if J != 0.0 or delta != 0.0:
        for (a, b) in nearest_neighbor_pairs(lattice):
            terms[(a, b)] = bond
    if h != 0.0:
        for site in lattice.sites:
            terms[(site,)] = -h * PAULI_Z
    return Interaction(lattice, terms, "heisenberg_xxz")


def random_bond_ising(lattice: Lattice, J: float = 1.0, h: float = 1.0,
                      seed: int = 0) -> Interaction:
    """Ising chain with seeded random bond strengths.

    Bonds are -J_i Z_i Z_j with J_i = J * Uniform(0.5, 1.5) drawn in canonical
    bond order from numpy's default generator, plus a uniform field -h X_i.
    Identical seeds give identical interactions.
    """
    _require_qubits(lattice, "random_bond_ising")
    rng = np.random.default_rng(seed)
    terms = {}
    zz = np.kron(PAULI_Z, PAULI_Z)
    if J != 0.0:
        for (a, b) in nearest_neighbor_pairs(lattice):
            terms[(a, b)] = -J * rng.uniform(0.5, 1.5) * zz
    if h != 0.0:
        for site in lattice.sites:
            terms[(site,)] = -h * PAULI_X
    return Interaction(lattice, terms, "random_bond_ising")


BUILTIN_MODELS = {
    "transverse_field_ising": transverse_field_ising,
    "heisenberg_xxz": heisenberg_xxz,
    "random_bond_ising": random_bond_ising,
}


def build_model(name: str, lattice: Lattice, **params) -> Interaction:
    """Construct a builtin interaction by name; unknown parameters rejected."""
    try:
        builder = BUILTIN_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise ValueError(f"unknown model {name!r}; builtin models: {known}") from None
    import inspect
    allowed = set(inspect.signature(builder).parameters) - {"lattice"}
    extra = set(params) - allowed
    if extra:
        raise ValueError(f"model {name!r} does not accept parameters {sorted(extra)}")
    return builder(lattice, **params)
