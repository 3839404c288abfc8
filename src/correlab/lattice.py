"""Finite metric lattices, interaction families, and locality certificates.

A lattice is a finite set of sites with a metric and a local Hilbert-space
dimension per site.  An interaction assigns a Hermitian matrix to each member
of a finite family of site subsets.  The locality certificate computed here
is the weighted interaction sum that yields a propagation velocity for
Lieb-Robinson bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

Site = object  # hashable site label: int on chains, (row, col) on grids

PAULI_I = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

PAULI = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_METRIC_TOL = 1e-9
_HERM_TOL = 1e-12
_HERM_TILE = 128  # edge of the square tiles of the Hermiticity check


def _as_matrix(op) -> np.ndarray:
    """The matrix of op (or op itself) as float64 or complex128: a real
    operand stays real, integers become float."""
    m = np.asarray(getattr(op, "matrix", op))
    return m.astype(np.result_type(m, float), copy=False)


def _is_hermitian(*blocks: np.ndarray) -> bool:
    """m = m* within _HERM_TOL relative to max|m|, m being the block
    diagonal matrix of the given square blocks (one block: m itself); False
    for a non-square block or any non-finite entry.  Each pair of mirrored
    square tiles is compared once, so both are read in cache and no D x D
    temporary is built."""
    if any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in blocks):
        return False
    t = _HERM_TILE
    scale = asym = 0.0
    for m in blocks:
        for i in range(0, len(m), t):
            for j in range(i, len(m), t):
                upper, lower = m[i:i + t, j:j + t], m[j:j + t, i:i + t]
                # np.maximum keeps a NaN that the builtin max would drop
                top = float(np.maximum(np.abs(upper).max(),
                                       np.abs(lower).max()))
                if not np.isfinite(top):  # every entry lies in some tile
                    return False
                scale = max(scale, top)
                asym = max(asym, float(np.abs(upper - lower.conj().T).max()))
    return asym <= _HERM_TOL * scale


def _finite_positive(name: str, value) -> None:
    """Refuse a value that is not a finite positive number, naming it."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, not {value!r}")


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """m overwritten by (m + m*)/2, to the bit, and returned; m is square.

    Each pair of mirrored square tiles is read once: the upper tile takes
    s = (upper + lower*)/2 and the lower tile s*, which is the same sum
    conjugated because addition commutes.
    """
    t = _HERM_TILE
    for i in range(0, len(m), t):
        for j in range(i, len(m), t):
            upper, lower = m[i:i + t, j:j + t], m[j:j + t, i:i + t]
            s = upper + lower.conj().T
            s *= 0.5
            upper[...] = s
            lower[...] = s.conj().T
    return m


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


def chain_lattice(n: int, spacing: float = 1.0) -> Lattice:
    """Open chain of n qubits labelled 0..n-1 with |i-j|*spacing metric."""
    if n < 1:
        raise ValueError("chain needs at least one site")
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]) * float(spacing)
    return Lattice(tuple(range(n)), d, (2,) * n)


def grid_lattice(nx: int, ny: int) -> Lattice:
    """nx-by-ny grid of qubits with Manhattan metric, sites (row, col)
    row-major."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs positive extents")
    sites = tuple((i, j) for i in range(nx) for j in range(ny))
    coords = np.array(sites, dtype=float)
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    return Lattice(sites, d, (2,) * len(sites))


def ball(lattice: Lattice, xs, radius: float) -> Tuple[Site, ...]:
    """B_r(X) = {y : d(y, X) < r} together with X itself (strict inequality);
    xs is a nonempty collection of sites (a grid site, itself a tuple, goes
    in a list of one)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    xi = [lattice.index(x) for x in lattice.sort_sites(xs)]
    if not xi:
        raise ValueError("site set must be nonempty")
    dmin = lattice.distances[:, xi].min(axis=1)
    inside = set(np.nonzero(dmin < radius)[0]) | set(xi)
    return tuple(lattice.sites[i] for i in sorted(inside))


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
            m = _as_matrix(m)
            dim = self.lattice.window_dim(sup)
            if m.shape != (dim, dim):
                raise ValueError(
                    f"term on {sup!r} has shape {m.shape}, expected {(dim, dim)}")
            if not _is_hermitian(m):
                raise ValueError(f"term on {sup!r} is not Hermitian")
            if sup in clean:
                raise ValueError(f"two terms share the support {sup!r}")
            clean[sup] = m
            norms[sup] = float(np.abs(np.linalg.eigvalsh(m)).max())
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "term_norms", norms)


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


def certify_locality(interaction: Interaction, mu: float) -> LocalityCertificate:
    """Per-site weighted sums and the resulting velocity v = 2 max S(x).

    A decay rate whose velocity would not be finite (e^{mu diam(Z)}, or
    a sum of weights, overflowing) is refused: every envelope built on it
    would be NaN or infinite, and no row could back a prefactor.
    """
    _finite_positive("mu", mu)
    lat = interaction.lattice
    sums = {site: 0.0 for site in lat.sites}
    with np.errstate(over="ignore"):  # an overflow is refused below
        for sup, norm in interaction.term_norms.items():
            weight = norm * len(sup) * float(np.exp(mu * lat.diameter(sup)))
            for site in sup:
                sums[site] += weight
    if not interaction.terms:
        raise ValueError("cannot certify an empty interaction")
    v = 2.0 * max(sums.values())
    if not np.isfinite(v):
        raise ValueError(f"the certified velocity overflows at mu={mu!r}")
    return LocalityCertificate(float(mu), v, sums)


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


_ZZ = np.kron(PAULI_Z, PAULI_Z)


def _nearest_neighbor_model(name: str, lattice: Lattice, bond: np.ndarray,
                            field: np.ndarray, rng=None) -> Interaction:
    """The builtin model `name` on a qubit lattice: the bond on every
    nearest-neighbor pair, scaled per pair by Uniform(0.5, 1.5) draws in
    canonical pair order when a generator rng is given, and the field on
    every site.  An all-zero bond or field adds no term."""
    if any(k != 2 for k in lattice.local_dims):
        raise ValueError(f"model {name!r} is defined for qubit lattices only")
    terms = {}
    if np.any(bond):
        pairs = nearest_neighbor_pairs(lattice)
        scales = (np.ones(len(pairs)) if rng is None
                  else rng.uniform(0.5, 1.5, len(pairs)))
        terms.update((pair, s * bond) for pair, s in zip(pairs, scales))
    if np.any(field):
        terms.update(((site,), field) for site in lattice.sites)
    return Interaction(lattice, terms, name)


def transverse_field_ising(lattice: Lattice, J: float = 1.0, h: float = 1.0) -> Interaction:
    """H = -J sum Z_i Z_j over nearest neighbors - h sum X_i.

    Terms with zero coupling are omitted from the family.
    """
    return _nearest_neighbor_model("transverse_field_ising", lattice,
                                   -J * _ZZ, -h * PAULI_X)


def heisenberg_xxz(lattice: Lattice, J: float = 1.0, delta: float = 1.0,
                   h: float = 0.0) -> Interaction:
    """H = sum [J (X_i X_j + Y_i Y_j) + delta Z_i Z_j] - h sum Z_i."""
    bond = J * (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)).real \
        + delta * _ZZ
    return _nearest_neighbor_model("heisenberg_xxz", lattice, bond,
                                   -h * PAULI_Z)


def random_bond_ising(lattice: Lattice, J: float = 1.0, h: float = 1.0,
                      seed: int = 0) -> Interaction:
    """Ising chain with seeded random bond strengths.

    Bonds are -J_i Z_i Z_j with J_i = J * Uniform(0.5, 1.5) drawn in canonical
    bond order from numpy's default generator, plus a uniform field -h X_i.
    Identical seeds give identical interactions.
    """
    return _nearest_neighbor_model("random_bond_ising", lattice, -J * _ZZ,
                                   -h * PAULI_X, np.random.default_rng(seed))


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
