"""Operators on finite lattice windows.

A LocalOperator is a matrix on the tensor factors of its support; embedding
tensors it with the identity on the rest of a lattice window.  The tensor
convention is fixed throughout: factors follow the lattice site order, first
site slowest-varying.  The conditional expectation onto a region is the exact
average over independent Haar unitaries on the complement sites, which equals
the normalized partial trace over the complement re-tensored with identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .lattice import (_HERM_TOL, PAULI, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z,
                      Lattice, Site)


# ---------------------------------------------------------------------------
# operator containers
# ---------------------------------------------------------------------------

def _sorted_support(support: Iterable[Site]) -> Tuple[Site, ...]:
    sup = tuple(support)
    if len(set(sup)) != len(sup):
        raise ValueError("support contains duplicate sites")
    try:
        return tuple(sorted(sup))
    except TypeError:
        raise ValueError("support labels must be mutually orderable") from None


@dataclass(frozen=True)
class LocalOperator:
    """Matrix on the tensor product of its support sites.

    support is stored sorted ascending; the matrix rows/columns follow that
    order with the first site slowest-varying.
    """

    support: Tuple[Site, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sup = _sorted_support(self.support)
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EmbeddedOperator:
    """Operator on a full lattice window, with its originating support kept."""

    window: Tuple[Site, ...]
    support: Tuple[Site, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "support", tuple(self.support))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def single_site(site: Site, matrix_or_name) -> LocalOperator:
    """Convenience constructor; accepts a matrix or a Pauli letter."""
    m = PAULI[matrix_or_name] if isinstance(matrix_or_name, str) else matrix_or_name
    return LocalOperator((site,), m)


def _as_matrix(op) -> np.ndarray:
    m = getattr(op, "matrix", op)
    return np.asarray(m, dtype=complex)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def _window_dims(lattice: Lattice, win: Sequence[Site]) -> Tuple[int, ...]:
    return tuple(lattice.local_dims[lattice.index(s)] for s in win)


def _offsets(positions: Sequence[int], dims: Sequence[int],
             strides: Sequence[int]) -> np.ndarray:
    """Window basis offsets of the factors at positions, first slowest."""
    off = np.zeros(1, dtype=np.intp)
    for p in positions:
        off = (off[:, None] + strides[p] * np.arange(dims[p])).ravel()
    return off


def _add_embedded(out: np.ndarray, matrix: np.ndarray,
                  factor_sites: Sequence[Site], lattice: Lattice,
                  win: Tuple[Site, ...]) -> None:
    """Add into out the embedding of a matrix whose tensor factors follow
    factor_sites (its own order): identity on the complement, canonical
    window order.

    Only the d*D entries that can be nonzero are touched, d being the
    support dimension and D the window dimension: entry (r, s) of the
    matrix lands at (o_r + c, o_s + c), o being the window offsets of the
    support basis states and c running over those of the complement.
    """
    dims = _window_dims(lattice, win)
    pos_of = {s: i for i, s in enumerate(win)}
    sup = [pos_of[s] for s in factor_sites]
    comp = [i for i in range(len(win)) if i not in set(sup)]
    if not comp:
        # the whole window: permute the tensor factors, no index arrays
        order = list(np.argsort(sup))
        k = len(sup)
        tensor = matrix.reshape([dims[p] for p in sup] * 2).transpose(
            order + [k + i for i in order])
        view = out.reshape(dims * 2)
        np.add(view, tensor, out=view)
        return
    strides = [int(np.prod(dims[i + 1:])) for i in range(len(dims))]
    sup_off = _offsets(sup, dims, strides)
    comp_off = _offsets(comp, dims, strides)
    rows = sup_off[:, None, None] + comp_off
    flat = rows * out.shape[0] + (sup_off[:, None] + comp_off)
    out.reshape(-1)[flat] += matrix[:, :, None]


def _embed_ordered(matrix: np.ndarray, factor_sites: Sequence[Site],
                   lattice: Lattice, win: Tuple[Site, ...]) -> np.ndarray:
    """Embedding of matrix (factors in factor_sites order) into the window."""
    dim = lattice.window_dim(win)
    out = np.zeros((dim, dim), dtype=complex)
    _add_embedded(out, matrix, factor_sites, lattice, win)
    return out


def embed(op: LocalOperator, lattice: Lattice,
          window: Optional[Iterable[Site]] = None) -> EmbeddedOperator:
    """Tensor op with the identity on the rest of the window.

    The window defaults to the whole lattice.  The embedding is an isometric
    algebra homomorphism: norms, products, and commutators are preserved.
    """
    win = lattice.sort_sites(window) if window is not None else lattice.sites
    missing = set(op.support) - set(win)
    if missing:
        raise ValueError(f"support sites {sorted(map(repr, missing))} outside the window")
    sup_dim = 1
    for s in op.support:
        sup_dim *= lattice.local_dims[lattice.index(s)]
    if op.dim != sup_dim:
        raise ValueError("operator dimension does not match its support dims")
    full = _embed_ordered(op.matrix, op.support, lattice, win)
    return EmbeddedOperator(win, lattice.sort_sites(op.support), full)


# ---------------------------------------------------------------------------
# norms, products, commutators
# ---------------------------------------------------------------------------

def spectral_norm(op) -> float:
    """Largest singular value; Hermitian and anti-Hermitian inputs go through
    the eigensolver, everything else through the SVD."""
    m = _as_matrix(op)
    if m.size == 0:
        return 0.0
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return 0.0
    if np.abs(m - m.conj().T).max() <= _HERM_TOL * scale:
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if np.abs(m + m.conj().T).max() <= _HERM_TOL * scale:
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    return float(np.linalg.norm(m, 2))


def _join(a: EmbeddedOperator, b: EmbeddedOperator) -> Tuple[Tuple[Site, ...], Tuple[Site, ...]]:
    if a.window != b.window:
        raise ValueError("operators live on different windows")
    if a.dim != b.dim:
        raise ValueError("operator dimensions differ")
    sup = tuple(s for s in a.window if s in set(a.support) | set(b.support))
    return a.window, sup


def commutator(a: EmbeddedOperator, b: EmbeddedOperator) -> EmbeddedOperator:
    """[A, B] on a common window."""
    window, sup = _join(a, b)
    return EmbeddedOperator(window, sup, a.matrix @ b.matrix - b.matrix @ a.matrix)


def operator_product(a: EmbeddedOperator, b: EmbeddedOperator) -> EmbeddedOperator:
    window, sup = _join(a, b)
    return EmbeddedOperator(window, sup, a.matrix @ b.matrix)


# ---------------------------------------------------------------------------
# partial trace and conditional expectation
# ---------------------------------------------------------------------------

def partial_trace(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors except the positions in keep.

    dims lists the factor dimensions in tensor order; keep lists factor
    positions, returned in ascending position order.
    """
    dims = [int(k) for k in dims]
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError("keep positions out of range")
    total = int(np.prod(dims))
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims product {total}")
    tensor = m.reshape(dims + dims)
    labels = []
    for s in range(n):
        labels.append(2 * s)
    for s in range(n):
        labels.append(2 * s + 1 if s in keep else 2 * s)
    out = [2 * s for s in keep] + [2 * s + 1 for s in keep]
    kdim = int(np.prod([dims[s] for s in keep])) if keep else 1
    return np.einsum(tensor, labels, out).reshape(kdim, kdim)


def conditional_expectation(op: EmbeddedOperator, region: Iterable[Site],
                            lattice: Lattice) -> EmbeddedOperator:
    """Exact Haar average over product unitaries on the complement sites.

    Equals (Tr_{complement} op / dim(complement)) tensored back with the
    identity.  It is a unital, norm-contracting projection whose image
    commutes with everything supported on the complement.
    """
    win = op.window
    reg = lattice.sort_sites(region)
    if set(reg) - set(win):
        raise ValueError("region must lie inside the operator's window")
    dims = _window_dims(lattice, win)
    pos_of = {s: i for i, s in enumerate(win)}
    keep = [pos_of[s] for s in reg]
    comp_dim = 1
    for i, k in enumerate(dims):
        if i not in set(keep):
            comp_dim *= k
    reduced = partial_trace(op.matrix, dims, keep) / comp_dim
    full = _embed_ordered(reduced, reg, lattice, win)
    return EmbeddedOperator(win, reg, full)


def haar_unitaries(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Batch of Haar-distributed unitaries via QR with phase-fixed R diagonal."""
    z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def sampled_twirl(op: EmbeddedOperator, region: Iterable[Site], lattice: Lattice,
                  samples: int, seed: int) -> EmbeddedOperator:
    """Monte-Carlo estimate of conditional_expectation.

    Averages U op U* over `samples` draws of independent Haar unitaries on
    each complement site.  The estimator error decays like 1/sqrt(samples);
    identical seeds give identical results.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    win = op.window
    reg = lattice.sort_sites(region)
    if set(reg) - set(win):
        raise ValueError("region must lie inside the operator's window")
    if not set(win) - set(reg):
        return EmbeddedOperator(win, op.support, op.matrix.copy())
    rng = np.random.default_rng(seed)
    dims = _window_dims(lattice, win)
    dim = op.dim
    acc = np.zeros((dim, dim), dtype=complex)
    chunk = max(1, (1 << 22) // max(1, dim * dim))
    left = samples
    while left > 0:
        m = min(chunk, left)
        # batched product unitary, identity on the region factors
        full = np.ones((m, 1, 1), dtype=complex)
        for i, s in enumerate(win):
            if s in set(reg):
                u = np.broadcast_to(np.eye(dims[i], dtype=complex), (m, dims[i], dims[i]))
            else:
                u = haar_unitaries(rng, dims[i], m)
            d1, d2 = full.shape[1], u.shape[1]
            full = np.einsum("nij,nkl->nikjl", full, u).reshape(m, d1 * d2, d1 * d2)
        acc += np.einsum("nij,jk,nlk->il", full, op.matrix, full.conj())
        left -= m
    return EmbeddedOperator(win, win, acc / samples)


# ---------------------------------------------------------------------------
# golden-file serialization
# ---------------------------------------------------------------------------

_MAGIC = "correlab-operator 1"


def save_operator(path, op: LocalOperator, dims: Sequence[int]) -> None:
    """Write a LocalOperator: ASCII header, then little-endian float64
    interleaved re/im in row-major order."""
    m = np.ascontiguousarray(op.matrix, dtype=complex)
    dims = [int(k) for k in dims]
    if int(np.prod(dims)) != m.shape[0]:
        raise ValueError("dims product does not match the matrix dimension")
    payload = np.empty(2 * m.size, dtype="<f8")
    payload[0::2] = m.real.ravel()
    payload[1::2] = m.imag.ravel()
    header = (f"{_MAGIC}\n"
              f"support {' '.join(str(s) for s in op.support)}\n"
              f"dims {' '.join(str(k) for k in dims)}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload.tobytes())


def load_operator(path) -> Tuple[LocalOperator, Tuple[int, ...]]:
    """Read a golden operator file; returns (operator, dims)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        head, rest = raw.split(b"\n", 1)
        if head.decode("ascii") != _MAGIC:
            raise ValueError
        sup_line, rest = rest.split(b"\n", 1)
        dims_line, blob = rest.split(b"\n", 1)
    except ValueError:
        raise ValueError(f"{path}: not a correlab operator file") from None
    sup_fields = sup_line.decode("ascii").split()
    dims_fields = dims_line.decode("ascii").split()
    if sup_fields[:1] != ["support"] or dims_fields[:1] != ["dims"]:
        raise ValueError(f"{path}: malformed operator header")
    support = tuple(_parse_site(tok) for tok in sup_fields[1:])
    dims = tuple(int(tok) for tok in dims_fields[1:])
    total = int(np.prod(dims))
    flat = np.frombuffer(blob, dtype="<f8")
    if flat.size != 2 * total * total:
        raise ValueError(f"{path}: payload holds {flat.size} floats, "
                         f"expected {2 * total * total}")
    matrix = (flat[0::2] + 1j * flat[1::2]).reshape(total, total)
    return LocalOperator(support, matrix), dims


def _parse_site(token: str) -> Site:
    try:
        return int(token)
    except ValueError:
        return token
