"""Operators on a finite lattice.

A LocalOperator is a matrix on the tensor factors of its support; embedding
tensors it with the identity on the rest of the lattice.  The tensor
convention is fixed throughout: factors follow the lattice site order, first
site slowest-varying.  The conditional expectation onto a region is the exact
average over independent Haar unitaries on the complement sites, which equals
the normalized partial trace over the complement re-tensored with identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .lattice import (PAULI, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, Lattice,
                      Site, _as_matrix, _is_hermitian)


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
    order with the first site slowest-varying.  A real matrix stays real.
    """

    support: Tuple[Site, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sup = _sorted_support(self.support)
        m = _as_matrix(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EmbeddedOperator:
    """Matrix on a whole lattice, with the support it came from kept.  The
    lattice is not held: an operator acts on a lattice when its dimension
    is the lattice's."""

    support: Tuple[Site, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "support", tuple(self.support))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _on_window(m: np.ndarray, dim: int) -> np.ndarray:
    """m itself, refused unless it is dim x dim: an operator acts on a
    lattice of dimension dim when its matrix is that size."""
    if m.shape != (dim, dim):
        raise ValueError(f"operator of shape {m.shape} does not act on the "
                         f"lattice, of shape {(dim, dim)}; embed the operator "
                         "on the lattice first")
    return m


def single_site(site: Site, matrix_or_name) -> LocalOperator:
    """Convenience constructor; accepts a matrix or a Pauli letter."""
    m = PAULI[matrix_or_name] if isinstance(matrix_or_name, str) else matrix_or_name
    return LocalOperator((site,), m)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def _offsets(positions: Sequence[int], dims: Sequence[int],
             strides: Sequence[int]) -> np.ndarray:
    """Lattice basis offsets of the factors at positions, first slowest."""
    off = np.zeros(1, dtype=np.intp)
    for p in positions:
        off = (off[:, None] + strides[p] * np.arange(dims[p])).ravel()
    return off


def _embedding_index(dims: Sequence[int], sup: Sequence[int]) -> np.ndarray:
    """idx[r, c] = o_r + c: o_r the lattice offset of support basis state r
    (factors at lattice positions sup, in that order) and c running over
    the offsets of the complement basis states.  An embedding puts entry
    (r, s) of its matrix at (idx[r, c], idx[s, c]) for every c."""
    comp = [i for i in range(len(dims)) if i not in set(sup)]
    strides = [int(np.prod(dims[i + 1:])) for i in range(len(dims))]
    return _offsets(sup, dims, strides)[:, None] + _offsets(comp, dims, strides)


def _add_embedded(out: np.ndarray, matrix: np.ndarray,
                  factor_sites: Sequence[Site], lattice: Lattice) -> None:
    """Add into out the embedding of a matrix whose tensor factors follow
    factor_sites (its own order): identity on the complement, canonical
    lattice order.

    out is the D x D embedding or its top rows, any number of them: only
    the entries that fall in out's rows are added.  Of those, only the ones
    that can be nonzero are touched, d*D for the whole matrix, d being the
    support dimension and D the lattice dimension: entry (r, s) of the
    matrix lands at (o_r + c, o_s + c), o being the lattice offsets of the
    support basis states and c running over those of the complement.
    """
    dims = lattice.local_dims
    sup = [lattice.index(s) for s in factor_sites]
    if len(sup) == len(dims):
        # the whole lattice: permute the tensor factors, no index arrays (a
        # copy of the matrix when its factor order is not the lattice's)
        order = list(np.argsort(sup))
        k = len(sup)
        tensor = matrix.reshape([dims[p] for p in sup] * 2).transpose(
            order + [k + i for i in order]).reshape(out.shape[1], -1)
        np.add(out, tensor[:len(out)], out=out)
        return
    idx = _embedding_index(dims, sup)
    r, c = np.nonzero(idx < len(out))  # the (row, complement) pairs in out
    flat = idx[r, c][:, None] * out.shape[1] + idx[:, c].T
    out.reshape(-1)[flat] += matrix[r]


def _embedded_trace(m: np.ndarray, matrix: np.ndarray,
                    factor_sites: Sequence[Site], lattice: Lattice):
    """tr(m E), E being the embedding of matrix that _add_embedded adds.

    Only the d*D entries of m that E meets are read, (o_s + c, o_r + c)
    against entry (r, s) of the matrix, and E is never built.  A 1-D m
    stands for diag(m); then only the D diagonal entries of E are read.
    """
    idx = _embedding_index(lattice.local_dims,
                           [lattice.index(s) for s in factor_sites])
    if m.ndim == 1:
        return np.dot(np.diagonal(matrix), m[idx].sum(axis=1))
    return np.sum(matrix[:, :, None] * m[idx[None], idx[:, None]])


def _embed_ordered(matrix: np.ndarray, factor_sites: Sequence[Site],
                   lattice: Lattice, rows: Optional[int] = None) -> np.ndarray:
    """Embedding of matrix (factors in factor_sites order) into the
    lattice, in the matrix's own dtype: its top rows when their number is
    given, the whole D x D matrix otherwise (_add_embedded)."""
    dim = lattice.window_dim(lattice.sites)
    out = np.zeros((dim if rows is None else rows, dim), dtype=matrix.dtype)
    _add_embedded(out, matrix, factor_sites, lattice)
    return out


def embed(op: LocalOperator, lattice: Lattice) -> EmbeddedOperator:
    """Tensor op with the identity on the rest of the lattice.

    The embedding is an isometric algebra homomorphism: norms, products,
    and commutators are preserved.
    """
    missing = set(op.support) - set(lattice.sites)
    if missing:
        raise ValueError(f"support sites {sorted(map(repr, missing))} outside the lattice")
    if op.dim != lattice.window_dim(op.support):
        raise ValueError("operator dimension does not match its support dims")
    full = _embed_ordered(op.matrix, op.support, lattice)
    return EmbeddedOperator(lattice.sort_sites(op.support), full)


# ---------------------------------------------------------------------------
# norms, products, commutators
# ---------------------------------------------------------------------------

def spectral_norm(op) -> float:
    """Largest singular value: through the eigensolver for a finite matrix
    that is Hermitian within 1e-12 relative, through the SVD otherwise."""
    m = _as_matrix(op)
    if m.size == 0:
        return 0.0
    if _is_hermitian(m):
        return _hermitian_norm(m)
    return float(np.linalg.norm(m, 2))


def _check_measured(name: str, matrix) -> None:
    """Refuse a measured operator whose matrix is a multiple of the
    identity: every commutator, approximation error and connected
    correlator of it vanishes, so a check on it would pass on no
    measurement."""
    m = np.asarray(matrix)
    if np.array_equal(m, m.flat[0] * np.eye(len(m))):
        raise ValueError(f"{name} must not be I or a multiple of it: the "
                         "identity commutes with everything, so the check "
                         "measures nothing")


def _hermitian_norm(m: np.ndarray) -> float:
    """Largest |eigenvalue| of m, which the caller knows to be Hermitian
    (the eigensolver reads one triangle); no check is made."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def commutator(a: EmbeddedOperator, b: EmbeddedOperator) -> EmbeddedOperator:
    """[A, B] on a common lattice, refused unless the dimensions agree; its
    support is the sorted union of the two, the lattice order on chains
    and grids."""
    if a.dim != b.dim:
        raise ValueError(f"operator dimensions differ: {a.dim} and {b.dim}")
    return EmbeddedOperator(_sorted_support(set(a.support) | set(b.support)),
                            a.matrix @ b.matrix - b.matrix @ a.matrix)


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
    m = _as_matrix(matrix)
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
    commutes with everything supported on the complement.  An op that does
    not act on the lattice is refused by its shape (partial_trace).
    """
    reg = lattice.sort_sites(region)
    keep = [lattice.index(s) for s in reg]
    comp_dim = lattice.window_dim(lattice.sites) // lattice.window_dim(reg)
    reduced = partial_trace(op.matrix, lattice.local_dims, keep) / comp_dim
    return EmbeddedOperator(reg, _embed_ordered(reduced, reg, lattice))


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
    each complement site; op must act on the lattice (_on_window).  The
    estimator error decays like 1/sqrt(samples); identical seeds give
    identical results.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    win, dims, dim = lattice.sites, lattice.local_dims, op.dim
    _on_window(op.matrix, lattice.window_dim(win))
    reg = lattice.sort_sites(region)
    if not set(win) - set(reg):
        return EmbeddedOperator(op.support, op.matrix.copy())
    rng = np.random.default_rng(seed)
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
    return EmbeddedOperator(win, acc / samples)

