"""Hermitian eigenstructure and lattice Hamiltonians.

Everything downstream (Gibbs states, Heisenberg evolution, imaginary-time
correlators) consumes the eigendecomposition computed here, so the contract
is strict: ascending eigenvalues, orthonormal eigenvectors, reconstruction
to 1e-10 relative.

The block form, explained here alone: an H that commutes with the index
reversal J (i -> D-1-i, D even; the global spin flip X^n of every model
without a z-field) is solved as two half-size blocks, any other whole.
In the basis (e_i +- e_{D-1-i})/sqrt 2 an m with J m J = parity * m is
diag(m+, m-) for parity +1 and [[0, M], [N, 0]] for parity -1, N = M*
when m is Hermitian; parity 0 is m whole, in (V, E).  m's blocks on the
+- columns are its half blocks m_TL +- m_TR J: (m+, m-), or (N, M).
Conversely m_TL is their half sum, m_TR their half difference times J,
and m's bottom half its top half reversed along both axes, times parity.
H's blocks H+- have eigenvectors W+- and eigenvalues E+-, kept as the
solver returned them with each eigenvalue's sector; the dense V is formed
only where it is read (reconstruct, operators without a parity).  The
parity alone chooses how m is read; Hermiticity only takes N as M's
partner.

The half blocks read m's top D/2 rows alone, so a D x D m and its top
rows give the same blocks.  H+- come from H's top rows: eig_hermitian
checks and solves a reversal-even H from them alone, and given an
Interaction whose terms are all reversal-even it sums only those rows
(_assembled), since operators._add_embedded adds only the entries inside
its output's rows, all D of them or fewer.  An operator read in
its blocks may be given as its top rows the same way
(verify._contraction).  Each rule has one helper:

- _block_parity: m's parity on a decomposition, 0 when it has no sectors.
  J is a product of per-site reversals, so an embedded operator has its
  local matrix's parity.
- _half_block: m_TL +- m_TR J, the solver's H+- (_reversal_blocks) and
  every operator's blocks (_sector_blocks).
- _partnered: N = M* of a Hermitian odd m, for every writer given M alone.
- _sector_bases: the (W, E) pairs a parity's blocks are read into, any
  array of one value per column split by sector alike (_sector_columns).
- _read_blocks: the blocks read into them, W_l* m_lr W_r (_read_into), each
  product (D/2)-sized.  _energy_blocks reads every block that can be
  nonzero, an odd m in M alone when N is exactly M's partner.
- _read_pair: a pair (a, b) read once for its KMS function.  In the energy
  basis phi(a tau_z(b)) sums a_mn b_nm over m in sector l and n in sector
  r, so a's (l, r) block pairs with b's (r, l) block alone, through
  P_lr = a_lr * b_rl^T: two even operators on (+, +) and (-, -), two odd
  ones on (+, -) and (-, +), a mixed pair on none (its correlation
  function is zero).  A pair with an operator of no parity is read whole.
- _block_matrix and _block_diagonal: m, or its diagonal, from its blocks;
  transform alone writes the energy-basis blocks at their sectors' columns
  of one zeroed D x D matrix (_from_sector_blocks), so the blocks that
  vanish are exactly zero.
- _mirrored_levels: J's action on an index set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import Interaction, _as_matrix, _is_hermitian
from .operators import (EmbeddedOperator, LocalOperator, _add_embedded,
                        _on_window, commutator, embed)

DIM_CAP = 4096  # largest lattice dimension we agree to diagonalize (2^12)
_MIRROR_BLOCK = 1 << 14  # entries per row block of the reversal passes


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix, H = V diag(E) V*.

    When eig_hermitian solved H in its reversal blocks (module
    docstring), sector holds +1 or -1 per column, J v_c = sector[c] v_c to
    the last bit with D/2 columns in each, and the second field holds the
    blocks' eigenvectors (W+, W-) as the solver returned them.  Otherwise
    sector is None and the second field is V.
    """

    eigenvalues: np.ndarray
    _vectors: np.ndarray
    sector: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """V; on the block route the D x D array
        [[W+, W-], [J W+, -J W-]]/sqrt 2 with its columns in sorted order,
        formed anew on each read."""
        if self.sector is None:
            return self._vectors
        half = self.dim // 2
        v = np.empty((self.dim, self.dim), dtype=self._vectors.dtype)
        top = v[:half]
        np.take(np.concatenate(self._vectors, axis=1), _sector_places(self),
                axis=1, out=top, mode="clip")  # clip: unbuffered
        top *= np.sqrt(0.5)
        np.multiply(top[::-1], self.sector, out=v[half:])
        return v

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[None, :]) @ v.conj().T

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """V* M V in M's own arithmetic (_transform), read by M's parity
        (_block_parity): in its blocks, written out by _from_sector_blocks, or
        whole in the dense V.  A matrix that is not D x D is refused."""
        m = _on_window(np.asarray(matrix), self.dim)
        parity = _block_parity(self, m)
        if parity:
            return _from_sector_blocks(self, m, parity)
        return _read_blocks(self, m, 0)[1][0][2]


def _block_parity(dec: SpectralDecomposition, m: np.ndarray) -> int:
    """+-1 when dec has sectors and J m J = +-m exactly, 0 otherwise; m
    may be an embedded operator's local matrix (module docstring)."""
    return 0 if dec.sector is None else _reversal_parity(m)


def _sector_places(dec: SpectralDecomposition) -> np.ndarray:
    """where[c], column c's place in the sector order: the + columns
    first, each sector in ascending order."""
    plus = dec.sector > 0
    return np.where(plus, np.cumsum(plus), dec.dim // 2 + np.cumsum(~plus)) - 1


def _matmul(left: np.ndarray, c: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """left @ c, written into out when given.

    A real left factor acts alike on the real and imaginary parts of a
    complex c: the product is one real GEMM on the interleaved (n, 2m)
    views, and left is never copied to complex.
    """
    if np.iscomplexobj(left) or not np.iscomplexobj(c):
        return np.matmul(left, c, out=out)
    c = np.ascontiguousarray(c)
    if out is None:
        out = np.empty((left.shape[0], c.shape[1]), dtype=complex)
    np.matmul(left, c.view(float), out=out.view(float))
    return out


def _sandwich(left: np.ndarray, c: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ c @ right.

    With real outer factors and a complex c both products are real GEMMs
    (_matmul), the right one taken as (right^T (left c)^T)^T through
    transposed copies.  At most two arrays of the result's size are alive
    at a time, against three when numpy upcasts a real factor.  Otherwise
    it is left @ (c @ right).
    """
    if not (np.iscomplexobj(c) and np.isrealobj(left) and np.isrealobj(right)):
        return left @ (c @ right)
    t = np.ascontiguousarray(_matmul(left, c).T)
    t = _matmul(right.T, t)
    return np.ascontiguousarray(t.T)


def _transform(left: np.ndarray, m: np.ndarray,
               right: np.ndarray) -> np.ndarray:
    """left @ m @ right in m's own arithmetic, with one product and no
    temporary of m's size for a diagonal m.

    With real outer factors every product is a real GEMM (a complex m goes
    through _sandwich); only complex outer factors pay for zgemm.
    """
    d = np.diag(m)
    if np.count_nonzero(m) == np.count_nonzero(d):
        return left @ (d[:, None] * right)
    return _sandwich(left, m, right)


def eig_hermitian(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (LAPACK), or of the
    Hamiltonian of an Interaction on its whole lattice, assembled in its
    top rows when its terms make it reversal-even (_assembled).

    The input must be finite and Hermitian within 1e-12 relative, checked
    over mirrored square tiles.  The solver reads one triangle, and a real
    symmetric input is solved in real arithmetic.  When J H J equals H
    exactly and D is even, its blocks H+- (module docstring) are solved in
    one stacked call, for a quarter of the dense flops, and the eigenvalues
    ordered by a stable sort, the + sector first among equal levels.  Such
    an H, assembled or given whole, is read and checked from its top rows
    alone, as the block diagonal matrix of H_TL and H_TR J: J H J = H gives
    H - H* the entries of theirs and H the entries of both, so the verdict
    is the whole H's.
    """
    if isinstance(matrix, Interaction):
        m = _assembled(matrix, top=True)
    else:
        m = _as_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("need a square matrix")
    dim = m.shape[1]
    if len(m) == dim >= 2 and dim % 2 == 0 and _reversal_parity(m) == 1:
        m = m[:dim // 2]
    rows = len(m)
    if not _is_hermitian(*((m,) if rows == dim else (m[:, :rows],
                                                     m[:, rows:][:, ::-1]))):
        raise ValueError("matrix is not finite and Hermitian within 1e-12 relative")
    if rows == dim:
        e, v = np.linalg.eigh(m)
        return SpectralDecomposition(e, v)
    blocks = _reversal_blocks(m)
    del m  # assembled rows are freed before the solve
    e, w = np.linalg.eigh(blocks)
    order = np.argsort(e.ravel(), kind="stable")
    return SpectralDecomposition(e.ravel()[order], w,
                                 np.where(order < dim // 2, 1.0, -1.0))


def _assembled(interaction: Interaction, top: bool) -> np.ndarray:
    """The rows of H on the whole lattice that the terms sum to, in term
    order, each term adding only its entries in those rows (_add_embedded):
    H's top D/2 rows when top is set, D is even and every term's local
    matrix is reversal-even, and the whole H otherwise.  J is a product of
    per-site reversals, so such an H is reversal-even to the last bit (an
    entry and its mirror sum the same values in the same order), and each
    row holds the bits of the same row of the whole H.  Refuses a D above
    DIM_CAP."""
    lat = interaction.lattice
    dim = lat.window_dim(lat.sites)
    if dim > DIM_CAP:
        raise ValueError(
            f"window dimension {dim} exceeds the cap {DIM_CAP}; "
            f"this laboratory is meant for desk-scale windows")
    terms = interaction.terms
    even = top and dim % 2 == 0 and all(_reversal_parity(m) == 1
                                        for m in terms.values())
    # real when every term is real
    h = np.zeros((dim // 2 if even else dim, dim),
                 dtype=np.result_type(float, *{m.dtype for m in terms.values()}))
    for sup, m in terms.items():
        _add_embedded(h, m, sup, lat)
    return h


def _reversal_parity(m: np.ndarray) -> int:
    """+1 when J m J == m, -1 when J m J == -m, exactly; 0 otherwise.

    m is square, of any size D >= 1.  Each row of the top half (the
    middle row included) is compared with its mirror row read backwards,
    over row blocks; the bottom half then agrees by the same identity.  A
    zero m reads +1.
    """
    dim = len(m)
    top, mirrored = m[:dim - dim // 2], m[::-1, ::-1][:dim - dim // 2]
    rows = max(1, _MIRROR_BLOCK // dim)
    for sign in (1, -1):
        if all(np.array_equal(top[i:i + rows], sign * mirrored[i:i + rows])
               for i in range(0, len(top), rows)):
            return sign
    return 0


def _half_block(m: np.ndarray, sign: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """m_TL + sign * m_TR J (module docstring), J the half-size reversal,
    written into out when given.  m is D x D or its top D/2 rows, which
    are all the block reads."""
    half = m.shape[1] // 2
    combine = np.add if sign > 0 else np.subtract
    return combine(m[:half, :half], m[:half, half:][:, ::-1], out=out)


def _reversal_blocks(m: np.ndarray) -> np.ndarray:
    """The stack of m's two half blocks (_half_block), for the solver's
    one stacked call; m is D x D or its top D/2 rows."""
    half = m.shape[1] // 2
    blocks = np.empty((2, half, half), dtype=m.dtype)
    _half_block(m, 1, out=blocks[0])
    _half_block(m, -1, out=blocks[1])
    return blocks


def _sector_blocks(m: np.ndarray, parity: int, hermitian: bool = True) -> list:
    """(left, right, block) for each block of m that can be nonzero in the
    block form of parity (module docstring), left and right indexing the
    pairs of _sector_bases(dec, parity): (0, 0, m) for parity 0, m+ and m-
    for +1, M and N for -1, and M alone when m is Hermitian (_partnered).
    """
    if parity > 0:
        return [(0, 0, _half_block(m, 1)), (1, 1, _half_block(m, -1))]
    if not parity:
        return [(0, 0, m)]
    blocks = [(0, 1, _half_block(m, -1))]
    return blocks if hermitian else blocks + [(1, 0, _half_block(m, 1))]


def _partnered(blocks: list) -> list:
    """blocks, with the (-, +) block of a Hermitian odd operator added when
    only its (+, -) block (0, 1, M) is given: M*, the conjugate transpose
    (the conjugate for a diagonal)."""
    if [(l, r) for l, r, _ in blocks] != [(0, 1)]:
        return blocks
    return blocks + [(1, 0, blocks[0][2].conj().T)]


def _mirrored_levels(first: np.ndarray) -> Optional[np.ndarray]:
    """signs s_p over p < D/2, +1 where p is in the index set of the mask
    first and -1 where D-1-p is, when the index reversal J maps that set
    onto its complement; None otherwise."""
    dim = len(first)
    if dim % 2 or not np.array_equal(first[::-1], ~first):
        return None
    return np.where(first[:dim // 2], 1.0, -1.0)


def _sector_columns(dec: SpectralDecomposition, parity: int,
                    *columns: np.ndarray) -> list:
    """Arrays of one value per column as the blocks of parity read them:
    one tuple for parity 0, a tuple per sector for parity +-1."""
    if not parity:
        return [columns]
    return [tuple(x[c] for x in columns)
            for c in (dec.sector > 0, dec.sector < 0)]


def _sector_bases(dec: SpectralDecomposition, parity: int,
                  *columns: np.ndarray) -> list:
    """The (W, E) pairs the blocks of _sector_blocks(m, parity) are read
    into, each further array of one value per column (Gibbs weights, say)
    split alike (_sector_columns) and following E in every tuple."""
    vectors = dec._vectors if parity else [dec.eigenvectors]
    return [(w, *x) for w, x in zip(vectors, _sector_columns(
        dec, parity, dec.eigenvalues, *columns))]


def _read_into(bases: list, blocks: list) -> list:
    """Blocks (l, r, m_lr) of _sector_blocks read into the bases of
    _sector_bases for the same parity: (l, r, W_l* m_lr W_r)."""
    return [(l, r, _transform(bases[l][0].conj().T, b, bases[r][0]))
            for l, r, b in blocks]


def _read_blocks(dec: SpectralDecomposition, m: np.ndarray, parity: int,
                 *columns: np.ndarray, hermitian: bool = True):
    """(bases, blocks): _sector_bases(dec, parity, *columns) and m's
    blocks of _sector_blocks(m, parity, hermitian) read into them
    (_read_into).  For parity 0 the one block is m read whole in the V of
    the bases, so V is formed once."""
    bases = _sector_bases(dec, parity, *columns)
    return bases, _read_into(bases, _sector_blocks(m, parity, hermitian))


def _energy_blocks(bases: list, m: np.ndarray, parity: int) -> dict:
    """{(l, r): W_l* m_lr W_r} over every block of m that can be nonzero,
    read into the bases of parity (_read_into) and completed by
    _partnered: an odd m is read as Hermitian, in M alone, when its N
    equals M* exactly, and in both off-diagonal blocks otherwise."""
    blocks = _sector_blocks(m, parity, hermitian=False)
    if parity < 0 and np.array_equal(blocks[1][2], blocks[0][2].conj().T):
        blocks = blocks[:1]
    return {(l, r): b for l, r, b in _partnered(_read_into(bases, blocks))}


def _read_pair(dec: SpectralDecomposition, a: np.ndarray, b: np.ndarray):
    """(parity, pairs, diagonals): the pair (a, b) of lattice matrices read
    once in its block form (module docstring), each in the blocks of its
    own parity (_energy_blocks), or both whole in one V.  parity is the one
    the columns split by (_sector_columns), pairs holds (l, r, a_lr, b_rl)
    for each (l, r) at which both blocks can be nonzero, and diagonals the
    diagonals of each operator's (l, l) blocks, as ([(l, d)], [(l, d)]).
    """
    pa, pb = _block_parity(dec, a), _block_parity(dec, b)
    parity = pa if pa and pb else 0
    bases = _sector_bases(dec, parity)
    read = [_energy_blocks(bases, m, p if parity else 0)
            for m, p in ((a, pa), (b, pb))]
    pairs = [(l, r, block, read[1][r, l]) for (l, r), block in read[0].items()
             if (r, l) in read[1]]
    diagonals = tuple([(l, block.diagonal().copy())
                       for (l, r), block in blocks.items() if l == r]
                      for blocks in read)
    return parity, pairs, diagonals


def _from_sector_blocks(dec: SpectralDecomposition, m: np.ndarray,
                        parity: int) -> np.ndarray:
    """V* m V for an m with J m J = parity * m exactly: each block read in
    the sector bases (_energy_blocks) written at its two sectors' columns
    (_sector_columns) of the D x D energy-basis matrix, which is zero in
    every block not read.

    The result is allocated before the blocks' temporaries, which keeps
    the heap lower for the rest of the process (peak RSS).  Each block is
    written over row blocks, so a partner block, a transposed view, is
    read a few rows at a time.
    """
    out = np.zeros((dec.dim, dec.dim), dtype=np.result_type(m, dec._vectors))
    grid = _energy_blocks(_sector_bases(dec, parity), m, parity)
    columns = [c for c, in _sector_columns(dec, parity, np.arange(dec.dim))]
    rows = max(1, _MIRROR_BLOCK // dec.dim)
    for (l, r), block in grid.items():
        for i in range(0, len(block), rows):
            out[columns[l][i:i + rows, None], columns[r]] = block[i:i + rows]
    return out


def _block_matrix(blocks: list, parity: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The inverse of _sector_blocks: the D x D matrix m with
    J m J = parity * m and these blocks (module docstring), written into
    out when given; the one block itself for parity 0.  Given M alone for
    parity -1 it writes the Hermitian m, with N = M* (_partnered)."""
    if not parity:
        (_, _, m), = blocks
        return m
    by_column = {r: b for _, r, b in _partnered(blocks)}
    plus, minus = by_column[0], by_column[1]
    half = len(plus)
    if out is None:
        out = np.empty((2 * half, 2 * half), dtype=np.result_type(plus, minus))
    top = out[:half]
    np.add(plus, minus, out=top[:, :half])
    np.subtract(plus, minus, out=top[:, half:][:, ::-1])
    top *= 0.5
    np.multiply(top[::-1, ::-1], parity, out=out[half:])
    return out


def _block_diagonal(diagonals: list, parity: int) -> np.ndarray:
    """The diagonal of _block_matrix(blocks, parity), from the blocks'
    diagonals, given as (left, right, diagonal)."""
    if not parity:
        (_, _, d), = diagonals
        return d
    by_column = {r: d for _, r, d in _partnered(diagonals)}
    top = by_column[0] + by_column[1]
    top *= 0.5
    return np.concatenate((top, parity * top[::-1]))


def build_hamiltonian(interaction: Interaction) -> EmbeddedOperator:
    """Sum of the embedded interaction terms on the whole lattice.

    Each term adds only the entries its embedding can make nonzero, in
    term order; no lattice-sized matrix is built per term.  Refuses a
    lattice whose tensor dimension exceeds DIM_CAP.
    """
    lat = interaction.lattice
    sup_sites = tuple(s for s in lat.sites
                      if any(s in sup for sup in interaction.terms))
    return EmbeddedOperator(sup_sites, _assembled(interaction, top=False))


def derivation_delta(a, interaction: Interaction) -> EmbeddedOperator:
    """Generator commutator delta(A) = sum over terms [Phi(Z), A] = [H, A],
    on the whole lattice; an embedded A of another dimension is refused
    (operators.commutator).

    No factor of i here: the Heisenberg equation of motion reads
    d/dt tau_t(A) = i tau_t(delta(A)), and the adjoint relation is
    delta(A)* = -delta(A*).  Both signs are pinned by tests.
    """
    if isinstance(a, LocalOperator):
        a = embed(a, interaction.lattice)
    return commutator(build_hamiltonian(interaction), a)
