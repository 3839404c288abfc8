"""Hermitian eigenstructure and lattice Hamiltonians.

Everything downstream (Gibbs states, Heisenberg evolution, imaginary-time
correlators) consumes the eigendecomposition computed here, so the contract
is strict: ascending eigenvalues, orthonormal eigenvectors, reconstruction
to 1e-10 relative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .lattice import Interaction, Site, _as_matrix, _is_hermitian
from .operators import (EmbeddedOperator, LocalOperator, _add_embedded,
                        commutator, embed)

DIM_CAP = 4096  # largest window dimension we agree to diagonalize (2^12)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix, H = V diag(E) V*."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[None, :]) @ v.conj().T

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """V* M V in M's own arithmetic, with one product for diagonal M.

        With real eigenvectors every product is a real GEMM (a complex M
        goes through _sandwich); only complex eigenvectors pay for zgemm.
        A matrix that is not D x D is refused.
        """
        m = _on_window(np.asarray(matrix), self.dim)
        v = self.eigenvectors
        d = np.diag(m)
        if np.count_nonzero(m) == np.count_nonzero(d):  # no D x D temporary
            return v.conj().T @ (d[:, None] * v)
        return _sandwich(v.conj().T, m, v)


def _on_window(m: np.ndarray, dim: int) -> np.ndarray:
    """m itself, refused unless it is dim x dim."""
    if m.shape != (dim, dim):
        raise ValueError(f"operator of shape {m.shape} does not act on the "
                         f"window, of shape {(dim, dim)}; embed the operator "
                         "on the window first")
    return m


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
    at a time, against three when numpy upcasts a real factor.
    """
    if not (np.iscomplexobj(c) and np.isrealobj(left) and np.isrealobj(right)):
        return left @ (c @ right)
    t = np.ascontiguousarray(_matmul(left, c).T)
    t = _matmul(right.T, t)
    return np.ascontiguousarray(t.T)


def eig_hermitian(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (LAPACK).

    The input must be finite and Hermitian within 1e-12 relative; the check
    runs over row blocks.  The matrix is then solved as given: the solver
    reads one triangle, so the only D x D array built is the eigenvectors.
    A real symmetric input is solved in real arithmetic and gives real
    eigenvectors.
    """
    m = _as_matrix(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if not _is_hermitian(m):
        raise ValueError("matrix is not finite and Hermitian within 1e-12 relative")
    e, v = np.linalg.eigh(m)
    return SpectralDecomposition(e, v)


def build_hamiltonian(interaction: Interaction,
                      window: Optional[Iterable[Site]] = None) -> EmbeddedOperator:
    """Sum of the embedded interaction terms whose support lies in the window.

    Each term adds only the entries its embedding can make nonzero, in
    term order; no window-sized matrix is built per term.  Refuses windows
    whose tensor dimension exceeds DIM_CAP.
    """
    lat = interaction.lattice
    win = lat.sort_sites(window) if window is not None else lat.sites
    dim = lat.window_dim(win)
    if dim > DIM_CAP:
        raise ValueError(
            f"window dimension {dim} exceeds the cap {DIM_CAP}; "
            f"this laboratory is meant for desk-scale windows")
    win_set = set(win)
    terms = [(sup, m) for sup, m in interaction.terms.items()
             if set(sup) <= win_set]
    # real when every term is real
    h = np.zeros((dim, dim),
                 dtype=np.result_type(float, *{m.dtype for _, m in terms}))
    for sup, m in terms:
        _add_embedded(h, m, sup, lat, win)
    sup_sites = tuple(s for s in win if any(s in sup for sup, _ in terms))
    return EmbeddedOperator(win, sup_sites, h)


def derivation_delta(a, interaction: Interaction,
                     hamiltonian: Optional[EmbeddedOperator] = None) -> EmbeddedOperator:
    """Generator commutator delta(A) = sum over terms [Phi(Z), A] = [H, A].

    No factor of i here: the Heisenberg equation of motion reads
    d/dt tau_t(A) = i tau_t(delta(A)), and the adjoint relation is
    delta(A)* = -delta(A*).  Both signs are pinned by tests.
    """
    lat = interaction.lattice
    if isinstance(a, LocalOperator):
        a = embed(a, lat)
    h = hamiltonian if hamiltonian is not None else build_hamiltonian(interaction, a.window)
    if h.window != a.window:
        raise ValueError("hamiltonian window does not match the operator window")
    return commutator(h, a)
