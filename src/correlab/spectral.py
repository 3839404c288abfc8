"""Hermitian eigenstructure and lattice Hamiltonians.

Everything downstream (Gibbs states, Heisenberg evolution, imaginary-time
correlators) consumes the eigendecomposition computed here, so the contract
is strict: ascending eigenvalues, orthonormal eigenvectors, reconstruction
to 1e-10 relative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .lattice import _HERM_TOL, Interaction, Site
from .operators import (EmbeddedOperator, LocalOperator, _add_embedded,
                        commutator, embed)

DIM_CAP = 4096  # largest window dimension we agree to diagonalize (2^12)

_RECON_TOL = 1e-10


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
        """V* M V, with cheap fast paths for diagonal and real M.

        A complex M whose imaginary part is exactly zero is demoted to
        float64 first; together with the real-eigenvector path in
        eig_hermitian this keeps the common all-real pipelines (Ising-type
        Hamiltonians, Z observables) in dgemm instead of zgemm.
        """
        m = np.asarray(matrix)
        if np.iscomplexobj(m) and not m.imag.any():
            m = m.real
        v = self.eigenvectors
        d = np.diag(m)
        if np.abs(m - np.diag(d)).max() == 0.0:
            return v.conj().T @ (d[:, None] * v)
        return v.conj().T @ (m @ v)


def eig_hermitian(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (LAPACK).

    The input may deviate from exact Hermiticity by at most 1e-12 relative;
    it is symmetrized before the solve so the result is exactly that of a
    Hermitian matrix.
    """
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    scale = float(np.abs(m).max()) or 1.0
    if np.abs(m - m.conj().T).max() > _HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within 1e-12 relative")
    sym = (m + m.conj().T) / 2
    if not sym.imag.any():
        # exactly-real symmetric input: the real solver is several times
        # faster and returns real eigenvectors, keeping downstream
        # similarity transforms in real arithmetic
        e, v = np.linalg.eigh(sym.real)
    else:
        e, v = np.linalg.eigh(sym)
    return SpectralDecomposition(e, v)


def matrix_function(dec: SpectralDecomposition, fn: Callable) -> np.ndarray:
    """V f(E) V* with overflow reported rather than silently propagated."""
    ev = dec.eigenvalues
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            vals = np.asarray(fn(ev), dtype=complex)
            if vals.shape != ev.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([fn(x) for x in ev], dtype=complex)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise FloatingPointError(
            f"matrix function overflows at eigenvalue {ev[i]:.6g} (index {i})")
    v = dec.eigenvectors
    return (v * vals[None, :]) @ v.conj().T


def build_hamiltonian(interaction: Interaction,
                      window: Optional[Iterable[Site]] = None,
                      dim_cap: int = DIM_CAP) -> EmbeddedOperator:
    """Sum of the embedded interaction terms whose support lies in the window.

    Each term adds only the entries its embedding can make nonzero, in
    term order; no window-sized matrix is built per term.  Refuses windows
    whose tensor dimension exceeds dim_cap.
    """
    lat = interaction.lattice
    win = lat.sort_sites(window) if window is not None else lat.sites
    dim = lat.window_dim(win)
    if dim > dim_cap:
        raise ValueError(
            f"window dimension {dim} exceeds the cap {dim_cap}; "
            f"this laboratory is meant for desk-scale windows")
    h = np.zeros((dim, dim), dtype=complex)
    win_set = set(win)
    used = []
    for sup, m in interaction.terms.items():
        if set(sup) <= win_set:
            _add_embedded(h, m, sup, lat, win)
            used.append(sup)
    sup_sites = tuple(s for s in win if any(s in u for u in used))
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
