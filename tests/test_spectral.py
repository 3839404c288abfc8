"""Eigensolver wrapper, Hamiltonian assembly, derivation."""
import tracemalloc

import numpy as np
import pytest

from correlab import (chain_lattice, transverse_field_ising, embed,
                      single_site, LocalOperator, commutator, spectral_norm,
                      eig_hermitian, build_hamiltonian,
                      derivation_delta, DIM_CAP, heisenberg_xxz,
                      random_bond_ising, gibbs_state, SpectralDecomposition,
                      theorem_check, evolution_context, lr_commutator_scan,
                      locality_scan, kms_function, contour_grid, evolve,
                      EmbeddedOperator)
from correlab.lattice import Interaction, Lattice
from correlab.operators import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from correlab import dynamics, spectral
from correlab.spectral import (_block_diagonal, _block_matrix, _block_parity,
                               _reversal_blocks, _reversal_parity,
                               _sector_bases, _sector_blocks)


def tfim(n, J=1.0, h=1.0):
    lat = chain_lattice(n)
    return lat, transverse_field_ising(lat, J=J, h=h)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_two_site_ising_spectrum_frozen():
    # J = h = 1 on two sites: eigenvalues -sqrt(5), -1, 1, sqrt(5),
    # obtained by hand in the symmetric/antisymmetric sectors
    _, inter = tfim(2)
    dec = eig_hermitian(build_hamiltonian(inter).matrix)
    s5 = np.sqrt(5.0)
    assert np.allclose(dec.eigenvalues, [-s5, -1.0, 1.0, s5], atol=1e-12)


def test_eig_hermitian_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for n in (2, 5, 17, 40):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = (g + g.conj().T) / 2
        dec = eig_hermitian(m)
        scale = max(1.0, np.abs(m).max())
        assert np.abs(dec.reconstruct() - m).max() < 1e-10 * scale
        v = dec.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-14)


def _reversal_symmetric(g):
    """(G + J G J)/2 for Hermitian G: Hermitian, and J m J == m exactly."""
    return (g + g[::-1, ::-1]) / 2


def _spy_on_eigh(monkeypatch):
    """The shapes np.linalg.eigh is called on, from here on."""
    shapes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


def _assert_matches_dense(dec, m, tol=1e-12):
    """Eigenvalues of dense eigh within tol ||H||, reconstruction below
    1e-10 relative, orthonormal eigenvectors, ascending order."""
    scale = max(1.0, np.linalg.norm(m, 2))
    assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(m)).max() < tol * scale
    assert np.abs(dec.reconstruct() - m).max() < 1e-10 * scale
    v = dec.eigenvectors
    assert np.abs(v.conj().T @ v - np.eye(len(m))).max() < 1e-12
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    assert v.dtype == m.dtype


@pytest.mark.parametrize("dim", [2, 4, 16, 64])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_reversal_symmetric_matrices_solve_in_half_blocks(dim, kind,
                                                          monkeypatch):
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim))
    if kind == "complex":
        g = g + 1j * rng.normal(size=(dim, dim))
    m = _reversal_symmetric(g + g.conj().T)
    assert np.array_equal(m[::-1, ::-1], m)
    shapes = _spy_on_eigh(monkeypatch)
    dec = eig_hermitian(m)
    assert shapes == [(2, dim // 2, dim // 2)]
    _assert_matches_dense(dec, m)


def test_degenerate_sectors_match_the_dense_route(monkeypatch):
    # classical Ising (h = 0): every level is doubly degenerate, one state
    # in each flip sector, so the blocks interleave at every level
    lat = chain_lattice(8)
    m = build_hamiltonian(transverse_field_ising(lat, J=1.0, h=0.0)).matrix
    shapes = _spy_on_eigh(monkeypatch)
    dec = eig_hermitian(m)
    assert shapes == [(2, 128, 128)]
    _assert_matches_dense(dec, m)
    assert np.array_equal(dec.eigenvalues[0::2], dec.eigenvalues[1::2])
    # the Gibbs state at beta = 1 does not depend on the basis chosen
    # inside each degenerate level
    rho = (dec.eigenvectors * gibbs_state(dec, 1.0).weights) @ dec.eigenvectors.T
    e_ref, v_ref = np.linalg.eigh(m)  # the dense route
    p_ref = np.exp(-(e_ref - e_ref[0]))
    rho_ref = (v_ref * (p_ref / p_ref.sum())) @ v_ref.T
    assert np.abs(rho - rho_ref).max() < 1e-12


def test_reversal_route_keeps_the_solver_output(monkeypatch):
    # the block route stores eigh's eigenvector stack itself, and the
    # sector bases are views of it: no D x D array and no copy
    lat = chain_lattice(6)
    m = build_hamiltonian(random_bond_ising(lat, seed=2)).matrix
    returned, eigh = [], np.linalg.eigh

    def kept(a, *args, **kwargs):
        returned.append(eigh(a, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(np.linalg, "eigh", kept)
    dec = eig_hermitian(m)
    (e, w), = returned
    assert dec._vectors is w and w.shape == (2, 32, 32)
    assert np.array_equal(dec.eigenvalues, np.sort(e.ravel()))
    for (basis, energies), k, s in zip(_sector_bases(dec, 1), (0, 1), (1, -1)):
        assert np.shares_memory(basis, w[k])
        assert np.array_equal(energies, e[k])
        assert np.array_equal(dec.eigenvectors[:32, dec.sector == s],
                              w[k] * np.sqrt(0.5))


@pytest.mark.parametrize("name, flip_even", [
    ("tfim", True), ("random_bond", True), ("xxz", True), ("xxz_field", False),
    ("odd", False), ("generic", False), ("spin1_sz", False)])
def test_eig_hermitian_solves_at_full_size_only_without_reversal_symmetry(
        name, flip_even, monkeypatch):
    lat = chain_lattice(6)
    g = np.random.default_rng(5).normal(size=(64, 64))
    models = {"tfim": transverse_field_ising(lat),
              "random_bond": random_bond_ising(lat, seed=3),
              "xxz": heisenberg_xxz(lat, 1.0, 0.5),
              "xxz_field": heisenberg_xxz(lat, 1.0, 0.5, h=0.3)}
    m = (build_hamiltonian(models[name]).matrix if name in models else
         _reversal_symmetric(g[:5, :5] + g[:5, :5].T) if name == "odd" else
         np.diag([1.0, 0.0, -1.0]) if name == "spin1_sz" else
         g + g.T)
    # the odd sizes are reversal-even (5 x 5) and reversal-odd (S^z of a
    # spin 1), yet solved whole
    parity = {"xxz_field": 0, "generic": 0, "spin1_sz": -1}.get(name, 1)
    assert _reversal_parity(m) == parity
    shapes = _spy_on_eigh(monkeypatch)
    dec = eig_hermitian(m)
    dim = len(m)
    assert shapes == [(2, dim // 2, dim // 2) if flip_even else (dim, dim)]
    assert (dec.sector is not None) == flip_even
    _assert_matches_dense(dec, m)


@pytest.mark.parametrize("name", ["tfim", "random_bond", "xxz", "classical"])
def test_sector_marks_each_column_exactly(name):
    # J v_c = s_c v_c to the last bit, D/2 columns in each sector
    lat = chain_lattice(7)
    model = {"tfim": transverse_field_ising(lat),
             "random_bond": random_bond_ising(lat, seed=4),
             "xxz": heisenberg_xxz(lat, 1.0, 0.5),
             "classical": transverse_field_ising(lat, h=0.0)}[name]
    dec = eig_hermitian(build_hamiltonian(model).matrix)
    v = dec.eigenvectors
    assert dec.sector is not None
    assert set(dec.sector) == {1.0, -1.0}
    assert np.count_nonzero(dec.sector > 0) == dec.dim // 2
    assert np.array_equal(v[::-1], v * dec.sector)


def test_dense_decomposition_has_no_sector():
    lat = chain_lattice(5)
    for m in (build_hamiltonian(heisenberg_xxz(lat, 1.0, 0.5, h=0.3)).matrix,
              np.diag([1.0, 0.0, -1.0])):
        dec = eig_hermitian(m)
        assert dec.sector is None
        assert dec.sector is None


@pytest.mark.parametrize("parity", [1, -1, 0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_reversal_matrix_inverts_the_half_blocks(parity, kind):
    # _block_matrix inverts _sector_blocks for a Hermitian operator: an odd
    # one is rebuilt from its one off-diagonal block, and parity 0 is the
    # whole matrix as one block
    rng = np.random.default_rng(7)
    g = rng.normal(size=(12, 12))
    if kind == "complex":
        g = g + 1j * rng.normal(size=(12, 12))
    g = g + g.conj().T
    m = (g + parity * g[::-1, ::-1]) / 2
    assert _reversal_parity(m) == parity
    blocks = _sector_blocks(m, parity)
    expected = {1: [(0, 0), (1, 1)], -1: [(0, 1)], 0: [(0, 0)]}[parity]
    assert [(left, right) for left, right, _ in blocks] == expected
    if parity == -1:
        assert np.array_equal(blocks[0][2], _reversal_blocks(m)[1])
    if parity == 1:
        assert all(np.array_equal(block, half) for (_, _, block), half
                   in zip(blocks, _reversal_blocks(m)))
    out = np.empty_like(m)
    back = _block_matrix(blocks, parity, out=out)
    assert back is (out if parity else m)
    assert _reversal_parity(back) == parity
    assert np.abs(back - m).max() < 1e-15
    assert np.array_equal(_block_matrix(_sector_blocks(m, parity), parity),
                          back)


@pytest.mark.parametrize("op", [PAULI_Z, PAULI_Y, PAULI_X],
                         ids=["Z", "Y", "X"])
@pytest.mark.parametrize("site", [0, 3])
def test_sector_blocks_rebuild_the_dense_evolution(op, site):
    # tau_t(A) = V (e^{itE_m} e^{-itE_n} Abar_mn) V* by the dense route,
    # against its half blocks formed in the sector eigenbases
    # W+- = sqrt 2 V[:D/2, +- columns] and written back by _block_matrix
    lat = chain_lattice(6)
    dec = eig_hermitian(build_hamiltonian(random_bond_ising(lat, seed=1)).matrix)
    a = embed(LocalOperator((site,), op), lat).matrix
    parity = _reversal_parity(a)
    t, half = 0.7, dec.dim // 2
    v, e = dec.eigenvectors, dec.eigenvalues
    phase = np.exp(1j * t * e)
    tau = (v * phase) @ (v.T @ a @ v) @ (v * phase).conj().T
    cols = [dec.sector > 0, dec.sector < 0]
    w = [np.sqrt(2.0) * v[:half, c] for c in cols]
    u = [phase[c] for c in cols]
    blocks = _reversal_blocks(a)

    def sector_block(left, right, m):
        abar = w[left].T @ m @ w[right]
        return (w[left] * u[left]) @ abar @ (w[right] * u[right]).conj().T

    if parity < 0:
        halves = [(0, 1, sector_block(0, 1, blocks[1]))]
    else:
        halves = [(0, 0, sector_block(0, 0, blocks[0])),
                  (1, 1, sector_block(1, 1, blocks[1]))]
    out = np.empty((dec.dim, dec.dim), dtype=complex)
    assert np.abs(_block_matrix(halves, parity, out=out) - tau).max() < 1e-13


def test_eig_hermitian_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        eig_hermitian(np.ones((2, 3)))


def _even_terms_summing_to_a_non_hermitian_h():
    # each term is reversal-even and Hermitian within 1e-12 of its own
    # scale; the real parts cancel in the sum and leave an H whose
    # asymmetry, 2e-13, is its whole scale
    lat = chain_lattice(2)
    b = 1.0 + 1e-13j
    return Interaction(lat, {(0,): np.array([[0.0, b], [b, 0.0]]),
                             (0, 1): -np.kron(PAULI_X, PAULI_I)})


def test_eig_hermitian_of_an_interaction_refuses_what_the_dense_call_refuses():
    inter = _even_terms_summing_to_a_non_hermitian_h()
    assert len(spectral._assembled(inter, top=True)) == 2  # top rows
    for h in (inter, build_hamiltonian(inter).matrix):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(h)
    with pytest.raises(ValueError, match="cap"):
        eig_hermitian(tfim(13)[1])


def test_eig_hermitian_checks_a_whole_reversal_even_h_in_its_top_rows(
        monkeypatch):
    # a reversal-even H given whole takes the route of one assembled in its
    # top rows: the Hermiticity check reads H_TL and H_TR J, each D/2 x D/2,
    # and never the D x D matrix
    h = build_hamiltonian(random_bond_ising(chain_lattice(10), seed=1)).matrix
    shapes, real = [], spectral._is_hermitian

    def spy(*blocks):
        shapes.append([b.shape for b in blocks])
        return real(*blocks)

    monkeypatch.setattr(spectral, "_is_hermitian", spy)
    dec = eig_hermitian(h)
    assert shapes == [[(512, 512), (512, 512)]]
    assert dec.sector is not None


def test_eig_hermitian_of_an_interaction_allocates_no_square_array():
    # H's top rows and its blocks, or the blocks and their eigenvectors,
    # are alive at once: 8 D^2 bytes at the peak when real.  Assembling
    # the D x D H first adds its 8 D^2 bytes, twice the bound.
    inter = random_bond_ising(chain_lattice(10), seed=1)
    eig_hermitian(inter)  # LAPACK and the allocator are warm
    tracemalloc.start()
    try:
        dec = eig_hermitian(inter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.sector is not None
    assert peak <= 1.25 * 8 * dec.dim ** 2


def _below_diagonal_nan(dim):
    m = np.eye(dim)
    m[dim - 10, 2] = np.nan  # in the last row block, only below the diagonal
    return m


@pytest.mark.parametrize("m", [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [np.nan, 1.0]]),
    _below_diagonal_nan(600),
], ids=["nan-diagonal", "inf", "nan-lower", "nan-lower-later-block"])
def test_eig_hermitian_refuses_non_finite_input(m):
    with pytest.raises(ValueError, match="finite"):
        eig_hermitian(m)


def test_transform_diagonal_fast_path_matches_general():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dec = eig_hermitian(g + g.conj().T)
    d = np.diag(rng.normal(size=8).astype(complex))
    direct = dec.eigenvectors.conj().T @ d @ dec.eigenvectors
    assert np.abs(dec.transform(d) - direct).max() < 1e-12


_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # J maps it to sigma-minus


@pytest.mark.parametrize("model", ["tfim", "xxz"])
@pytest.mark.parametrize("op, parity", [
    (PAULI_Z, -1), (PAULI_Y, -1), (PAULI_X, 1), (1j * PAULI_Z, -1),
    (_SIGMA_PLUS, 0),
], ids=["Z", "Y", "X", "iZ", "sigma_plus"])
@pytest.mark.parametrize("n, site", [(6, 0), (8, 5), (10, 3)])
def test_transform_in_the_sectors_matches_the_dense_product(model, op, parity,
                                                            n, site):
    # the block route of transform against V* m V written out; i Z is odd
    # but not Hermitian, so both off-diagonal blocks are read, and sigma+
    # has no parity, so it takes the dense V
    lat = chain_lattice(n)
    inter = {"tfim": transverse_field_ising(lat, h=1.3),
             "xxz": heisenberg_xxz(lat, 1.0, 0.5)}[model]
    dec = eig_hermitian(build_hamiltonian(inter).matrix)
    assert dec.sector is not None
    m = embed(LocalOperator((site,), op), lat).matrix
    assert _reversal_parity(m) == parity
    v = dec.eigenvectors
    got = dec.transform(m)
    assert got.shape == (dec.dim, dec.dim)
    assert np.abs(got - v.conj().T @ m @ v).max() < 1e-13
    same = dec.sector[:, None] == dec.sector[None, :]
    if parity < 0:
        assert not got[same].any()
    if parity > 0:
        assert not got[~same].any()


def test_complex_transform_on_real_eigenvectors_stays_in_real_products():
    # XXZ is real and Y is not: numpy would copy the real eigenvectors to
    # complex for each product, three result-sized arrays at the peak
    lat = chain_lattice(9)
    dec = eig_hermitian(build_hamiltonian(heisenberg_xxz(lat, 1.0, 0.5)).matrix)
    m = embed(single_site(2, "Y"), lat).matrix
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = dec.transform(m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * 512 ** 2
    v = dec.eigenvectors.astype(complex)
    assert np.abs(got - v.conj().T @ (m @ v)).max() < 1e-13


def _spy_on_eigenvectors(monkeypatch) -> list:
    """The dimension of each decomposition whose eigenvectors are read,
    from here on."""
    reads = []
    formed = SpectralDecomposition.eigenvectors.fget

    def spy(dec):
        reads.append(dec.dim)
        return formed(dec)

    monkeypatch.setattr(SpectralDecomposition, "eigenvectors", property(spy))
    return reads


def test_sector_routes_never_form_the_dense_eigenvectors(monkeypatch):
    # on a decomposition solved in reversal blocks V exists only while
    # eigenvectors is read; the routes below work on the stored W+- alone
    reads = _spy_on_eigenvectors(monkeypatch)
    lat = chain_lattice(7)
    ising = transverse_field_ising(lat, h=1.2)
    for op in ("Z", "Y", "X"):
        theorem_check(ising, 0.5, 1.0, [1, 2, 3, 4], op_name=op)
    ctx = evolution_context(ising)
    assert ctx.decomposition._vectors.shape == (2, 64, 64)
    for a, b in ((0, 6), (6, 0)):
        lr_commutator_scan(ising, single_site(a, "Z"), single_site(b, "Z"),
                           [0.0, 0.5, 1.0], mu=1.0)
    scan = locality_scan(ising, single_site(3, "Z"), [1.0, 2.0], [0.5],
                         mu=1.0)
    assert scan.norm_route == "flip_odd"
    state = gibbs_state(build_hamiltonian(heisenberg_xxz(lat, 1.0, 0.5)).matrix,
                        0.7)
    y0, y4 = (embed(single_site(k, "Y"), lat) for k in (0, 4))
    kms_function(state, y0, y4).eval_grid(np.linspace(-1.0, 1.0, 5))
    contour_grid(state, y0, y4, nodes=64)
    assert reads == []
    ctx.decomposition.reconstruct()  # the spy sees a read that forms V
    assert reads == [128]


@pytest.mark.parametrize("op", [_SIGMA_PLUS], ids=["sigma_plus"])
def test_evolve_reads_the_dense_eigenvectors_once(monkeypatch, op):
    # sigma+ has no parity: evolve reads it whole in the V of the bases,
    # and V is formed once
    lat = chain_lattice(6)
    inter = random_bond_ising(lat, seed=2)
    ctx = evolution_context(inter)
    assert ctx.decomposition.sector is not None
    a = LocalOperator((2,), op)
    reads = _spy_on_eigenvectors(monkeypatch)
    got = evolve(ctx, a, 0.6).matrix
    assert reads == [64]
    monkeypatch.undo()
    h = build_hamiltonian(inter).matrix
    e, v = np.linalg.eigh(h)
    u = (v * np.exp(0.6j * e)) @ v.conj().T
    assert np.abs(got - u @ embed(a, lat).matrix @ u.conj().T).max() < 1e-12


def test_lr_scan_of_an_operator_without_a_parity_reads_the_eigenvectors_once(
        monkeypatch):
    # X + Z has no parity and B = Z is diagonal with two levels: the pair
    # takes the one-product route, whose one transform of A reads V once
    lat = chain_lattice(6)
    inter = random_bond_ising(lat, seed=2)
    ctx = evolution_context(inter)
    assert ctx.decomposition.sector is not None
    a = LocalOperator((1,), PAULI_X + PAULI_Z)
    b = single_site(4, "Z")
    times = [0.0, 0.5, 1.5]
    reads = _spy_on_eigenvectors(monkeypatch)
    scan = lr_commutator_scan(inter, a, b, times, mu=1.0)
    assert reads == [64]
    monkeypatch.undo()
    e, v = np.linalg.eigh(build_hamiltonian(inter).matrix)
    bmat = embed(b, lat).matrix
    for t, row in zip(times, scan.measurements):
        u = (v * np.exp(1j * t * e)) @ v.conj().T
        tau = u @ embed(a, lat).matrix @ u.conj().T
        ref = spectral_norm(bmat @ tau - tau @ bmat)
        assert abs(row.commutator_norm - ref) < 1e-12


@pytest.mark.parametrize("op", [PAULI_Z, PAULI_Y, PAULI_X],
                         ids=["Z", "Y", "X"])
def test_evolve_in_the_sectors_reads_no_dense_eigenvectors(monkeypatch, op):
    # an operator with a parity evolves in its sector blocks, as the scans
    # do: V is never formed, and every factor of every product, in the
    # read (_transform) and in the evolution, is at most D/2 = 32 wide
    lat = chain_lattice(6)
    inter = random_bond_ising(lat, seed=2)
    ctx = evolution_context(inter)
    half = ctx.decomposition.dim // 2
    a = LocalOperator((2,), op)
    shapes = []
    transform, evolution = spectral._transform, dynamics._evolution

    def read(left, m, right):
        shapes.append(left.shape + m.shape + right.shape)
        return transform(left, m, right)

    def evolved(bases, blocks):
        shapes.extend(b.shape + bases[l][0].shape + bases[r][0].shape
                      for l, r, b in blocks)
        return evolution(bases, blocks)

    reads = _spy_on_eigenvectors(monkeypatch)
    monkeypatch.setattr(spectral, "_transform", read)
    monkeypatch.setattr(dynamics, "_evolution", evolved)
    got = evolve(ctx, a, 0.6).matrix
    assert reads == []
    assert shapes and max(max(shape) for shape in shapes) == half
    monkeypatch.undo()
    h = build_hamiltonian(inter).matrix
    e, v = np.linalg.eigh(h)
    u = (v * np.exp(0.6j * e)) @ v.conj().T
    assert np.abs(got - u @ embed(a, lat).matrix @ u.conj().T).max() < 1e-12


@pytest.mark.parametrize("parity", [1, -1])
def test_block_matrix_writes_a_non_hermitian_operator_from_both_blocks(
        parity):
    # given both blocks of its parity, _block_matrix and _block_diagonal
    # write back any parity-definite operator, Hermitian or not
    rng = np.random.default_rng(5)
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    m = (g + parity * g[::-1, ::-1]) / 2
    assert _reversal_parity(m) == parity
    blocks = _sector_blocks(m, parity, hermitian=False)
    assert len(blocks) == 2
    assert np.abs(_block_matrix(blocks, parity) - m).max() < 1e-15
    diagonals = [(l, r, np.diagonal(b)) for l, r, b in blocks]
    assert np.abs(_block_diagonal(diagonals, parity)
                  - np.diagonal(m)).max() < 1e-15


_SPIN1 = {"Sx": np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2),
          "Sy": np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2),
          "Sz": np.diag([1.0, 0.0, -1.0]),
          "iSz": 1j * np.diag([1.0, 0.0, -1.0]),
          "S+": np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]) * np.sqrt(2)}


@pytest.mark.parametrize("local_dim, ops", [
    (2, {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "iZ": 1j * PAULI_Z,
         "sigma+": _SIGMA_PLUS}),
    (3, _SPIN1)], ids=["qubit", "qutrit"])
@pytest.mark.parametrize("n", [1, 4, 5])
def test_embedded_operator_has_its_local_matrix_parity(local_dim, ops, n):
    # J is the product of the per-site reversals, so J (I x A x I) J =
    # I x J_s A J_s x I: the parity read from the local matrix is the
    # window matrix's, which theorem_check and both scans rely on
    chain = chain_lattice(n)
    lat = Lattice(chain.sites, chain.distances, (local_dim,) * n)
    parities = set()
    for name, op in ops.items():
        local = _reversal_parity(op)
        parities.add(local)
        for site in range(n):
            m = embed(LocalOperator((site,), op), lat).matrix
            assert _reversal_parity(m) == local, (name, site)
    assert parities == {1, -1, 0}


def test_block_parity_is_zero_without_sectors():
    # the parity the block form reads an operator with: none on a
    # decomposition solved whole, the operator's own on one with sectors
    lat = chain_lattice(4)
    z = embed(single_site(1, "Z"), lat).matrix
    ops = (z, PAULI_Z, PAULI_X)
    blocks = eig_hermitian(
        build_hamiltonian(transverse_field_ising(lat)).matrix)
    whole = eig_hermitian(build_hamiltonian(
        heisenberg_xxz(lat, 1.0, 0.5, h=0.3)).matrix)
    assert [_block_parity(blocks, m) for m in ops] == [-1, -1, 1]
    assert [_block_parity(whole, m) for m in ops] == [0, 0, 0]


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

def test_build_hamiltonian_matches_hand_built():
    lat, inter = tfim(3, J=0.8, h=0.4)
    zz = np.kron(PAULI_Z, PAULI_Z)
    manual = (np.kron(-0.8 * zz, PAULI_I) + np.kron(PAULI_I, -0.8 * zz)
              - 0.4 * (np.kron(np.kron(PAULI_X, PAULI_I), PAULI_I)
                       + np.kron(np.kron(PAULI_I, PAULI_X), PAULI_I)
                       + np.kron(np.kron(PAULI_I, PAULI_I), PAULI_X)))
    assert np.abs(build_hamiltonian(inter).matrix - manual).max() < 1e-14


def test_build_hamiltonian_enforces_dimension_cap():
    # 2^13 states: refused before anything window-sized is allocated
    lat, inter = tfim(13)
    with pytest.raises(ValueError, match="cap"):
        build_hamiltonian(inter)
    assert DIM_CAP == 4096


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def test_derivation_is_commutator_with_hamiltonian():
    lat, inter = tfim(3)
    a = embed(single_site(1, "Z"), lat)
    ham = build_hamiltonian(inter)
    delta = derivation_delta(a, inter)
    assert np.allclose(delta.matrix, ham.matrix @ a.matrix - a.matrix @ ham.matrix)


def test_derivation_equals_sum_of_term_commutators():
    lat, inter = tfim(3, J=0.6, h=1.1)
    a = embed(single_site(0, "Y"), lat)
    total = np.zeros_like(a.matrix)
    for sup, m in inter.terms.items():
        term = embed(LocalOperator(sup, m), lat)
        total += commutator(term, a).matrix
    delta = derivation_delta(a, inter)
    assert np.abs(delta.matrix - total).max() < 1e-12


def test_derivation_adjoint_sign_convention():
    # delta(A)^dagger = -delta(A^dagger): no factor of i in the generator
    rng = np.random.default_rng(13)
    lat, inter = tfim(3)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = embed(LocalOperator((1,), m), lat)
    adag = embed(LocalOperator((1,), m.conj().T), lat)
    lhs = derivation_delta(a, inter).matrix.conj().T
    rhs = -derivation_delta(adag, inter).matrix
    assert np.abs(lhs - rhs).max() < 1e-12


def test_derivation_embeds_a_local_operator_on_the_whole_lattice():
    lat, inter = tfim(3, J=0.6, h=1.1)
    a = single_site(1, "Y")
    delta = derivation_delta(a, inter)
    expected = commutator(build_hamiltonian(inter), embed(a, lat))
    assert delta.window == expected.window == lat.sites
    assert np.array_equal(delta.matrix, expected.matrix)


def test_derivation_rejects_mismatched_hamiltonian_window():
    # H lives on the whole lattice, A built by hand on sites 0 and 1
    lat, inter = tfim(4)
    a = EmbeddedOperator((0, 1), (0,), np.kron(PAULI_Z, PAULI_I))
    with pytest.raises(ValueError, match="different windows"):
        derivation_delta(a, inter)
