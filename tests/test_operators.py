"""Containers, embedding, norms, partial traces and twirls."""
import tracemalloc

import numpy as np
import pytest

from correlab import (Interaction, Lattice, chain_lattice, grid_lattice,
                      LocalOperator, EmbeddedOperator,
                      single_site, embed, spectral_norm, commutator,
                      partial_trace, conditional_expectation, haar_unitaries,
                      sampled_twirl, build_hamiltonian, eig_hermitian,
                      transverse_field_ising, random_bond_ising,
                      heisenberg_xxz, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
from correlab.operators import _add_embedded, _embed_ordered, _embedded_trace

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def kron(*ms):
    out = np.eye(1, dtype=complex)
    for m in ms:
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_local_operator_stores_sorted_support():
    m = np.eye(4, dtype=complex)
    op = LocalOperator((2, 0), m)
    assert op.support == (0, 2)
    assert np.allclose(op.matrix, m)  # matrix is taken in sorted order


def test_local_operator_rejects_duplicates_and_nonsquare():
    with pytest.raises(ValueError):
        LocalOperator((0, 0), np.eye(4))
    with pytest.raises(ValueError):
        LocalOperator((0,), np.ones((2, 3)))


def test_single_site_by_name():
    op = single_site(3, "Y")
    assert op.support == (3,)
    assert np.allclose(op.matrix, PAULI_Y)


def test_real_operands_stay_real():
    lat = chain_lattice(4)
    z = embed(single_site(0, "Z"), lat)
    assert z.matrix.dtype == PAULI_Z.dtype == np.float64
    assert conditional_expectation(z, [0, 1], lat).matrix.dtype == np.float64
    for inter in (transverse_field_ising(lat), random_bond_ising(lat, seed=3),
                  heisenberg_xxz(lat, delta=0.5, h=0.3)):
        assert build_hamiltonian(inter).matrix.dtype == np.float64
    assert single_site(0, "Y").matrix.dtype == np.complex128
    assert embed(single_site(0, "Y"), lat).matrix.dtype == np.complex128
    # one complex term makes the whole assembly complex
    ham = build_hamiltonian(Interaction(lat, {(0,): PAULI_Y, (1,): PAULI_Z}))
    assert ham.matrix.dtype == np.complex128


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_single_site():
    lat = chain_lattice(3)
    emb = embed(single_site(1, "X"), lat)
    assert emb.window == (0, 1, 2)
    assert emb.support == (1,)
    assert np.allclose(emb.matrix, kron(PAULI_I, PAULI_X, PAULI_I))


def test_embed_two_site_gap():
    lat = chain_lattice(3)
    op = LocalOperator((0, 2), np.kron(PAULI_Z, PAULI_X))
    emb = embed(op, lat)
    assert np.allclose(emb.matrix, kron(PAULI_Z, PAULI_I, PAULI_X))


def test_embed_follows_lattice_order_not_sort_order():
    # canonical site order is ("b", "a"); the operator on "a" must land on
    # the second tensor factor even though "a" sorts first
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    lat = Lattice(("b", "a"), d, (2, 2))
    emb = embed(single_site("a", "X"), lat)
    assert np.allclose(emb.matrix, kron(PAULI_I, PAULI_X))


def test_embed_refuses_a_support_off_the_lattice():
    with pytest.raises(ValueError, match=r"support sites \['5'\] outside "
                                         "the lattice"):
        embed(single_site(5, "Z"), chain_lattice(3))


def test_embed_checks_dimensions():
    lat = chain_lattice(2)
    with pytest.raises(ValueError, match="dimension"):
        embed(LocalOperator((0,), np.eye(4)), lat)


def test_embed_preserves_norm_product_commutator():
    rng = np.random.default_rng(7)
    lat = chain_lattice(3)
    m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    e1 = embed(LocalOperator((0,), m1), lat)
    e2 = embed(LocalOperator((2,), m2), lat)
    assert abs(spectral_norm(e1) - spectral_norm(m1)) < 1e-12
    assert np.allclose(e1.matrix @ e2.matrix, kron(m1, PAULI_I, m2))
    # disjoint supports commute
    assert spectral_norm(commutator(e1, e2)) < 1e-12


# ---------------------------------------------------------------------------
# embedding and assembly against the dense kron-and-permute route
# ---------------------------------------------------------------------------

def kron_embedding(matrix, factor_sites, lat, win):
    """Reference embedding: kron with the complement identity, then permute
    the basis into window order with one fancy index per axis."""
    dims = [lat.local_dims[lat.index(s)] for s in win]
    pos_of = {s: i for i, s in enumerate(win)}
    comp = [s for s in win if s not in set(factor_sites)]
    dim_comp = int(np.prod([dims[pos_of[s]] for s in comp]))
    big = np.kron(matrix, np.eye(dim_comp, dtype=complex))
    order = [pos_of[s] for s in factor_sites] + [pos_of[s] for s in comp]
    digits = np.indices(dims).reshape(len(dims), -1)
    pos = np.zeros(digits.shape[1], dtype=np.int64)
    for s in order:
        pos = pos * dims[s] + digits[s]
    return big[np.ix_(pos, pos)]


def _random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def qutrit_chain(n):
    """chain_lattice(n)'s sites and metric with three levels per site."""
    chain = chain_lattice(n)
    return Lattice(chain.sites, chain.distances, (3,) * n)


def on_window(inter, window):
    """inter's terms inside the window, on the window's own lattice: the
    interaction itself when window is None."""
    if window is None:
        return inter
    lat = inter.lattice
    win = lat.sort_sites(window)
    idx = [lat.index(s) for s in win]
    sub = Lattice(win, lat.distances[np.ix_(idx, idx)],
                  tuple(lat.local_dims[i] for i in idx))
    return Interaction(sub, {sup: m for sup, m in inter.terms.items()
                             if set(sup) <= set(win)})


@pytest.mark.parametrize("lat, support, window", [
    (chain_lattice(5), (0,), None),
    (chain_lattice(5), (4,), None),
    (chain_lattice(5), (3, 1), None),
    (chain_lattice(5), (4, 1), [1, 2, 4]),
    (chain_lattice(5), (3, 1), [1, 3]),
    (chain_lattice(3), (2, 0, 1), None),
    (qutrit_chain(4), (2, 0), None),
    (qutrit_chain(4), (3,), [1, 3]),
    (grid_lattice(2, 3), ((1, 0), (0, 2)), None),
    (grid_lattice(2, 3), ((1, 1),), None),
    (Lattice(("b", "a"), np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 3)),
     ("a", "b"), None),
])
def test_embedding_matches_kron_reference(lat, support, window):
    rng = np.random.default_rng(41)
    m = _random_matrix(rng, lat.window_dim(support))
    win = lat.sort_sites(window) if window is not None else lat.sites
    op = LocalOperator(support, m)  # sorts the support, matrix as given
    emb = (embed(op, lat).matrix if window is None
           else _embed_ordered(m, op.support, lat, win))
    assert np.array_equal(emb, kron_embedding(m, op.support, lat, win))
    full = EmbeddedOperator(win, win, _random_matrix(rng, len(emb)))
    for region in (support[:1], support, win, ()):
        ce = conditional_expectation(full, region, lat)
        reg = lat.sort_sites(region)
        comp_dim = len(emb) // lat.window_dim(reg)
        keep = [win.index(s) for s in reg]
        dims = [lat.local_dims[lat.index(s)] for s in win]
        reduced = partial_trace(full.matrix, dims, keep) / comp_dim
        assert np.array_equal(ce.matrix, kron_embedding(reduced, reg, lat, win))


@pytest.mark.parametrize("support", [("a",), ("b",), ("a", "b")])
def test_embedded_trace_matches_the_dense_trace(support):
    # canonical site order is ("b", "a"), so the support ("a", "b") has its
    # factors in the other order; a 1-D m stands for diag(m)
    lat = Lattice(("b", "a"), np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 3))
    rng = np.random.default_rng(43)
    op = LocalOperator(support, _random_matrix(rng, lat.window_dim(support)))
    emb = embed(op, lat).matrix
    m = _random_matrix(rng, emb.shape[0])
    got = _embedded_trace(m, op.matrix, op.support, lat, lat.sites)
    assert abs(got - np.trace(m @ emb)) <= 1e-13 * np.abs(m).sum()
    d = np.diagonal(m).copy()
    got = _embedded_trace(d, op.matrix, op.support, lat, lat.sites)
    assert abs(got - np.trace(np.diag(d) @ emb)) <= 1e-13 * np.abs(d).sum()


@pytest.mark.parametrize("inter, window", [
    (transverse_field_ising(chain_lattice(6), J=0.8, h=1.3), None),
    (random_bond_ising(chain_lattice(6), J=1.0, h=2.0, seed=5), None),
    (heisenberg_xxz(chain_lattice(5), J=1.0, delta=0.5, h=0.3), None),
    (random_bond_ising(chain_lattice(7), seed=2), [2, 3, 4, 5]),
    (heisenberg_xxz(chain_lattice(6), delta=1.5, h=0.7), [0, 1, 2]),
])
def test_assembly_matches_sum_of_kron_embeddings(inter, window):
    # a window's H is the H of the terms inside it, on its own lattice
    inter = on_window(inter, window)
    lat = inter.lattice
    ref = np.zeros((lat.window_dim(lat.sites),) * 2, dtype=complex)
    for sup, m in inter.terms.items():
        ref += kron_embedding(m, sup, lat, lat.sites)
    assert np.array_equal(build_hamiltonian(inter).matrix, ref)


def test_assembly_follows_lattice_order_not_sort_order():
    # canonical site order is ("b", "a"); a term's factors follow that order
    lat = Lattice(("b", "a"), np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 2))
    m = np.kron(PAULI_X, PAULI_Z) + np.kron(PAULI_Z, PAULI_I)
    ham = build_hamiltonian(Interaction(lat, {("b", "a"): m}))
    assert np.array_equal(ham.matrix, m)


@pytest.mark.parametrize("factor_sites", [
    (2,), (0,), (3, 1), (0, 3), ("b",), ("b", "a"), ("a", "b"),
    ("a", 0, "b", 1, 2, 3)])
@pytest.mark.parametrize("rows", [1, 7, 24, 48])
def test_embedding_into_top_rows_adds_the_rows_of_the_whole_one(factor_sites,
                                                              rows):
    # a window of local dimensions (2, 3, 2, 2, 2, 2), cut into top rows
    # at the first factor's half and inside the others; each row holds the
    # bits of the same row of the whole embedding
    lat = Lattice(("a", "b", 0, 1, 2, 3), np.zeros((6, 6)) + 1.0 - np.eye(6),
                  (2, 3, 2, 2, 2, 2))
    rng = np.random.default_rng(len(factor_sites) + rows)
    d = lat.window_dim(factor_sites)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    start = rng.normal(size=(96, 96)) + 0j
    whole = start.copy()
    _add_embedded(whole, m, factor_sites, lat, lat.sites)
    top = start[:rows].copy()
    _add_embedded(top, m, factor_sites, lat, lat.sites)
    assert np.array_equal(top, whole[:rows])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_and_assembly_allocate_little_beyond_the_output():
    lat = chain_lattice(10)
    op = single_site(5, "Z")
    emb, peak = _traced_peak(lambda: embed(op, lat))
    assert peak <= 1.25 * emb.matrix.nbytes
    inter = random_bond_ising(lat, seed=1)
    ham, peak = _traced_peak(lambda: build_hamiltonian(inter))
    assert peak <= 1.25 * ham.matrix.nbytes
    # H is flip-even, so it is solved as two half blocks whose eigenvectors
    # grow in place into the dense ones: 8 D^2 bytes when real
    _, peak = _traced_peak(lambda: eig_hermitian(ham.matrix))
    assert peak <= 1.25 * 8 * ham.dim ** 2
    # the whole window: a tensor-axis permutation, no D^2 index arrays
    whole = LocalOperator(lat.sites, np.diag(np.arange(1024.0)) + 0j)
    emb, peak = _traced_peak(lambda: embed(whole, lat))
    assert peak <= 1.25 * emb.matrix.nbytes
    assert np.array_equal(emb.matrix, whole.matrix)


# ---------------------------------------------------------------------------
# norms and commutators
# ---------------------------------------------------------------------------

def test_spectral_norm_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        herm = g + g.conj().T
        anti = g - g.conj().T
        for m in (g, herm, anti):
            assert abs(spectral_norm(m) - np.linalg.norm(m, 2)) < 1e-10


def test_commutator_xz_frozen():
    lat = chain_lattice(1)
    x = embed(single_site(0, "X"), lat)
    z = embed(single_site(0, "Z"), lat)
    assert np.allclose(commutator(x, z).matrix, -2j * PAULI_Y)


def test_product_rejects_mismatched_windows():
    e1 = EmbeddedOperator((0, 1), (0,), kron(PAULI_X, PAULI_I))
    e2 = EmbeddedOperator((1, 2), (2,), kron(PAULI_I, PAULI_X))
    with pytest.raises(ValueError, match="window"):
        commutator(e1, e2)


# ---------------------------------------------------------------------------
# partial trace and conditional expectation
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = np.kron(a, b)
    assert np.allclose(partial_trace(m, [2, 3], [0]), a * np.trace(b))
    assert np.allclose(partial_trace(m, [2, 3], [1]), b * np.trace(a))
    assert np.allclose(partial_trace(m, [2, 3], [0, 1]), m)


def test_partial_trace_bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, [2, 2], [0]), np.eye(2) / 2)


def test_conditional_expectation_cnot_frozen():
    # averaging the target qubit of CNOT leaves the projector on control |0>
    lat = chain_lattice(2)
    emb = embed(LocalOperator((0, 1), CNOT), lat)
    proj = conditional_expectation(emb, [0], lat)
    expected = kron(np.array([[1, 0], [0, 0]], dtype=complex), PAULI_I)
    assert np.allclose(proj.matrix, expected)


def test_conditional_expectation_is_unital_projection():
    rng = np.random.default_rng(23)
    lat = chain_lattice(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = EmbeddedOperator(lat.sites, lat.sites, m)
    ce1 = conditional_expectation(op, [0, 1], lat)
    ce2 = conditional_expectation(ce1, [0, 1], lat)
    assert np.allclose(ce1.matrix, ce2.matrix)
    ident = EmbeddedOperator(lat.sites, (), np.eye(8, dtype=complex))
    assert np.allclose(conditional_expectation(ident, [1], lat).matrix, np.eye(8))
    assert spectral_norm(ce1) <= spectral_norm(op) + 1e-12


def test_conditional_expectation_image_commutes_with_complement():
    rng = np.random.default_rng(29)
    lat = chain_lattice(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = EmbeddedOperator(lat.sites, lat.sites, m)
    ce = conditional_expectation(op, [1], lat)
    for s in (0, 2):
        z = embed(single_site(s, "Z"), lat)
        assert spectral_norm(commutator(ce, z)) < 1e-12


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_unitaries_are_unitary():
    rng = np.random.default_rng(31)
    us = haar_unitaries(rng, 4, 10)
    assert us.shape == (10, 4, 4)
    for u in us:
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_sampled_twirl_seeded_and_converging():
    lat = chain_lattice(2)
    emb = embed(LocalOperator((0, 1), CNOT), lat)
    exact = conditional_expectation(emb, [0], lat).matrix

    t1 = sampled_twirl(emb, [0], lat, samples=128, seed=0)
    t2 = sampled_twirl(emb, [0], lat, samples=128, seed=0)
    t3 = sampled_twirl(emb, [0], lat, samples=128, seed=1)
    assert np.allclose(t1.matrix, t2.matrix)
    assert not np.allclose(t1.matrix, t3.matrix)

    err_small = spectral_norm(t1.matrix - exact)
    big = sampled_twirl(emb, [0], lat, samples=8192, seed=0)
    err_big = spectral_norm(big.matrix - exact)
    assert err_big < err_small


def test_sampled_twirl_full_region_is_identity_map():
    rng = np.random.default_rng(37)
    lat = chain_lattice(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = EmbeddedOperator(lat.sites, lat.sites, m)
    tw = sampled_twirl(op, [0, 1], lat, samples=3, seed=0)
    assert np.allclose(tw.matrix, m)

