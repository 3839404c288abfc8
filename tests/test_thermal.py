"""Gibbs states, the KMS function on its strip, and the two correlator routes."""
import warnings

import numpy as np
import pytest
import scipy.linalg

from correlab import (chain_lattice, transverse_field_ising, embed,
                      single_site, build_hamiltonian, eig_hermitian,
                      gibbs_state, kms_function, ordinary_correlator,
                      canonical_correlator)
from correlab.thermal import _duhamel_kernel


def setup_chain(n=3, J=1.0, h=0.9, beta=1.2):
    lat = chain_lattice(n)
    inter = transverse_field_ising(lat, J=J, h=h)
    ham = build_hamiltonian(inter).matrix
    st = gibbs_state(ham, beta)
    return lat, ham, st


def density_matrix(ham, beta):
    rho = scipy.linalg.expm(-beta * ham)
    return rho / np.trace(rho)


def brute_f(ham, beta, a, b, z):
    """phi(A tau_z(B)) straight from matrix exponentials."""
    rho = density_matrix(ham, beta)
    u = scipy.linalg.expm(1j * z * ham)
    uinv = scipy.linalg.expm(-1j * z * ham)
    return np.trace(rho @ a @ u @ b @ uinv)


def brute_g(ham, beta, a, b, z):
    rho = density_matrix(ham, beta)
    u = scipy.linalg.expm(1j * z * ham)
    uinv = scipy.linalg.expm(-1j * z * ham)
    return np.trace(rho @ u @ b @ uinv @ a)


# ---------------------------------------------------------------------------
# Gibbs state
# ---------------------------------------------------------------------------

def test_gibbs_state_energies_and_weights():
    _, ham, st = setup_chain()
    assert st.energies[0] == 0.0
    assert np.all(np.diff(st.energies) >= -1e-14)
    assert abs(st.weights.sum() - 1.0) < 1e-14
    assert abs(st.log_partition - np.log(np.exp(-st.beta * st.energies).sum())) < 1e-14


def test_gibbs_state_rejects_negative_beta():
    with pytest.raises(ValueError):
        gibbs_state(np.eye(2), -0.5)


def test_expectation_matches_trace_formula():
    rng = np.random.default_rng(17)
    lat, ham, st = setup_chain()
    rho = density_matrix(ham, st.beta)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert abs(st.expectation(g) - np.trace(rho @ g)) < 1e-12


def test_gibbs_state_accepts_decomposition():
    _, ham, _ = setup_chain()
    dec = eig_hermitian(ham)
    st1 = gibbs_state(ham, 0.7)
    st2 = gibbs_state(dec, 0.7)
    assert np.allclose(st1.weights, st2.weights)


def test_beta_zero_is_uniform():
    _, ham, _ = setup_chain()
    st = gibbs_state(ham, 0.0)
    assert np.allclose(st.weights, np.full(8, 1 / 8))


# ---------------------------------------------------------------------------
# F and G on the strip
# ---------------------------------------------------------------------------

def test_f_matches_brute_force_in_strip():
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "X"), lat)
    fn = kms_function(st, a, b)
    for t in (-1.3, 0.0, 0.4):
        for s in (0.0, 0.37 * st.beta, st.beta):
            z = t + 1j * s
            assert abs(fn.eval(z) - brute_f(ham, st.beta, a.matrix, b.matrix, z)) < 1e-12


def test_g_matches_brute_force_in_strip():
    lat, ham, st = setup_chain()
    a = embed(single_site(1, "Y"), lat)
    b = embed(single_site(2, "Z"), lat)
    fn = kms_function(st, a, b)
    for t in (-0.8, 0.6):
        for s in (0.0, -0.5 * st.beta, -st.beta):
            z = t + 1j * s
            assert abs(fn.conjugate_eval(z) - brute_g(ham, st.beta, a.matrix, b.matrix, z)) < 1e-12


def test_kms_boundary_condition():
    lat, ham, st = setup_chain(beta=0.8)
    a = embed(single_site(0, "X"), lat)
    b = embed(single_site(2, "Z"), lat)
    fn = kms_function(st, a, b)
    ts = np.linspace(-2, 2, 17)
    assert np.abs(fn.boundary_gap(ts)).max() < 1e-12


def test_grid_matches_pointwise():
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(1, "Z"), lat)
    fn = kms_function(st, a, b)
    ts = np.array([-1.0, -0.25, 0.5, 2.0])
    s = 0.3 * st.beta
    grid = fn.eval_grid(ts, imag=s)
    for i, t in enumerate(ts):
        assert abs(grid[i] - fn.eval(t + 1j * s)) < 1e-13
    gridg = fn.conjugate_eval_grid(ts, imag=-s)
    for i, t in enumerate(ts):
        assert abs(gridg[i] - fn.conjugate_eval(t - 1j * s)) < 1e-13


def test_strip_guard_and_overflow_guard():
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    fn = kms_function(st, a, a)
    with pytest.raises(ValueError, match="strip"):
        fn.eval(1j * 2 * st.beta)
    with pytest.raises(ValueError, match="strip"):
        fn.conjugate_eval(-1j * 2 * st.beta)
    # a huge spectral spread makes continuation below the axis overflow
    wide = gibbs_state(np.diag([0.0, 2000.0]), 1.0)
    fw = kms_function(wide, np.eye(2), np.eye(2), basis="energy")
    with pytest.raises(FloatingPointError):
        fw.eval(-0.5j)
    with pytest.raises(FloatingPointError):
        fw.conjugate_eval(0.5j)


def test_phi_properties():
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(1, "X"), lat)
    fn = kms_function(st, a, b)
    assert abs(fn.phi_a - st.expectation(a)) < 1e-14
    assert abs(fn.phi_b - st.expectation(b)) < 1e-14


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------

def test_ordinary_correlator_matches_trace_formula():
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    rho = density_matrix(ham, st.beta)
    ref = (np.trace(rho @ a.matrix @ b.matrix)
           - np.trace(rho @ a.matrix) * np.trace(rho @ b.matrix))
    assert abs(ordinary_correlator(st, a, b) - ref) < 1e-12


def test_canonical_routes_agree():
    lat, ham, st = setup_chain(beta=1.7)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "X"), lat)
    closed = canonical_correlator(st, a, b, method="closed_form")
    quad = canonical_correlator(st, a, b, method="quadrature")
    assert abs(closed - quad) < 1e-10


def test_canonical_collapses_when_b_commutes_with_h():
    # classical Ising (h = 0): Z operators commute with H, so the imaginary
    # time average does nothing and both correlators coincide
    lat = chain_lattice(3)
    inter = transverse_field_ising(lat, J=1.0, h=0.0)
    st = gibbs_state(build_hamiltonian(inter).matrix, 1.3)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    canonical = canonical_correlator(st, a, b, method="closed_form")
    ordinary = ordinary_correlator(st, a, b)
    assert abs(canonical - ordinary) < 1e-12


def test_canonical_beta_zero_equals_uniform_ordinary():
    _, ham, _ = setup_chain()
    st = gibbs_state(ham, 0.0)
    rng = np.random.default_rng(19)
    g1 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    g2 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert abs(canonical_correlator(st, g1, g2, method="closed_form")
               - ordinary_correlator(st, g1, g2)) < 1e-12
    assert abs(canonical_correlator(st, g1, g2, method="quadrature")
               - ordinary_correlator(st, g1, g2)) < 1e-12


def test_canonical_self_pairing_is_nonnegative():
    # the Duhamel pairing <A, A> is an inner product for Hermitian A
    lat, ham, st = setup_chain()
    a = embed(single_site(1, "Z"), lat)
    val = canonical_correlator(st, a, a, method="closed_form")
    assert abs(val.imag) < 1e-12
    assert val.real > -1e-14


def test_canonical_rejects_unknown_method():
    _, ham, st = setup_chain()
    with pytest.raises(ValueError, match="method"):
        canonical_correlator(st, np.eye(8), np.eye(8), method="series")


def test_duhamel_kernel_is_silent_at_low_temperature():
    # beta * (Em - En) reaches past 700 here; expm1 must not see those
    # entries, whose difference-quotient branch is the one kept
    lat = chain_lattice(6)
    st = gibbs_state(build_hamiltonian(transverse_field_ising(lat)).matrix,
                     50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = _duhamel_kernel(st.beta, st.energies)
        a = embed(single_site(0, "Z"), lat)
        b = embed(single_site(5, "Z"), lat)
        closed = canonical_correlator(st, a, b, method="closed_form")
        quad = canonical_correlator(st, a, b, method="quadrature")
    assert np.isfinite(kern).all()
    assert abs(closed - quad) < 1e-8
