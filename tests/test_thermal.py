"""Gibbs states, the KMS function on its strip, and the two correlator routes."""
import warnings

import numpy as np
import pytest
import scipy.linalg

from correlab import (chain_lattice, transverse_field_ising, embed,
                      single_site, build_hamiltonian, eig_hermitian,
                      gibbs_state, kms_function, ordinary_correlator,
                      canonical_correlator)
from correlab import thermal
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


def test_grid_guards_match_point_guards():
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    fn = kms_function(st, a, a)
    ts = np.array([-0.5, 0.0, 0.5])
    with pytest.raises(ValueError, match="outside the strip"):
        fn.eval_grid(ts, imag=2 * st.beta)
    with pytest.raises(ValueError, match="outside the strip"):
        fn.conjugate_eval_grid(ts, imag=-2 * st.beta)
    wide = gibbs_state(np.diag([0.0, 2000.0]), 1.0)
    fw = kms_function(wide, np.eye(2), np.eye(2), basis="energy")
    with pytest.raises(FloatingPointError,
                       match="^continuation of F below the real axis would overflow$"):
        fw.eval_grid(ts, imag=-0.5)
    with pytest.raises(FloatingPointError,
                       match="^continuation of G above the real axis would overflow$"):
        fw.conjugate_eval_grid(ts, imag=0.5)


def _reference_f_grid(st, a_e, b_e, ts, s):
    """F(t + is) written out on its own: row and column Boltzmann factors,
    then the phases on both sides."""
    row = np.exp(-(st.beta - s) * st.energies - st.log_partition)
    col = np.exp(-s * st.energies)
    m = (row[:, None] * col[None, :]) * a_e * b_e.T
    u = np.exp(1j * np.outer(st.energies, ts))
    return np.sum(u.conj() * (m @ u), axis=0)


def _reference_g_grid(st, a_e, b_e, ts, s):
    """G(t + is) written out on its own, without going through F."""
    row = np.exp(-(st.beta + s) * st.energies - st.log_partition)
    col = np.exp(s * st.energies)
    m = (row[:, None] * col[None, :]) * b_e * a_e.T
    u = np.exp(1j * np.outer(st.energies, ts))
    return np.sum(u * (m @ u.conj()), axis=0)


def _random_pair(dim, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for _ in range(2))
    return a, b


def _close(values, ref, tol=1e-13):
    """Within tol relative to the scale of ref: continued past the native
    strip, F and G reach a few thousand."""
    return np.abs(np.asarray(values) - ref).max() <= tol * (1 + np.abs(ref).max())


def test_evaluators_match_written_out_formulas():
    # random complex, non-Hermitian A and B; heights on the real axis,
    # inside the strip and at +-beta, on grids and pointwise
    lat, ham, st = setup_chain(n=4, beta=0.9)
    a, b = _random_pair(16, 23)
    fn = kms_function(st, a, b)
    ts = np.linspace(-2.5, 2.5, 11)
    beta = st.beta
    for s in (0.0, 0.3 * beta, 0.7 * beta, beta, -beta):
        ref = _reference_f_grid(st, fn.a_energy, fn.b_energy, ts, s)
        assert _close(fn.eval_grid(ts, imag=s), ref)
        assert _close([fn.eval(t + 1j * s) for t in ts], ref)
    for s in (0.0, -0.3 * beta, -0.7 * beta, -beta, beta):
        ref = _reference_g_grid(st, fn.a_energy, fn.b_energy, ts, s)
        assert _close(fn.conjugate_eval_grid(ts, imag=s), ref)
        assert _close([fn.conjugate_eval(t + 1j * s) for t in ts], ref)


def test_g_is_f_of_swapped_pair_at_minus_z():
    lat, ham, st = setup_chain(n=4, beta=0.9)
    a, b = _random_pair(16, 29)
    fn = kms_function(st, a, b)
    swapped = kms_function(st, b, a)
    ts = np.linspace(-2.0, 2.0, 9)
    for s in (0.0, -0.5 * st.beta, -st.beta, 0.4 * st.beta):
        f = swapped.eval_grid(-ts, imag=-s)
        assert _close(fn.conjugate_eval_grid(ts, imag=s), f)
        z = 0.6 + 1j * s
        assert _close(fn.conjugate_eval(z), swapped.eval(-z))


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


def reference_ordinary(st, am, bm):
    p = st.weights
    mean = lambda m: np.sum(p * np.diag(m))
    return complex(np.einsum("m,mn,nm->", p, am, bm) - mean(am) * mean(bm))


def reference_closed_form(st, am, bm):
    p = st.weights
    mean = lambda m: np.sum(p * np.diag(m))
    kern = _duhamel_kernel(st.beta, st.energies)
    return (complex(np.einsum("mn,mn,nm->", kern, am, bm)
                    / np.exp(st.log_partition)) - mean(am) * mean(bm))


@pytest.mark.parametrize("beta", [0.0, 0.7, 50.0])
@pytest.mark.parametrize("basis", ["site", "energy"])
def test_correlators_match_written_out_formulas(beta, basis):
    # the parent's three-operand einsum formulas, kept as test-only
    # references; complex non-Hermitian pairs and, in the energy basis,
    # real pairs that stay in real arithmetic
    lat = chain_lattice(4)
    st = gibbs_state(build_hamiltonian(transverse_field_ising(lat, h=0.8)).matrix,
                     beta)
    rng = np.random.default_rng(17)
    pairs = [tuple(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
                   for _ in range(2))]
    if basis == "energy":
        pairs.append(tuple(rng.normal(size=(16, 16)) for _ in range(2)))
    for a, b in pairs:
        am, bm = (st.to_eigenbasis(a), st.to_eigenbasis(b)) if basis == "site" \
            else (a, b)
        for got, ref in ((ordinary_correlator(st, a, b, basis=basis),
                          reference_ordinary(st, am, bm)),
                         (canonical_correlator(st, a, b, basis=basis),
                          reference_closed_form(st, am, bm))):
            assert abs(got - ref) <= 1e-13 * (1 + abs(ref))


def test_duhamel_kernel_is_built_on_first_use_only(monkeypatch):
    lat = chain_lattice(4)
    calls = []
    real_kernel = thermal._duhamel_kernel
    monkeypatch.setattr(thermal, "_duhamel_kernel",
                        lambda *args: calls.append(1) or real_kernel(*args))
    st = gibbs_state(build_hamiltonian(transverse_field_ising(lat)).matrix, 1.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(3, "X"), lat)
    ordinary_correlator(st, a, b)
    canonical_correlator(st, a, b, method="quadrature")
    assert calls == []
    first = canonical_correlator(st, a, b)
    assert canonical_correlator(st, a, b) == first
    canonical_correlator(st, b, a)
    assert len(calls) == 1
