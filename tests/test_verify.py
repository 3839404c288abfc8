"""Residue identity, contour decomposition, decay fits, theorem surrogate."""
import numpy as np
import pytest

from correlab import thermal
from correlab import (chain_lattice, transverse_field_ising, embed,
                      single_site, build_hamiltonian, gibbs_state,
                      kms_function, weight, residue_identity,
                      contour_decomposition, fit_decay, theorem_check)


def setup_state(n=3, beta=1.0, J=1.0, h=0.9):
    lat = chain_lattice(n)
    inter = transverse_field_ising(lat, J=J, h=h)
    st = gibbs_state(build_hamiltonian(inter).matrix, beta)
    return lat, inter, st


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_normalized_at_pole():
    for b in (0.0, 0.3, 1.7):
        assert abs(weight(1j * b, b) - 1.0) < 1e-15


def test_weight_modulus_frozen():
    # |w(1 + i)| at height 0.5: Re (1+i)^2 = 0, so the modulus is e^{-1/4}
    assert abs(abs(weight(1.0 + 1.0j, 0.5)) - np.exp(-0.25)) < 1e-15


def test_weight_decays_on_real_axis():
    assert abs(weight(4.0, 0.0)) < 1e-6
    assert abs(weight(-4.0, 0.0)) < 1e-6


# ---------------------------------------------------------------------------
# residue identity
# ---------------------------------------------------------------------------

def test_residue_identity_interior():
    for beta in (0.2, 1.0, 2.0):
        res = residue_identity(beta, beta / 2, half_width=10.0)
        assert res.defect < 1e-10
        assert not res.endpoint_corrected
        assert res.nodes >= 512
        assert 0 < res.tail_bound < 1e-8


def test_residue_identity_endpoints_get_half_residue():
    for beta in (0.5, 1.0):
        for b in (0.0, beta):
            res = residue_identity(beta, b, half_width=10.0)
            assert res.endpoint_corrected
            assert res.defect < 1e-10


def test_residue_identity_rejects_heights_outside_strip():
    with pytest.raises(ValueError):
        residue_identity(1.0, 1.5)
    with pytest.raises(ValueError):
        residue_identity(1.0, -0.1)


# ---------------------------------------------------------------------------
# contour decomposition
# ---------------------------------------------------------------------------

def test_contour_reconstruction_small_chain():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    for height in (0.0, 0.25, 0.5, 0.9, 1.0):
        dec = contour_decomposition(st, a, b, height)
        assert dec.defect <= 1e-8 * (1 + abs(dec.direct))
        assert dec.reconstruction == (dec.term_commutator + dec.term_bottom
                                      + dec.term_top)


def test_contour_direct_value_matches_kms_function():
    lat, inter, st = setup_state(beta=0.8)
    a = embed(single_site(0, "X"), lat)
    b = embed(single_site(2, "Z"), lat)
    dec = contour_decomposition(st, a, b, 0.3)
    fn = kms_function(st, a, b)
    ref = 2j * np.pi * (fn.eval(0.3j) - fn.phi_a * fn.phi_b)
    assert abs(dec.direct - ref) < 1e-12
    assert dec.offset == 0.0
    assert dec.effective_height == 0.3


def test_contour_endpoints_are_offset_inward():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(1, "Z"), lat)
    low = contour_decomposition(st, a, b, 0.0)
    high = contour_decomposition(st, a, b, 1.0)
    assert low.effective_height == pytest.approx(1e-6)
    assert high.effective_height == pytest.approx(1.0 - 1e-6)
    assert low.offset == pytest.approx(1e-6)
    assert low.defect <= 1e-8 * (1 + abs(low.direct))
    assert high.defect <= 1e-8 * (1 + abs(high.direct))


def test_contour_subtraction_policy_follows_spectral_spread():
    # small spread: pole values are cheap, subtraction active
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    assert contour_decomposition(st, a, b, 0.5).subtracted

    # huge spread: continuing F below the strip would be catastrophic,
    # plain quadrature takes over and still reconstructs
    rng = np.random.default_rng(43)
    wide = gibbs_state(np.diag([0.0, 10.0, 25.0, 40.0]), 1.0)
    g1 = rng.normal(size=(4, 4));  g1 = (g1 + g1.T) / 2
    g2 = rng.normal(size=(4, 4));  g2 = (g2 + g2.T) / 2
    dec = contour_decomposition(wide, g1, g2, 0.1)
    assert not dec.subtracted
    assert dec.defect <= 1e-6 * (1 + abs(dec.direct))


def test_contour_rejects_bad_heights_and_thin_beta():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    with pytest.raises(ValueError, match="height"):
        contour_decomposition(st, a, a, 1.5)
    thin = gibbs_state(np.diag([0.0, 1.0]), 1e-6)
    with pytest.raises(ValueError, match="beta"):
        contour_decomposition(thin, np.eye(2), np.eye(2), 0.0)


def test_contour_explicit_half_width_is_recorded():
    lat, inter, st = setup_state()
    a = embed(single_site(0, "Z"), lat)
    dec = contour_decomposition(st, a, a, 0.5, half_width=12.0, nodes=2048)
    assert dec.half_width == 12.0
    assert dec.nodes == 2048


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_decay_recovers_exact_exponential():
    x = np.arange(1, 9, dtype=float)
    y = 3.0 * np.exp(-0.7 * x)
    fit = fit_decay(x, y, "exponential")
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.rate == pytest.approx(0.7, rel=1e-10)
    assert fit.length == pytest.approx(1 / 0.7, rel=1e-10)
    assert fit.residual < 1e-10
    assert np.allclose(fit.evaluate(x), y)


def test_fit_decay_recovers_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 2.0 * x ** (-1.5)
    fit = fit_decay(x, y, "power")
    assert fit.rate == pytest.approx(1.5, rel=1e-10)
    assert fit.amplitude == pytest.approx(2.0, rel=1e-10)


def test_fit_decay_floors_tiny_values():
    x = np.arange(5, dtype=float)
    y = np.array([1.0, 1e-3, 0.0, 1e-20, 1e-6])
    fit = fit_decay(x, y)  # must not blow up on zeros
    assert np.isfinite(fit.rate)
    assert np.isfinite(fit.residual)


def test_fit_decay_validates_input():
    with pytest.raises(ValueError):
        fit_decay([1.0], [1.0])
    with pytest.raises(ValueError, match="kind"):
        fit_decay([1.0, 2.0], [1.0, 2.0], "spline")
    with pytest.raises(ValueError, match="positive"):
        fit_decay([0.0, 1.0], [1.0, 2.0], "power")


def test_fit_decay_growing_data_has_infinite_length():
    x = np.arange(1, 6, dtype=float)
    fit = fit_decay(x, np.exp(0.5 * x))
    assert fit.rate < 0
    assert fit.length == float("inf")


# ---------------------------------------------------------------------------
# theorem surrogate
# ---------------------------------------------------------------------------

def test_theorem_check_small_chain():
    lat = chain_lattice(6)
    inter = transverse_field_ising(lat, J=1.0, h=2.0)
    res = theorem_check(inter, beta=0.5, mu=1.0, distances=[2, 3, 4, 5])
    assert len(res.rows) == 4
    assert [r.distance for r in res.rows] == [2.0, 3.0, 4.0, 5.0]
    assert res.passed
    assert np.isfinite(res.xi)
    assert res.xi_prime == pytest.approx(max(4 * res.xi, 2.0))
    assert res.c_prime > 0
    assert res.ordinary_fit.residual < 0.5


def test_theorem_check_skips_unrealizable_distances():
    lat = chain_lattice(4)
    inter = transverse_field_ising(lat)
    res = theorem_check(inter, beta=0.5, mu=1.0, distances=[1, 2, 9, 17])
    assert [r.distance for r in res.rows] == [1.0, 2.0]


def test_theorem_check_needs_two_distances():
    lat = chain_lattice(3)
    inter = transverse_field_ising(lat)
    with pytest.raises(ValueError, match="two"):
        theorem_check(inter, beta=0.5, mu=1.0, distances=[40, 50])


def test_theorem_check_accepts_prebuilt_state_and_base_site():
    lat = chain_lattice(5)
    inter = transverse_field_ising(lat, h=1.5)
    st = gibbs_state(build_hamiltonian(inter).matrix, 0.7)
    r1 = theorem_check(inter, 0.7, 1.0, [1, 2, 3], base_site=1, state=st)
    r2 = theorem_check(inter, 0.7, 1.0, [1, 2, 3], base_site=1)
    assert r1.base_site == 1
    assert r1.rows[0].site == 0  # first site at distance 1 in lattice order
    assert abs(r1.rows[-1].canonical - r2.rows[-1].canonical) < 1e-13


def test_theorem_check_refuses_state_at_another_beta():
    # before, the state's beta was used and the argument's reported
    lat = chain_lattice(6)
    inter = transverse_field_ising(lat)
    st = gibbs_state(build_hamiltonian(inter).matrix, 2.0)
    with pytest.raises(ValueError, match="beta"):
        theorem_check(inter, 0.5, 1.0, [1, 2, 3], state=st)


def test_theorem_check_builds_the_duhamel_kernel_once(monkeypatch):
    lat = chain_lattice(8)
    inter = transverse_field_ising(lat, h=1.2)
    calls = []
    real_kernel = thermal._duhamel_kernel
    monkeypatch.setattr(thermal, "_duhamel_kernel",
                        lambda *args: calls.append(1) or real_kernel(*args))
    res = theorem_check(inter, 0.5, 1.0, [1, 2, 3, 4, 5, 6, 7])
    assert len(res.rows) == 7
    assert len(calls) == 1
