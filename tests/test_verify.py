"""Residue identity, contour decomposition, decay fits, theorem surrogate."""
import math

import numpy as np
import pytest

from correlab import spectral, thermal, verify
from correlab import (Lattice, chain_lattice, transverse_field_ising, embed,
                      single_site, build_hamiltonian, gibbs_state,
                      eig_hermitian, heisenberg_xxz, SpectralDecomposition,
                      KMSFunction, kms_function, weight, residue_identity,
                      contour_grid, contour_decomposition, fit_decay,
                      theorem_check,
                      ordinary_correlator, canonical_correlator)
from correlab.operators import PAULI_Y, PAULI_Z


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


def test_residue_identity_reports_convergence():
    # at beta = 8 the top-edge weight e^{beta^2 - b^2} swamps the sum in
    # round-off: the node count runs out without two refinements agreeing
    res = residue_identity(8.0, 4.0)
    assert not res.converged
    assert res.nodes == 16384
    assert res.defect > 1.0
    for beta in (0.2, 0.5, 1.0, 2.0):
        for frac in (0.0, 0.5, 1.0):
            assert residue_identity(beta, frac * beta).converged


@pytest.mark.parametrize("beta", [0.0, -1.0, float("inf"), float("nan")])
def test_residue_identity_refuses_beta_not_finite_and_positive(beta):
    # at beta = 0 the integrand is zero and two refinements agree on 1/2
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        residue_identity(beta, 0.0)


@pytest.mark.parametrize("half_width", [-5.0, 0.0, float("nan"),
                                        float("inf")])
def test_residue_identity_refuses_half_width_not_finite_and_positive(
        half_width):
    # T = -5 gave -1 with converged=True and a negative tail bound, and
    # T = 0 gave 0, converged
    with pytest.raises(ValueError,
                       match="half_width must be finite and positive"):
        residue_identity(1.0, 0.5, half_width=half_width)


def test_residue_identity_rejects_heights_outside_strip():
    with pytest.raises(ValueError):
        residue_identity(1.0, 1.5)
    with pytest.raises(ValueError):
        residue_identity(1.0, -0.1)
    # the contour's exact rule: beta + 1e-13 ran to 16384 nodes, unconverged
    for height in (-1e-13, 1.0 + 1e-13):
        with pytest.raises(ValueError, match="height must lie in"):
            residue_identity(1.0, height)


def test_residue_identity_refuses_a_top_edge_past_the_exponent_cap():
    # the top edge weighs e^{beta^2 - b^2 - t^2}: at beta = 29, b = 0 the
    # tail bound raised OverflowError, and at beta = 28 the value was NaN
    for beta in (29.0, 28.0):
        with pytest.raises(ValueError, match=r"exp\(beta\^2 - b\^2\) = "
                           r"exp\(\d+\) exceeds exp\(700\)"):
            residue_identity(beta, 0.0)
    # below the cap the check completes, and its defect shows the failure
    assert math.isfinite(residue_identity(26.4, 0.0).defect)
    assert residue_identity(28.0, 28.0).defect < 1e-10


# ---------------------------------------------------------------------------
# contour decomposition
# ---------------------------------------------------------------------------

def test_contour_reconstruction_small_chain():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    grid = contour_grid(st, a, b)
    for height in (0.0, 0.25, 0.5, 0.9, 1.0):
        dec = contour_decomposition(grid, height)
        assert dec.defect <= 1e-8 * (1 + abs(dec.direct))
        assert dec.reconstruction == (dec.term_commutator + dec.term_bottom
                                      + dec.term_top)


def test_contour_direct_value_matches_kms_function():
    lat, inter, st = setup_state(beta=0.8)
    a = embed(single_site(0, "X"), lat)
    b = embed(single_site(2, "Z"), lat)
    dec = contour_decomposition(contour_grid(st, a, b), 0.3)
    fn = kms_function(st, a, b)
    ref = 2j * np.pi * (fn.eval(0.3j) - fn.phi_a * fn.phi_b)
    assert abs(dec.direct - ref) < 1e-12
    assert dec.offset == 0.0
    assert dec.effective_height == 0.3


def test_contour_endpoints_are_offset_inward():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(1, "Z"), lat)
    grid = contour_grid(st, a, b)
    low = contour_decomposition(grid, 0.0)
    high = contour_decomposition(grid, 1.0)
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
    assert contour_decomposition(contour_grid(st, a, b), 0.5).subtracted

    # huge spread: continuing F below the strip would be catastrophic,
    # plain quadrature takes over and still reconstructs
    wide, g1, g2 = _wide_pair()
    dec = contour_decomposition(contour_grid(wide, g1, g2), 0.1)
    assert not dec.subtracted
    assert dec.defect <= 1e-6 * (1 + abs(dec.direct))


def test_contour_rejects_bad_heights_and_thin_beta():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "Z"), lat)
    grid = contour_grid(st, a, a)
    # 1e-13 outside the strip was taken, and reported as a height
    for height in (1.5, -1e-13, 1.0 + 1e-13):
        with pytest.raises(ValueError, match="height must lie in"):
            contour_decomposition(grid, height)
    thin = gibbs_state(np.diag([0.0, 1.0]), 1e-6)
    with pytest.raises(ValueError, match="beta"):
        contour_grid(thin, np.eye(2), np.eye(2))
    # 1 to 7 nodes returned defects as results; past the residue identity's
    # ceiling the node arrays only grow
    for nodes in (7, 16385):
        with pytest.raises(ValueError, match=r"nodes must lie in \[8, 16384\]"):
            contour_grid(st, a, a, nodes=nodes)


def test_contour_refuses_a_top_edge_past_the_exponent_cap():
    # at beta = 29, b = 0 the top edge weighs e^{841 - t^2}: the terms were
    # NaN; the residue identity's rule refuses the height instead
    lat, inter, st = setup_state(beta=29.0)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    grid = contour_grid(st, a, b)
    for height in (0.0, 3.0):
        with pytest.raises(ValueError, match=r"exp\(beta\^2 - b\^2\) = "
                           r"exp\(\d+\) exceeds exp\(700\)"):
            contour_decomposition(grid, height)
    # inside the cap the terms are numbers
    dec = contour_decomposition(grid, 14.5)
    assert math.isfinite(dec.defect)


@pytest.mark.parametrize("half_width", [-1.0, 0.0, float("nan"),
                                        float("inf")])
def test_contour_grid_refuses_half_width_not_finite_and_positive(half_width):
    # T = -1 reversed the nodes and gave a defect of 0.019 with no warning,
    # and T = NaN gave NaN
    lat, inter, st = setup_state()
    a = embed(single_site(0, "Z"), lat)
    with pytest.raises(ValueError,
                       match="half_width must be finite and positive"):
        contour_grid(st, a, a, half_width=half_width)


def test_contour_explicit_half_width_is_recorded():
    lat, inter, st = setup_state()
    a = embed(single_site(0, "Z"), lat)
    grid = contour_grid(st, a, a, half_width=12.0, nodes=2048)
    dec = contour_decomposition(grid, 0.5)
    assert dec.half_width == 12.0
    assert dec.nodes == 2048


def _one_shot_contour(state, a, b, height, nodes=1024, half_width=8.0):
    """The contour terms computed from scratch at one height, as before the
    grid was shared: (subtracted, commutator, bottom, top, direct)."""
    beta = state.beta
    beff = float(min(max(height, 1e-6), beta - 1e-6))
    fn = kms_function(state, a, b)
    phi = fn.phi_a * fn.phi_b
    t, wq = verify._sym_gauss(nodes, half_width)
    f_real = fn.eval_grid(t)
    g_real = fn.conjugate_eval_grid(t)
    comm = f_real - g_real
    corr = f_real - phi
    kb = weight(t, beff) / (t - 1j * beff)
    kt = weight(t + 1j * beta, beff) / (t + 1j * (beta - beff))
    c_bottom = fn.eval(1j * beff) - phi
    term_bottom = complex(np.sum(wq * (corr - c_bottom) * kb)
                          + c_bottom * 1j * math.pi * math.erfc(beff))
    direct = 2j * math.pi * c_bottom
    subtract = (beta - beff) * float(state.energies[-1]) <= 20.0
    c_comm = c_top = closed_top = 0.0
    if subtract:
        below = fn.eval(1j * (beff - beta))
        c_comm = below - fn.conjugate_eval(1j * (beff - beta))
        c_top = below - phi
        closed_top = -1j * math.pi * math.erfc(-beff)
    term_comm = complex(np.sum(wq * (comm - c_comm) * kt) + c_comm * closed_top)
    term_top = complex(-(np.sum(wq * (corr - c_top) * kt) + c_top * closed_top))
    return subtract, term_comm, term_bottom, term_top, direct


def _wide_pair():
    rng = np.random.default_rng(43)
    wide = gibbs_state(np.diag([0.0, 10.0, 25.0, 40.0]), 1.0)
    g1 = rng.normal(size=(4, 4));  g1 = (g1 + g1.T) / 2
    g2 = rng.normal(size=(4, 4));  g2 = (g2 + g2.T) / 2
    return wide, g1, g2


def test_shared_grid_matches_one_shot_contour_exactly():
    lat, inter, st = setup_state(beta=1.0)
    a = embed(single_site(0, "X"), lat)
    b = embed(single_site(2, "Y"), lat)
    cases = [(st, a, b, {}), (*_wide_pair(), {"nodes": 512, "half_width": 6.0})]
    branches = set()
    for state, x, y, kw in cases:
        grid = contour_grid(state, x, y, **kw)
        for height in (0.0, 0.37, 1.0):
            dec = contour_decomposition(grid, height)
            ref = _one_shot_contour(state, x, y, height, **kw)
            assert (dec.subtracted, dec.term_commutator, dec.term_bottom,
                    dec.term_top, dec.direct) == ref
            branches.add(dec.subtracted)
    assert branches == {True, False}


def test_contour_grid_holds_its_nodes():
    lat, inter, st = setup_state()
    a = embed(single_site(0, "Z"), lat)
    grid = contour_grid(st, a, a, nodes=64)
    assert grid.nodes == 64 and grid.t.shape == (64,)
    assert grid.half_width == 8.0


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_fit_decay_recovers_exact_exponential():
    x = np.arange(1, 9, dtype=float)
    y = 3.0 * np.exp(-0.7 * x)
    fit = fit_decay(x, y)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.rate == pytest.approx(0.7, rel=1e-10)
    assert fit.length == pytest.approx(1 / 0.7, rel=1e-10)
    assert fit.residual < 1e-10


def test_fit_decay_floors_tiny_values():
    x = np.arange(5, dtype=float)
    y = np.array([1.0, 1e-3, 0.0, 1e-20, 1e-6])
    fit = fit_decay(x, y)  # must not blow up on zeros
    assert np.isfinite(fit.rate)
    assert np.isfinite(fit.residual)


def test_fit_decay_validates_input():
    with pytest.raises(ValueError):
        fit_decay([1.0], [1.0])


@pytest.mark.parametrize("x, y", [
    (2.0, float("nan")), (2.0, float("inf")), (float("inf"), 0.5),
    (float("nan"), 0.5)], ids=["nan-y", "inf-y", "inf-x", "nan-x"])
def test_fit_decay_refuses_non_finite_samples(x, y):
    # a NaN y gave a NaN amplitude and length inf; an infinite x reached
    # LAPACK, which printed DLASCL errors before raising LinAlgError
    with pytest.raises(ValueError, match="finite"):
        fit_decay([1.0, x, 3.0], [1.0, y, 0.25])


def test_fit_decay_refuses_an_amplitude_that_overflows():
    # rate 6 ln 10 at x = 300: the fit extrapolates to e^{4145} at x = 0,
    # which used to warn "overflow encountered in exp" and return inf; the
    # suite's filter makes any RuntimeWarning an error
    with pytest.raises(ValueError, match="amplitude .* overflows"):
        fit_decay([300, 301, 302], [1e-1, 1e-7, 1e-13])


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
    # xi = 0.993: 4 xi = 3.97 binds at mu = 1, and 2/mu = 20 at mu = 0.1;
    # the envelope with g' = g instead gives c' = 0.788 at both
    for mu, c_prime in ((1.0, 0.1723), (0.1, 0.1151)):
        res = theorem_check(inter, beta=0.5, mu=mu, distances=[2, 3, 4, 5])
        assert len(res.rows) == 4
        assert [r.distance for r in res.rows] == [2.0, 3.0, 4.0, 5.0]
        assert res.passed
        assert np.isfinite(res.xi)
        assert res.xi_prime == pytest.approx(max(4 * res.xi, 2.0 / mu))
        # c' = max over l of |canonical| / (||Z||^2 g'(l)), with ||Z|| = 1
        # and g'(l) = max(e^{-l/xi'}, e^{-mu l/2})
        g_prime = [max(math.exp(-r.distance / res.xi_prime),
                       math.exp(-mu * r.distance / 2)) for r in res.rows]
        assert res.c_prime == pytest.approx(max(
            abs(r.canonical) / g for r, g in zip(res.rows, g_prime)), rel=1e-12)
        assert res.c_prime == pytest.approx(c_prime, rel=1e-3)
        assert res.ordinary_fit.residual < 0.5
        # the verdict is the judgement's, on the rows alone
        judged = verify._judge_upgrade(
            [r.distance for r in res.rows], [r.ordinary for r in res.rows],
            [r.canonical for r in res.rows], mu, 1.0)
        assert judged == {k: getattr(res, k) for k in judged}


# the judgement on synthetic rows: ordinary e^{-l}, so xi = 1, canonical
# 0.5 e^{-l/3} with a phase, and ||A|| ||B|| = 4
_LS = np.array([1.0, 2.0, 3.0, 4.0])
_ORDINARY = np.exp(-_LS)
_CANONICAL = 0.5 * np.exp(-_LS / 3) * np.exp(1j * _LS)


def _judge(mu):
    return verify._judge_upgrade(_LS, _ORDINARY, _CANONICAL, mu, 4.0)


def test_judgement_where_four_xi_binds():
    j = _judge(1.0)
    assert j["xi"] == pytest.approx(1.0, rel=1e-12)
    assert j["xi_prime"] == 4.0 * j["xi"] > 2.0
    assert j["xi_prime_empirical"] == pytest.approx(3.0, rel=1e-12)
    assert j["ordinary_fit"].length == j["xi"]
    assert j["canonical_fit"].length == j["xi_prime_empirical"]
    # g = e^{-l/xi} fits the ordinary rows exactly: c = 1/4
    assert j["c_ordinary"] == pytest.approx(0.25, rel=1e-12)
    # g' = e^{-l/4}: |canonical| / (4 g') = e^{-l/12} / 8 peaks at l = 1;
    # g' = g would give e^{8/3} / 8 at l = 4
    assert j["c_prime"] == pytest.approx(math.exp(-1 / 12) / 8, rel=1e-12)
    assert j["passed"] is True


def test_judgement_where_two_over_mu_binds():
    j = _judge(0.1)
    assert j["xi_prime"] == 20.0 > 4.0 * j["xi"]
    # g' = e^{-l/20}: e^{-l (1/3 - 1/20)} / 8 peaks at l = 1
    assert j["c_prime"] == pytest.approx(math.exp(-1 / 3 + 1 / 20) / 8,
                                         rel=1e-12)
    assert j["c_ordinary"] == pytest.approx(0.25, rel=1e-12)
    assert j["passed"] is True


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


def test_theorem_check_refuses_repeated_distances():
    # a repeated row would count twice in both fits
    inter = transverse_field_ising(chain_lattice(6), J=1.0, h=2.0)
    with pytest.raises(ValueError, match="distances must not repeat"):
        theorem_check(inter, beta=0.5, mu=1.0, distances=[1.0, 1.0, 2.0])


def test_theorem_check_refuses_two_distances_with_one_partner():
    # 1 + 1e-12 is a different float but selects the same site as 1.0;
    # before, site 1 got two rows and weighed twice in both fits
    inter = transverse_field_ising(chain_lattice(4))
    with pytest.raises(ValueError, match="both select site 1"):
        theorem_check(inter, 0.5, 1.0, [1.0, 1.0 + 1e-12, 2.0])


def test_theorem_check_takes_a_base_site():
    inter = transverse_field_ising(chain_lattice(5), h=1.5)
    res = theorem_check(inter, 0.7, 1.0, [1, 2, 3], base_site=1)
    assert res.base_site == 1
    assert res.rows[0].site == 0  # first site at distance 1 in lattice order


# TFIM has the reversal symmetry, so Z is contracted in its (+, -) block;
# XXZ in a z-field has none, and takes the dense route
def _tfim(lat):
    return transverse_field_ising(lat, h=1.2)


def _xxz_in_a_field(lat):
    return heisenberg_xxz(lat, 1.0, 0.5, h=0.3)


def _count_kernels(monkeypatch, model) -> int:
    lat = chain_lattice(8)
    calls = []
    real_kernel = thermal._duhamel_kernel
    monkeypatch.setattr(thermal, "_duhamel_kernel",
                        lambda *args: calls.append(1) or real_kernel(*args))
    res = theorem_check(model(lat), 0.5, 1.0, [1, 2, 3, 4, 5, 6, 7])
    assert len(res.rows) == 7
    return len(calls)


def test_theorem_check_builds_the_duhamel_kernel_once(monkeypatch):
    assert _count_kernels(monkeypatch, _tfim) == 1


def test_theorem_check_builds_the_duhamel_kernel_once_without_sectors(
        monkeypatch):
    assert _count_kernels(monkeypatch, _xxz_in_a_field) == 1


def _count_reads(monkeypatch, model, op="Z") -> dict:
    # one contraction for all partners: A alone goes to the energy basis,
    # read once by spectral's block reader with the parity it is read in,
    # and no partner is paired with it through _paired_sum
    lat = chain_lattice(8)
    counts = {"transform": 0, "paired": 0, "kernel": 0, "read": []}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def read(dec, m, parity, *columns, **kwargs):
        counts["read"].append((m.shape, parity))
        return spectral._read_blocks(dec, m, parity, *columns, **kwargs)

    monkeypatch.setattr(spectral.SpectralDecomposition, "transform",
                        counted("transform",
                                spectral.SpectralDecomposition.transform))
    monkeypatch.setattr(verify, "_read_blocks", read)
    monkeypatch.setattr(thermal, "_paired_sum",
                        counted("paired", thermal._paired_sum))
    monkeypatch.setattr(thermal, "_duhamel_kernel",
                        counted("kernel", thermal._duhamel_kernel))
    res = theorem_check(model(lat), 0.5, 1.0, [1, 2, 3, 4, 5, 6, 7],
                        op_name=op)
    assert len(res.rows) == 7
    return counts


def test_theorem_check_transforms_only_a(monkeypatch):
    # in the sectors A's (+, -) block is read without the dense transform
    assert _count_reads(monkeypatch, _tfim) == {
        "transform": 0, "paired": 0, "kernel": 1,
        "read": [((128, 256), -1)]}


def test_theorem_check_transforms_only_a_without_sectors(monkeypatch):
    # A is read whole, into the dense V, once
    assert _count_reads(monkeypatch, _xxz_in_a_field) == {
        "transform": 0, "paired": 0, "kernel": 1,
        "read": [((256, 256), 0)]}


@pytest.mark.parametrize("op", [1j * PAULI_Z, PAULI_Z + 1j * PAULI_Y],
                         ids=["iZ", "Z+iY"])
def test_theorem_check_reads_a_non_hermitian_odd_operator_in_the_sectors(
        monkeypatch, op):
    # the parity alone picks the route: an odd A that is not Hermitian is
    # read once at parity -1, in both off-diagonal blocks, whose Duhamel
    # weights are one kernel block and its transpose
    assert _count_reads(monkeypatch, _tfim, op) == {
        "transform": 0, "paired": 0, "kernel": 1,
        "read": [((128, 256), -1)]}


def test_transposed_kernel_block_keeps_every_row_bit_for_bit(monkeypatch):
    # K(E-, E+) read as K(E+, E-)^T gives the rows that building it anew
    # gives: the kernel is symmetric in its two energies
    inter = _tfim(chain_lattice(8))

    def rows():
        res = theorem_check(inter, 0.5, 1.0, [1, 2, 3, 4, 5, 6, 7],
                            op_name=1j * PAULI_Z)
        return [(r.ordinary, r.canonical) for r in res.rows]

    shared = rows()

    def built_anew(state, levels, blocks):
        return {(l, r): thermal._duhamel_kernel(state.beta, levels[l],
                                                levels[r])
                / np.exp(state.log_partition) for l, r, *_ in blocks}

    monkeypatch.setattr(thermal.ThermalState, "_kernel_blocks", built_anew)
    assert rows() == shared


class _ProductSpy(np.ndarray):
    """An array that records the shapes of every matrix product it, or an
    array derived from it, takes part in."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _ProductSpy.shapes.append([np.shape(x) for x in inputs])
        inputs = [x.view(np.ndarray) if isinstance(x, _ProductSpy) else x
                  for x in inputs]
        out = kwargs.get("out")
        if out:
            kwargs["out"] = tuple(x.view(np.ndarray)
                                  if isinstance(x, _ProductSpy) else x
                                  for x in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out:  # in place: hand back the spied arrays themselves
            return out[0] if len(out) == 1 else out
        if not isinstance(result, np.ndarray):
            return result
        return result.view(_ProductSpy)


@pytest.mark.parametrize("op", ["Z", "Y", "X"])
def test_flip_symmetric_theorem_check_makes_no_full_size_product(monkeypatch,
                                                                 op):
    # every product in the contraction has a sector eigenbasis as a factor,
    # so a spy on the stored stack (W+, W-) sees each one; the kernel is
    # spied on directly.  The dense route would form V and multiply by it,
    # D x D, outside the spy's sight, and the spy would record nothing.
    lat = chain_lattice(8)
    inter = transverse_field_ising(lat, h=1.2)
    dec = eig_hermitian(build_hamiltonian(inter).matrix)
    half = dec.dim // 2
    assert dec._vectors.shape == (2, half, half)
    spied = SpectralDecomposition(dec.eigenvalues,
                                  dec._vectors.view(_ProductSpy), dec.sector)
    kernels = []
    real_kernel = thermal._duhamel_kernel

    def kernel(*args):
        kern = real_kernel(*args)
        kernels.append(kern.shape)
        return kern

    plain = theorem_check(inter, 0.5, 1.0, [1, 2, 3, 4, 5, 6, 7], op_name=op)
    monkeypatch.setattr(verify, "gibbs_state",
                        lambda _, beta: gibbs_state(spied, beta))
    monkeypatch.setattr(thermal, "_duhamel_kernel", kernel)
    monkeypatch.setattr(_ProductSpy, "shapes", [])
    res = theorem_check(inter, 0.5, 1.0, [1, 2, 3, 4, 5, 6, 7], op_name=op)
    assert [r.canonical for r in res.rows] == [r.canonical for r in plain.rows]
    # left factor and contracted axis at most D/2; a complex right factor
    # may be read through its interleaved real view, twice as wide
    assert len(_ProductSpy.shapes) >= 2  # A's read and M's write-back
    assert all(max(left) <= half and right[0] <= half
               for left, right in _ProductSpy.shapes)
    assert kernels and set(kernels) == {(half, half)}


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan"), float("inf")])
def test_theorem_check_refuses_mu_not_finite_and_positive(mu):
    # mu = 0 divided by zero, mu < 0 passed against a growing envelope and
    # mu = nan gave a nan prefactor
    inter = transverse_field_ising(chain_lattice(4))
    with pytest.raises(ValueError, match="mu"):
        theorem_check(inter, 0.5, mu, [1, 2, 3])


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
def test_theorem_check_refuses_beta_not_finite_and_positive(monkeypatch,
                                                           beta):
    # at beta = 0 every connected row was round-off (at most 1.2e-16) and
    # the check passed with xi = xi' = inf; refused before any state
    calls = []
    monkeypatch.setattr(verify, "gibbs_state",
                        lambda *args: calls.append(args))
    inter = transverse_field_ising(chain_lattice(6), h=2.0)
    with pytest.raises(ValueError, match="^beta must be finite and positive"):
        theorem_check(inter, beta, 1.0, [2, 3, 4, 5])
    assert calls == []


@pytest.mark.parametrize("op", ["I", pytest.param(-2.0 * np.eye(2), id="-2I")])
def test_theorem_check_refuses_a_multiple_of_the_identity(monkeypatch, op):
    # every connected correlator of cI vanishes: op_name="I" used to pass
    # with xi = inf; now it is refused before the state is built
    calls = []
    monkeypatch.setattr(verify, "gibbs_state",
                        lambda *args: calls.append(args))
    inter = transverse_field_ising(chain_lattice(4))
    with pytest.raises(ValueError, match="^op must not be I or a multiple"):
        theorem_check(inter, 0.5, 1.0, [1, 2, 3], op_name=op)
    assert calls == []


def _shuffled_chain():
    # lattice order differs from label order, and the partners of base "a"
    # sit on both sides of it
    xs = np.arange(4.0)
    return Lattice(("b", "a", "d", "c"), np.abs(xs[:, None] - xs), (2,) * 4)


def _check_per_pair(inter, lattice, base, distances, op, beta):
    st = gibbs_state(build_hamiltonian(inter).matrix, beta)
    if beta == 0.0:
        # every connected row is round-off at beta = 0: refused, for every
        # operator and lattice; 1e-3 keeps the near-uniform weights
        with pytest.raises(ValueError,
                           match="^beta must be finite and positive"):
            theorem_check(inter, beta, 1.0, distances, base_site=base,
                          op_name=op)
        return st
    res = theorem_check(inter, beta, 1.0, distances, base_site=base,
                        op_name=op)
    # the reference reads A and B with the dense V, not through the block
    # reader theorem_check's contraction runs on
    v = st.decomposition.eigenvectors

    def energy_basis(site):
        return v.conj().T @ embed(single_site(site, op), lattice).matrix @ v

    a_e = energy_basis(base)
    assert [r.distance for r in res.rows] == distances
    for row in res.rows:
        b_e = energy_basis(row.site)
        fn = KMSFunction(st, a_e, b_e)
        ordinary, canonical = ordinary_correlator(fn), canonical_correlator(fn)
        assert abs(row.ordinary - ordinary) <= 1e-14
        assert abs(row.canonical - canonical) <= 1e-14
    return st


def _per_pair_cases(test):
    lattices = pytest.mark.parametrize("lattice, base, distances", [
        (chain_lattice(7), 2, [1, 2, 3, 4]),
        (_shuffled_chain(), "a", [1, 2]),
    ], ids=["chain", "shuffled"])
    # i Z and Z + iY are odd but not Hermitian: the (-, +) block is not
    # the partner of the (+, -) block, so both are read in the sectors
    return pytest.mark.parametrize("beta", [0.0, 1e-3, 4.0])(
        pytest.mark.parametrize("op", ["Z", "X", "Y", pytest.param(
            1j * PAULI_Z, id="iZ"), pytest.param(
            PAULI_Z + 1j * PAULI_Y, id="Z+iY")])(lattices(test)))


@_per_pair_cases
def test_theorem_check_matches_per_pair_correlators(lattice, base, distances,
                                                    op, beta):
    # TFIM is solved in reversal blocks: the sector contraction
    inter = transverse_field_ising(lattice, J=1.0, h=1.5)
    st = _check_per_pair(inter, lattice, base, distances, op, beta)
    assert st.decomposition.sector is not None


@_per_pair_cases
def test_theorem_check_matches_per_pair_correlators_in_a_z_field(
        lattice, base, distances, op, beta):
    # a z-field breaks the reversal symmetry: the dense contraction
    inter = heisenberg_xxz(lattice, 1.0, 0.5, h=0.3)
    st = _check_per_pair(inter, lattice, base, distances, op, beta)
    assert st.decomposition.sector is None
