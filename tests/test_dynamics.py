"""Heisenberg evolution, commutator scans, locality scans."""
import numpy as np
import pytest
import scipy.linalg

from correlab import (chain_lattice, transverse_field_ising, embed,
                      single_site, spectral_norm, build_hamiltonian,
                      derivation_delta, evolution_context, evolve,
                      lr_commutator_scan, locality_scan, certify_locality,
                      conditional_expectation, random_bond_ising,
                      heisenberg_xxz, ball, LocalOperator, Interaction,
                      SpectralDecomposition, EmbeddedOperator,
                      LocalityMeasurement, LocalityScanResult, LRScanResult,
                      PAULI_X, PAULI_Y, PAULI_Z)
from correlab import dynamics


def setup(n=4, J=1.0, h=1.0):
    lat = chain_lattice(n)
    inter = transverse_field_ising(lat, J=J, h=h)
    return lat, inter, evolution_context(inter)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_matches_expm():
    lat, inter, ctx = setup()
    ham = build_hamiltonian(inter).matrix
    a = single_site(1, "Z")
    for t in (-0.7, 0.3, 1.9):
        u = scipy.linalg.expm(1j * t * ham)
        ref = u @ embed(a, lat).matrix @ u.conj().T
        assert np.abs(evolve(ctx, a, t).matrix - ref).max() < 1e-11


def test_evolve_time_zero_is_identity_map():
    lat, inter, ctx = setup()
    a = embed(single_site(0, "X"), lat)
    assert np.abs(evolve(ctx, a, 0.0).matrix - a.matrix).max() < 1e-12


def test_heisenberg_equation_of_motion():
    # d/dt tau_t(A) = i tau_t([H, A]); the factor i lives in the equation,
    # not in the derivation
    lat, inter, ctx = setup()
    a = single_site(2, "Z")
    t, dt = 0.4, 1e-6
    lhs = (evolve(ctx, a, t + dt).matrix - evolve(ctx, a, t - dt).matrix) / (2 * dt)
    delta = derivation_delta(embed(a, lat), inter)
    rhs = 1j * evolve(ctx, delta, t).matrix
    assert np.abs(lhs - rhs).max() < 1e-7


def test_complex_time_matches_expm():
    lat, inter, ctx = setup(3)
    ham = build_hamiltonian(inter).matrix
    a = single_site(0, "Z")
    z = 0.3 + 0.2j
    u = scipy.linalg.expm(1j * z * ham)
    uinv = scipy.linalg.expm(-1j * z * ham)
    ref = u @ embed(a, lat).matrix @ uinv
    got = evolve(ctx, a, z).matrix
    assert np.abs(got - ref).max() < 1e-10


def test_complex_time_overflow_guard():
    lat = chain_lattice(1)
    inter = transverse_field_ising(lat, J=0.0, h=500.0)
    ctx = evolution_context(inter)
    with pytest.raises(FloatingPointError):
        evolve(ctx, single_site(0, "Z"), 2.0j)


def test_complex_time_refused_when_the_phase_product_would_overflow():
    # max|E| = 4.76 keeps each factor e^{-Im z E} finite at z = 139.7i, but
    # their product e^{Im z (E_n - E_m)} reaches e^{1330}: every entry came
    # back NaN before the spread was checked
    lat, inter, ctx = setup(4)
    e = ctx.decomposition.eigenvalues
    assert 139.7 * max(abs(e)) < 700.0 < 139.7 * (e[-1] - e[0])
    with pytest.raises(FloatingPointError):
        evolve(ctx, single_site(1, "Z"), 139.7j)
    assert np.isfinite(evolve(ctx, single_site(1, "Z"), 70.0j).matrix).all()


@pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                  complex(0.0, float("nan")),
                                  complex(float("-inf"), 1.0)])
def test_evolve_refuses_non_finite_time(time):
    # a NaN time passed the overflow guard and gave an all-NaN matrix
    lat, inter, ctx = setup(4)
    with pytest.raises(ValueError, match="time must be finite"):
        evolve(ctx, single_site(1, "Z"), time)


def test_evolve_rejects_foreign_window():
    lat, inter, ctx = setup(4)
    sub = EmbeddedOperator((0,), np.kron(PAULI_Z, np.eye(2)))
    with pytest.raises(ValueError, match="does not act on the lattice"):
        evolve(ctx, sub, 0.1)


_EVOLVE_MODELS = {
    "tfim6": lambda: transverse_field_ising(chain_lattice(6), h=1.3),
    "rbi7": lambda: random_bond_ising(chain_lattice(7), seed=5),
    "xxz6": lambda: heisenberg_xxz(chain_lattice(6), 1.0, 0.5),
    "xxz6-field": lambda: heisenberg_xxz(chain_lattice(6), 1.0, 0.5, h=0.3),
}


@pytest.mark.parametrize("model", list(_EVOLVE_MODELS))
@pytest.mark.parametrize("op", [
    PAULI_Z, PAULI_Y, PAULI_X, 1j * PAULI_Z,
    np.array([[0.0, 1.0], [0.0, 0.0]])], ids=["Z", "Y", "X", "iZ", "sigma+"])
def test_evolve_matches_the_dense_route_and_expm(model, op):
    # on a reversal-symmetric H, Z, Y, X and i Z evolve in their sector
    # blocks, both off-diagonal ones for an odd operator, so complex times
    # work; sigma+ and the z-field chain are read whole.  Each is checked
    # against V (e^{izE_m} Abar_mn e^{-izE_n}) V* from numpy's eigh and
    # against expm, relative to the largest entry.
    inter = _EVOLVE_MODELS[model]()
    ctx = evolution_context(inter)
    assert (ctx.decomposition.sector is not None) == (model != "xxz6-field")
    h = build_hamiltonian(inter).matrix
    e, v = np.linalg.eigh(h)
    a = LocalOperator((2,), op)
    m = embed(a, inter.lattice).matrix
    abar = v.conj().T @ m @ v
    for z in (0.0, 0.7, -1.3, 0.4 + 0.3j, 0.2 - 0.5j):
        got = evolve(ctx, a, z).matrix
        dense = ((v * np.exp(1j * z * e)) @ abar
                 @ (np.exp(-1j * z * e)[:, None] * v.conj().T))
        ref = scipy.linalg.expm(1j * z * h) @ m @ scipy.linalg.expm(-1j * z * h)
        scale = np.abs(ref).max()
        assert np.abs(got - dense).max() <= 1e-13 * scale, z
        assert np.abs(got - ref).max() <= 1e-10 * scale, z


# ---------------------------------------------------------------------------
# commutator scans
# ---------------------------------------------------------------------------

def test_lr_scan_basics():
    inter = transverse_field_ising(chain_lattice(5), 1.0, 1.0)
    scan = lr_commutator_scan(inter, single_site(0, "Z"), single_site(4, "Z"),
                              [0.0, 0.2, 0.4], mu=1.0)
    assert scan.distance == 4.0
    cert = certify_locality(inter, 1.0)
    assert abs(scan.velocity - cert.velocity) < 1e-12
    assert scan.measurements[0].commutator_norm < 1e-12  # disjoint at t = 0
    assert scan.measurements[0].envelope == 0.0
    assert np.isfinite(scan.c_empirical)
    # commutator grows from zero with time
    norms = [m.commutator_norm for m in scan.measurements]
    assert norms[2] > norms[1] > norms[0]


def test_lr_scan_infinite_prefactor_when_supports_touch():
    inter = transverse_field_ising(chain_lattice(3), 1.0, 1.0)
    scan = lr_commutator_scan(inter, single_site(0, "X"), single_site(0, "Z"),
                              [0.0], mu=1.0)
    # distance 0 and [Z, X] != 0 at t = 0: no envelope can cover this
    assert scan.c_empirical == float("inf")


def test_lr_scan_explicit_velocity_changes_envelope_only():
    inter = transverse_field_ising(chain_lattice(4), 1.0, 1.0)
    s1 = lr_commutator_scan(inter, single_site(0, "Z"), single_site(3, "Z"),
                            [0.5], mu=1.0)
    s2 = lr_commutator_scan(inter, single_site(0, "Z"), single_site(3, "Z"),
                            [0.5], mu=1.0, velocity=5.0)
    assert abs(s1.measurements[0].commutator_norm
               - s2.measurements[0].commutator_norm) < 1e-13
    assert s1.measurements[0].envelope != s2.measurements[0].envelope


def test_lr_scan_noise_floor():
    # the rows with t <= 0.3 are round-off (about 1e-14), the row at t = 0.4
    # is the first one that carries signal
    lat = chain_lattice(8)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    times = [0.1 * k for k in range(11)]
    scan = lr_commutator_scan(inter, single_site(0, "Z"), single_site(7, "Z"),
                              times, mu=1.0)
    assert scan.noise_floor == np.finfo(float).eps * 256
    norms = [m.commutator_norm for m in scan.measurements]
    assert max(norms[:4]) < scan.noise_floor < norms[4]
    assert scan.floor_rows == 4
    resolved = max(m.commutator_norm / m.envelope
                   for m in scan.measurements[4:])
    assert scan.c_empirical_resolved == resolved
    # c_empirical keeps its definition: the floor rows still enter it
    everything = max(m.commutator_norm / m.envelope
                     for m in scan.measurements[1:])
    assert scan.c_empirical == everything > resolved


# ---------------------------------------------------------------------------
# the prefactor rule and the scans' verdicts, on synthetic rows
# ---------------------------------------------------------------------------

def test_prefactor_zero_envelope_row_above_the_floor_is_infinite():
    # no c makes 0.5 <= c * 0: the row is signal, so both prefactors fail
    assert dynamics._prefactor([1.0, 0.5], [2.0, 0.0], 0.1) == (
        float("inf"), float("inf"), 0)


def test_prefactor_zero_envelope_row_below_the_floor_is_noise():
    # 0.05 < floor: the row bounds nothing and counts as a floor row
    assert dynamics._prefactor([1.0, 0.05], [2.0, 0.0], 0.1) == (0.5, 0.5, 1)


def test_prefactor_counts_floor_rows_and_resolves_over_the_others():
    floor = 2.0 ** -50
    c, c_res, below = dynamics._prefactor(
        [2.0 ** -60, 2.0 ** -58, 1.0, 2.0, floor],
        [2.0 ** -90, 1.0, 1.0, 4.0, floor], floor)
    # every row enters c; only rows at or above the floor enter c_res, and
    # the two below it are counted
    assert (c, c_res, below) == (2.0 ** 30, 1.0, 2)
    assert dynamics._prefactor([], [], 1.0) == (0.0, 0.0, 0)


def _locality_result(errors_by_time, c_empirical=1.0):
    """A LocalityScanResult of radii 1, 2, 3 with the given error rows."""
    rows = [LocalityMeasurement(r, float(t), err, 1.0)
            for t, errs in enumerate(errors_by_time)
            for r, err in zip((1.0, 2.0, 3.0), errs)]
    return LocalityScanResult(1.0, 1.0, 1.0, rows, c_empirical, 1e-13, 0,
                              "dense")


def test_locality_verdict_is_taken_in_the_result():
    # the largest error over the times falls with r: 0.5, 0.3, 0.1
    assert _locality_result([[0.5, 0.1, 0.0], [0.2, 0.3, 0.1]]).passed
    # it grows from r = 2 to r = 3, from 0.3 to 0.4
    grows = _locality_result([[0.5, 0.1, 0.4], [0.2, 0.3, 0.1]])
    assert not grows.monotone_in_radius and not grows.passed
    # a growth below the slack is round-off, and passes
    flat = _locality_result([[0.5, 0.3, 0.3 + 1e-13]])
    assert flat.monotone_in_radius and flat.passed
    # monotone, but no finite prefactor
    unbounded = _locality_result([[0.5, 0.3, 0.1]], float("inf"))
    assert unbounded.monotone_in_radius and not unbounded.passed


def test_lr_verdict_is_taken_in_the_result():
    for c, passed in ((2.5, True), (float("inf"), False)):
        result = LRScanResult(1.0, 2.0, 3.0, [], c, 1e-13, 0, 1.0)
        assert result.passed is passed


def test_lr_scan_zero_envelope_row_judged_against_noise_floor():
    # ||A|| ||B|| = 900 lifts the t = 0 round-off past 1e-12 but not past
    # the scan's own floor eps * D * ||A|| ||B||; that row is no violation
    lat = chain_lattice(8)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    a, b = single_site(0, "Z"), single_site(7, "Z")
    scan = lr_commutator_scan(inter, LocalOperator(a.support, 30 * a.matrix),
                              LocalOperator(b.support, 30 * b.matrix),
                              [0.0, 0.5, 1.0], mu=1.0)
    first = scan.measurements[0]
    assert first.envelope == 0.0
    assert 1e-12 < first.commutator_norm < scan.noise_floor
    assert np.isfinite(scan.c_empirical)


def _evolution_by_eigh(inter, a):
    """t -> the site matrix of tau_t(A) on the whole lattice, from numpy's
    eigh of H: it shares no eigensolver, transform or evolution with the
    scans it checks."""
    e, v = np.linalg.eigh(build_hamiltonian(inter).matrix)
    abar = v.conj().T @ embed(a, inter.lattice).matrix @ v

    def at(t):
        u = v * np.exp(1j * t * e)
        return u @ abar @ u.conj().T
    return at


def _site_basis_norms(inter, a, b, times):
    """The scan's norms by the site-basis route: tau_t(A) by numpy's eigh,
    then the commutator with B and a general norm."""
    tau_at = _evolution_by_eigh(inter, a)
    bmat = embed(b, inter.lattice).matrix
    return [spectral_norm(bmat @ tau - tau @ bmat)
            for tau in map(tau_at, times)]


SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
PROJ_0 = np.diag([1.0, 0.0])  # |0><0|, levels {0, 1}
TWO_Z = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
ZZ = np.kron(PAULI_Z, PAULI_Z)  # two levels, each set mapped onto itself by J


def _y_field_chain(lat):
    """Random-bond-like ZZ chain in a field along X + Y/2: a Hermitian
    Hamiltonian with complex eigenvectors."""
    rng = np.random.default_rng(5)
    terms = {(i, i + 1): rng.uniform(0.5, 1.5) * np.kron(PAULI_Z, PAULI_Z)
             for i in range(len(lat.sites) - 1)}
    terms.update({(i,): PAULI_X + 0.5 * PAULI_Y for i in lat.sites})
    return Interaction(lat, terms, name="y_field")


# transforms: 0 on the sector route (H flip-even, A odd, B two-level with
# mirrored level sets), 2 on the one-product route, which takes every
# other pair, a diagonal two-level B included
@pytest.mark.parametrize("a, b, model, transforms", [
    (single_site(0, "Z"), single_site(5, "Z"), "rbi", 0),
    (single_site(1, "X"), single_site(4, "Y"), "rbi", 2),
    (LocalOperator((0,), SIGMA_PLUS), LocalOperator((3,), SIGMA_PLUS.T),
     "rbi", 2),
    (single_site(1, "X"), LocalOperator((4,), PROJ_0), "rbi", 2),
    (single_site(0, "X"), single_site(0, "Z"), "rbi", 2),
    (single_site(5, "X"), LocalOperator((0, 1), TWO_Z), "rbi", 2),
    (single_site(0, "Z"), single_site(5, "Z"), "y_field", 2),
], ids=["pauli_real", "pauli_complex", "sigma_plus_minus", "projector",
        "overlap", "three_level", "complex_hamiltonian"])
def test_lr_scan_matches_site_basis_route(monkeypatch, a, b, model,
                                          transforms):
    lat = chain_lattice(6)
    if model == "rbi":
        inter = random_bond_ising(lat, 1.0, 1.0, seed=3)
    else:
        inter = _y_field_chain(lat)
    ctx = evolution_context(inter)
    assert np.iscomplexobj(ctx.decomposition.eigenvectors) == (model != "rbi")
    calls = []
    transform = SpectralDecomposition.transform
    monkeypatch.setattr(SpectralDecomposition, "transform",
                        lambda self, m: calls.append(1) or transform(self, m))
    times = [0.0, 0.1, 0.35, 0.8, 1.5, 2.0, 3.0]
    scan = lr_commutator_scan(inter, a, b, times, mu=1.0)
    monkeypatch.undo()
    assert len(calls) == transforms
    ref = _site_basis_norms(inter, a, b, times)
    got = [m.commutator_norm for m in scan.measurements]
    assert max(ref) > 0.1  # the commutator has grown well past round-off
    assert np.abs(np.array(got) - ref).max() < 1e-12


def test_lr_scan_two_level_b_stays_at_half_size(monkeypatch):
    # every eigensolver call of a Z/Z scan is on a Gram matrix of at most
    # D/2 = 128, never on a D-sized commutator
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    lat = chain_lattice(8)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    scan = lr_commutator_scan(inter, single_site(0, "Z"), single_site(7, "Z"),
                              [0.1 * k for k in range(11)], mu=1.0)
    assert len(scan.measurements) == 11
    assert (128, 128) in shapes
    assert max(max(shape) for shape in shapes) <= 128


def test_lr_scan_hermitian_pair_never_reaches_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("spectral_norm fell through to the SVD")

    lat = chain_lattice(6)
    inter = random_bond_ising(lat, 1.0, 1.0, seed=1)
    monkeypatch.setattr(np.linalg, "norm", no_svd)
    for b in (single_site(5, "X"), single_site(5, "Z")):
        scan = lr_commutator_scan(inter, single_site(0, "Z"), b,
                                  [0.1 * k for k in range(21)], mu=1.0)
        assert len(scan.measurements) == 21


def test_lr_scan_one_product_route_checks_hermiticity_outside_the_loop(
        monkeypatch):
    # i(X - X*) is Hermitian by construction; the one-product route used to
    # hand it to spectral_norm, whose tiled _is_hermitian pass then ran at
    # every time point
    from correlab import lattice, operators
    lat = chain_lattice(6)
    inter = heisenberg_xxz(lat, 1.0, 0.5, h=0.3)  # z-field: no sectors
    checks, routes = [], []
    real_check, real_norm = lattice._is_hermitian, dynamics._commutator_norm

    def check(*args, **kwargs):
        checks.append(1)
        return real_check(*args, **kwargs)

    for module in (operators, dynamics):
        monkeypatch.setattr(module, "_is_hermitian", check)
    monkeypatch.setattr(
        dynamics, "_commutator_norm",
        lambda *args: routes.append(args[1]) or real_norm(*args))
    counts = []
    for times in ([0.5], [0.1 * k for k in range(1, 8)]):
        checks.clear()
        scan = lr_commutator_scan(inter, single_site(0, "X"),
                                  single_site(4, "Y"), times, mu=1.0)
        assert len(scan.measurements) == len(times)
        counts.append(len(checks))
    assert routes == [True, True]  # the one-product route, Hermitian pair
    assert counts[0] == counts[1] > 0


def test_locality_scan_hermitian_operator_never_reaches_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("spectral_norm fell through to the SVD")

    lat = chain_lattice(7)
    inter = random_bond_ising(lat, 1.0, 1.0, seed=1)
    monkeypatch.setattr(np.linalg, "norm", no_svd)
    scan = locality_scan(inter, single_site(3, "Z"), [1.0, 2.0, 3.0],
                         [0.25 * k for k in range(5)], mu=1.0)
    assert len(scan.measurements) == 15


def _foreign_window_setup():
    # Z_5 built by hand on sites 2-5 of a 6-site chain: an operator on a
    # sub-window, of the wrong dimension for the whole lattice the scans
    # work on
    inter = transverse_field_ising(chain_lattice(6), 1.0, 1.0)
    z5 = EmbeddedOperator((5,), np.kron(np.eye(8), PAULI_Z))
    return inter, z5


def test_lr_scan_rejects_foreign_window():
    inter, z5 = _foreign_window_setup()
    for a, b in ((single_site(0, "Z"), z5), (z5, single_site(0, "Z"))):
        with pytest.raises(ValueError, match="does not act on the lattice"):
            lr_commutator_scan(inter, a, b, [0.5], mu=1.0)


def test_locality_scan_rejects_foreign_window():
    inter, z5 = _foreign_window_setup()
    with pytest.raises(ValueError, match="does not act on the lattice"):
        locality_scan(inter, z5, [1.0], [0.5], mu=1.0)


# ---------------------------------------------------------------------------
# local approximants
# ---------------------------------------------------------------------------

def test_approximant_full_ball_reproduces_evolution():
    lat, inter, ctx = setup(3)
    tau = evolve(ctx, single_site(1, "Z"), 0.5)
    approx = conditional_expectation(tau, lat.sites, lat)
    assert np.abs(approx.matrix - tau.matrix).max() < 1e-12


def test_approximant_radius_zero_projects_to_origin_site():
    # the ball of radius 0 is the support itself
    lat, inter, ctx = setup(3)
    a = single_site(1, "Z")
    scan = locality_scan(inter, a, [0.0], [0.4], mu=1.0)
    tau = evolve(ctx, a, 0.4)
    ref = conditional_expectation(tau, [1], lat)
    assert abs(scan.measurements[0].error
               - spectral_norm(tau.matrix - ref.matrix)) < 1e-13


def test_locality_scan_error_decreases_with_radius():
    inter = transverse_field_ising(chain_lattice(5), 1.0, 1.0)
    scan = locality_scan(inter, single_site(2, "Z"), [1.0, 2.0, 3.0],
                         [0.25, 0.5], mu=1.0)
    maxes = scan.max_error_by_radius()
    assert maxes[1.0] > maxes[2.0] > maxes[3.0]
    assert np.isfinite(scan.c_empirical)
    assert scan.c_empirical > 0
    assert scan.monotone_in_radius is True and scan.passed is True


def test_locality_scan_envelope_multiplier():
    inter = transverse_field_ising(chain_lattice(4), 1.0, 1.0)
    s1 = locality_scan(inter, single_site(1, "Z"), [1.0], [0.5], mu=1.0)
    s2 = locality_scan(inter, single_site(1, "Z"), [1.0], [0.5], mu=1.0,
                       exponent_multiplier=2.0)
    m1, m2 = s1.measurements[0], s2.measurements[0]
    assert abs(m1.error - m2.error) < 1e-13
    assert abs(m2.envelope - m1.envelope * np.exp(-1.0)) < 1e-12



def _dense_locality_errors(inter, a, radii, times):
    """The scan's errors by the dense route: the norm of the whole
    site-basis error tau_t(A) - E_r(tau_t(A)), tau_t(A) by numpy's eigh."""
    lat = inter.lattice
    tau_at = _evolution_by_eigh(inter, a)
    out = []
    for t in times:
        tau = EmbeddedOperator(lat.sites, tau_at(t))
        for r in radii:
            approx = conditional_expectation(tau, ball(lat, a.support, r), lat)
            out.append(spectral_norm(tau.matrix - approx.matrix))
    return out


# Z and Y are odd under the global spin flip and X is even; every term of
# random-bond Ising and of XXZ at h = 0 is even, -h Z is odd, and sigma+
# is not Hermitian.  For X on random-bond Ising the two even blocks have
# equal norms, on XXZ they do not.  A 1e-15 Z on one site leaves H even
# only to within round-off, so eig_hermitian solves it whole and the scan
# takes the dense route with it.
@pytest.mark.parametrize("model, a, route", [
    ("rbi", single_site(2, "Z"), "flip_odd"),
    ("rbi", single_site(2, "X"), "flip_even"),
    ("xxz", single_site(2, "Y"), "flip_odd"),
    ("xxz", single_site(2, "X"), "flip_even"),
    ("xxz_field", single_site(2, "Z"), "dense"),
    ("rbi", LocalOperator((2,), SIGMA_PLUS), "dense"),
    ("rbi_tilted", single_site(2, "Z"), "dense"),
], ids=["rbi-z", "rbi-x", "xxz-y", "xxz-x", "xxz-field-z",
        "rbi-sigma-plus", "rbi-tilted-z"])
def test_locality_scan_matches_dense_route(model, a, route):
    lat = chain_lattice(6)
    rbi = random_bond_ising(lat, 1.0, 1.0, seed=3)
    tilted = dict(rbi.terms)
    tilted[(0,)] = -PAULI_X + 1e-15 * PAULI_Z
    inter = {"rbi": rbi,
             "rbi_tilted": Interaction(lat, tilted),
             "xxz": heisenberg_xxz(lat, 1.0, 0.5),
             "xxz_field": heisenberg_xxz(lat, 1.0, 0.5, h=0.7)}[model]
    ctx = evolution_context(inter)
    radii, times = [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0]
    scan = locality_scan(inter, a, radii, times, mu=1.0)
    assert scan.norm_route == route
    assert (ctx.decomposition.sector is not None) == (model in ("rbi", "xxz"))
    got = np.array([m.error for m in scan.measurements])
    ref = np.array(_dense_locality_errors(inter, a, radii, times))
    assert ref.max() > 0.5  # the evolved operator has spread past the ball
    assert np.abs(got - ref).max() <= scan.noise_floor
    assert scan.floor_rows == np.count_nonzero(got < scan.noise_floor)


@pytest.mark.parametrize("op, route", [
    (1j * PAULI_Z, "flip_odd"), (PAULI_Z + 1j * PAULI_Y, "flip_odd"),
    (1j * PAULI_X, "flip_even")], ids=["iZ", "Z+iY", "iX"])
def test_locality_scan_reads_a_non_hermitian_operator_in_the_sectors(op,
                                                                     route):
    # the parity alone picks the route: an A that is not Hermitian is read
    # in both blocks of its parity, and its errors are the dense ones
    inter = random_bond_ising(chain_lattice(6), 1.0, 1.0, seed=3)
    a = LocalOperator((2,), op)
    radii, times = [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0]
    scan = locality_scan(inter, a, radii, times, mu=1.0)
    assert scan.norm_route == route
    got = np.array([m.error for m in scan.measurements])
    ref = np.array(_dense_locality_errors(inter, a, radii, times))
    assert ref.max() > 0.5
    assert np.abs(got - ref).max() < 1e-13


@pytest.mark.parametrize("op", ["Z", "X"])
def test_locality_scan_parity_route_stays_at_half_size(monkeypatch, op):
    # every eigensolver call is on a block of at most D/2 = 128, never on
    # the D-sized error
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    inter = random_bond_ising(chain_lattice(8), 1.0, 1.0, seed=2)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    scan = locality_scan(inter, single_site(3, op), [1.0, 2.0, 3.0],
                         [0.0, 0.5, 1.0], mu=1.0)
    assert len(scan.measurements) == 9
    assert (128, 128) in shapes
    assert max(max(shape) for shape in shapes) <= 128


# ---------------------------------------------------------------------------
# sector routes against the dense formulas
# ---------------------------------------------------------------------------

def _chain_model(name, n):
    lat = chain_lattice(n)
    if name == "tfim":
        return transverse_field_ising(lat, 1.0, 1.0)
    return random_bond_ising(lat, 1.0, 1.0, seed=n)


# sector: the scan runs without a dense transform of A (A odd, B's level
# sets mirrored by the index reversal); X is flip-even, and the reversal
# maps each level set of Z x Z onto itself, so those pairs take the
# one-product route with A and B transformed once each
@pytest.mark.parametrize("model, n, a, b, sector", [
    ("tfim", 6, single_site(0, "Z"), single_site(5, "Z"), True),
    ("tfim", 6, single_site(2, "Y"), single_site(4, "Z"), True),
    ("tfim", 6, single_site(1, "Z"), LocalOperator((4,), PROJ_0), True),
    ("tfim", 6, single_site(1, "X"), single_site(3, "Z"), False),
    ("tfim", 6, single_site(0, "Z"), LocalOperator((2, 3), ZZ), False),
    ("rbi", 8, single_site(7, "Z"), single_site(0, "Z"), True),
    ("rbi", 8, single_site(3, "Y"), LocalOperator((5,), PROJ_0), True),
    ("rbi", 8, single_site(0, "X"), single_site(6, "Z"), False),
    ("rbi", 9, single_site(0, "Z"), single_site(8, "Z"), True),
    ("rbi", 9, single_site(0, "Z"), single_site(4, "Z"), True),
    ("tfim", 9, single_site(0, "Z"), single_site(6, "Z"), True),
], ids=["tfim6-z0-z5", "tfim6-y2-z4", "tfim6-z1-proj4", "tfim6-x1-z3",
        "tfim6-z0-zz23", "rbi8-z7-z0", "rbi8-y3-proj5", "rbi8-x0-z6",
        "rbi9-z0-z8", "rbi9-z0-z4", "tfim9-z0-z6"])
def test_lr_scan_sector_route_matches_dense_formula(monkeypatch, model, n,
                                                    a, b, sector):
    inter = _chain_model(model, n)
    ctx = evolution_context(inter)
    assert ctx.decomposition.sector is not None
    times = [0.0, 0.3, 1.0, 2.0, 4.0]
    calls, transform = [], SpectralDecomposition.transform
    monkeypatch.setattr(SpectralDecomposition, "transform",
                        lambda self, m: calls.append(1) or transform(self, m))
    scan = lr_commutator_scan(inter, a, b, times, mu=1.0)
    monkeypatch.undo()
    assert len(calls) == (0 if sector else 2)
    got = np.array([m.commutator_norm for m in scan.measurements])
    ref = np.array(_site_basis_norms(inter, a, b, times))
    assert ref.max() > 0.01  # the commutator has grown past round-off
    assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("model, n, a, route", [
    ("tfim", 6, single_site(2, "Z"), "flip_odd"),
    ("tfim", 7, single_site(3, "Y"), "flip_odd"),
    ("tfim", 6, single_site(1, "X"), "flip_even"),
    ("rbi", 8, single_site(4, "Z"), "flip_odd"),
    ("rbi", 8, single_site(2, "Y"), "flip_odd"),
    ("rbi", 7, single_site(5, "X"), "flip_even"),
    ("rbi", 9, single_site(5, "Z"), "flip_odd"),
], ids=["tfim6-z2", "tfim7-y3", "tfim6-x1", "rbi8-z4", "rbi8-y2", "rbi7-x5",
        "rbi9-z5"])
def test_locality_scan_sector_route_matches_dense_formula(model, n, a, route):
    inter = _chain_model(model, n)
    radii = [1.0, 2.0, 3.0]
    times = [0.0, 0.5, 1.0]
    scan = locality_scan(inter, a, radii, times, mu=1.0)
    assert scan.norm_route == route
    got = np.array([m.error for m in scan.measurements])
    ref = np.array(_dense_locality_errors(inter, a, radii, times))
    assert ref.max() > 0.05
    assert np.abs(got - ref).max() < 1e-12


def test_lightcone_scans_evolve_in_the_sectors_alone(monkeypatch):
    # the benchmark's lightcone pair at a smaller size: Z at both ends of
    # a random-bond chain, then Z at an inner site with radii 1 to 3; no
    # term of an evolution exceeds D/2 and no dense transform is made
    def refuse(*args, **kwargs):
        raise AssertionError("a dense route was taken")

    evolution = dynamics._evolution

    def half_size_evolution(bases, blocks):
        for left, right, abar in blocks:
            shapes = abar.shape + bases[left][0].shape + bases[right][0].shape
            if max(shapes) > 64:  # D/2 at n = 7
                refuse()
        return evolution(bases, blocks)

    inter = random_bond_ising(chain_lattice(7), 1.0, 1.0, seed=4)
    monkeypatch.setattr(dynamics, "_evolution", half_size_evolution)
    monkeypatch.setattr(SpectralDecomposition, "transform", refuse)
    for a, b in ((0, 6), (6, 0)):
        scan = lr_commutator_scan(inter, single_site(a, "Z"),
                                  single_site(b, "Z"),
                                  [0.1 * k for k in range(21)], mu=1.0)
        assert len(scan.measurements) == 21
    for site in (2, 3, 4):
        scan = locality_scan(inter, single_site(site, "Z"), [1.0, 2.0, 3.0],
                             [0.25 * k for k in range(5)], mu=1.0)
        assert scan.norm_route == "flip_odd"
        assert len(scan.measurements) == 15


@pytest.mark.parametrize("key, value", [
    ("mu", 0.0), ("mu", -1.0), ("mu", float("nan")), ("mu", float("inf")),
    ("exponent_multiplier", 0.0), ("exponent_multiplier", -1.0),
    ("exponent_multiplier", float("nan")),
    ("exponent_multiplier", float("inf")),
    ("radii", [1.0, -1.0]),
])
def test_locality_scan_refuses_rates_not_finite_and_positive(monkeypatch,
                                                             key, value):
    # a given velocity keeps certify_locality out of it: with mu <= 0 or a
    # multiplier <= 0 the envelope does not decay in r, and a negative
    # radius has no ball; each is refused before any evolution
    calls = []
    monkeypatch.setattr(dynamics, "_evolution",
                        lambda *args: calls.append(args))
    _, inter, _ = setup(4)
    kwargs = {"radii": [1.0], "times": [0.5], "mu": 1.0, "velocity": 2.0,
              key: value}
    with pytest.raises(ValueError, match="radius" if key == "radii" else key):
        locality_scan(inter, single_site(1, "Z"), **kwargs)
    assert calls == []


@pytest.mark.parametrize("which, local", [
    ("a", np.eye(2)), ("b", np.eye(2)), ("a", 2.5 * np.eye(2)),
    ("b", np.zeros((2, 2)))], ids=["a-I", "b-I", "a-2.5I", "b-zero"])
def test_lr_commutator_scan_refuses_a_multiple_of_the_identity(
        monkeypatch, which, local):
    # [B, tau_t(A)] vanishes for A or B = cI: with A = I0 and B = Z3 the
    # scan used to report c_empirical 3.4e-18 and pass; now it is refused
    # before any evolution
    calls = []
    monkeypatch.setattr(dynamics, "_evolution",
                        lambda *args: calls.append(args))
    _, inter, _ = setup(4)
    ops = {"a": single_site(0, "Z"), "b": single_site(3, "Z"),
           which: LocalOperator((0,) if which == "a" else (3,), local)}
    with pytest.raises(ValueError, match=f"^{which} must not be I or a "
                       "multiple of it"):
        lr_commutator_scan(inter, ops["a"], ops["b"], [0.5], mu=1.0)
    assert calls == []


@pytest.mark.parametrize("local", [np.eye(2), -np.eye(2)], ids=["I", "-I"])
def test_locality_scan_refuses_a_multiple_of_the_identity(monkeypatch, local):
    calls = []
    monkeypatch.setattr(dynamics, "_evolution",
                        lambda *args: calls.append(args))
    _, inter, _ = setup(4)
    with pytest.raises(ValueError, match="^a must not be I"):
        locality_scan(inter, LocalOperator((1,), local), [1.0], [0.5], mu=1.0)
    assert calls == []


@pytest.mark.parametrize("radii", [[2.0, 1.0], [1.0, 1.0], [0.0, 2.0, 1.0]],
                         ids=["decreasing", "repeated", "turning"])
def test_locality_scan_refuses_radii_that_do_not_increase(monkeypatch, radii):
    # with radii [2, 1] the scan used to run, and its rows could not show
    # the error falling in r; the CLI refused such a config already
    calls = []
    monkeypatch.setattr(dynamics, "_evolution",
                        lambda *args: calls.append(args))
    _, inter, _ = setup(4)
    with pytest.raises(ValueError, match="radii must be strictly increasing"):
        locality_scan(inter, single_site(1, "Z"), radii, [0.5], mu=1.0)
    assert calls == []


@pytest.mark.parametrize("key, scan", [
    ("times", lambda inter, z: lr_commutator_scan(inter, z(0), z(3), [],
                                                  mu=1.0)),
    ("radii", lambda inter, z: locality_scan(inter, z(1), [], [0.5], mu=1.0)),
    ("times", lambda inter, z: locality_scan(inter, z(1), [1.0], [], mu=1.0)),
], ids=["lr-times", "locality-radii", "locality-times"])
def test_scans_refuse_an_empty_grid(key, scan):
    # no measurement, so no prefactor: c_empirical 0.0 would claim a bound
    _, inter, _ = setup(4)
    with pytest.raises(ValueError, match=f"{key} must not be empty"):
        scan(inter, lambda site: single_site(site, "Z"))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, call", [
    ("mu", lambda inter, z: lr_commutator_scan(inter, z(0), z(3), [0.5],
                                               mu=_NAN)),
    ("velocity", lambda inter, z: lr_commutator_scan(
        inter, z(0), z(3), [0.5], mu=1.0, velocity=_NAN)),
    ("velocity", lambda inter, z: lr_commutator_scan(
        inter, z(0), z(3), [0.5], mu=1.0, velocity=-1.0)),
    ("velocity", lambda inter, z: lr_commutator_scan(
        inter, z(0), z(3), [0.5], mu=1.0, velocity=_INF)),
    ("times", lambda inter, z: lr_commutator_scan(inter, z(0), z(3),
                                                  [0.5, _NAN], mu=1.0)),
    ("times", lambda inter, z: lr_commutator_scan(inter, z(0), z(3), [_INF],
                                                  mu=1.0)),
    ("velocity", lambda inter, z: locality_scan(inter, z(1), [1.0], [0.5],
                                                mu=1.0, velocity=_NAN)),
    ("velocity", lambda inter, z: locality_scan(inter, z(1), [1.0], [0.5],
                                                mu=1.0, velocity=-1.0)),
    ("velocity", lambda inter, z: locality_scan(inter, z(1), [1.0], [0.5],
                                                mu=1.0, velocity=_INF)),
    ("radii", lambda inter, z: locality_scan(inter, z(1), [_NAN], [0.5],
                                             mu=1.0)),
    ("times", lambda inter, z: locality_scan(inter, z(1), [1.0], [_NAN],
                                             mu=1.0)),
    ("mu", lambda inter, z: certify_locality(inter, _NAN)),
    ("mu", lambda inter, z: certify_locality(inter, _INF)),
    ("mu", lambda inter, z: dynamics._lr_envelopes(inter, z(0), z(3), [0.5],
                                                   0.0, 1.0)),
    ("exponent_multiplier", lambda inter, z: dynamics._locality_envelopes(
        inter, z(1), [1.0], [0.5], 1.0, None, 0.0)),
    ("exponent_multiplier", lambda inter, z: dynamics._locality_envelopes(
        inter, z(1), [1.0], [0.5], 1.0, None, -1.0)),
], ids=["lr-mu-nan", "lr-velocity-nan", "lr-velocity-negative",
        "lr-velocity-inf", "lr-times-nan", "lr-times-inf",
        "locality-velocity-nan", "locality-velocity-negative",
        "locality-velocity-inf", "locality-radii-nan", "locality-times-nan",
        "certify-mu-nan", "certify-mu-inf", "lr-envelopes-mu-0",
        "locality-envelopes-multiplier-0",
        "locality-envelopes-multiplier-negative"])
def test_scans_refuse_a_bound_they_cannot_measure(key, call):
    # each of these gave a prefactor from NaN or infinite envelopes, or
    # failed inside the eigensolver; the envelope helpers the CLI validates
    # with took mu = 0 beside a given velocity, and a multiplier <= 0,
    # whose envelopes do not decay in the distance
    _, inter, _ = setup(4)
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        call(inter, lambda site: single_site(site, "Z"))


@pytest.mark.parametrize("scan", [
    lambda inter, z, **kw: lr_commutator_scan(inter, z(0), z(3), [0.0, 0.5],
                                              **kw),
    lambda inter, z, **kw: locality_scan(inter, z(1), [0.0, 1.0],
                                         [0.0, 0.5], **kw),
], ids=["lr", "locality"])
@pytest.mark.parametrize("rates", [{"mu": 700.0},
                                   {"mu": 1.0, "velocity": 1.0e4}],
                         ids=["certified", "given"])
def test_scans_refuse_an_envelope_that_is_not_finite(monkeypatch, scan,
                                                     rates):
    # at mu = 700 the certified v is 8.1e304: e^{-mu l} underflows to 0,
    # e^{v|t|} - 1 overflows, and every envelope was NaN, so the scan
    # passed with c_empirical 0 on no row; a given v = 1e4 overflows the
    # same way.  Each is refused before any evolution, with no warning.
    calls = []
    monkeypatch.setattr(dynamics, "_evolution",
                        lambda *args: calls.append(args))
    _, inter, _ = setup(4)
    with pytest.raises(ValueError, match="envelope is not finite"):
        scan(inter, lambda site: single_site(site, "Z"), **rates)
    assert calls == []


def test_scans_run_just_inside_the_finite_envelopes():
    # v t = 600 keeps e^{v t} finite: both scans run and pass
    _, inter, _ = setup(4)
    z = lambda site: single_site(site, "Z")
    lr = lr_commutator_scan(inter, z(0), z(3), [0.0, 0.5], mu=1.0,
                            velocity=1200.0)
    loc = locality_scan(inter, z(1), [0.0, 1.0], [0.0, 0.5], mu=1.0,
                        velocity=1200.0)
    for res in (lr, loc):
        envs = [m.envelope for m in res.measurements]
        assert np.isfinite(envs).all() and max(envs) > 1e250
        assert np.isfinite(res.c_empirical)
