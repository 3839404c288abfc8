"""Gibbs states, the KMS function on its strip, and the two correlator routes."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from correlab import (chain_lattice, grid_lattice, transverse_field_ising,
                      heisenberg_xxz, embed, single_site, build_hamiltonian,
                      eig_hermitian, gibbs_state, KMSFunction, kms_function,
                      ordinary_correlator, canonical_correlator,
                      contour_decomposition, contour_grid,
                      LocalOperator, PAULI_X, PAULI_Y, PAULI_Z)
from correlab import spectral, thermal
from correlab.thermal import _duhamel_kernel


def setup_chain(n=3, J=1.0, h=0.9, beta=1.2):
    lat = chain_lattice(n)
    inter = transverse_field_ising(lat, J=J, h=h)
    ham = build_hamiltonian(inter).matrix
    st = gibbs_state(ham, beta)
    return lat, ham, st


def energy_basis(st, *ops):
    """Each operator in the energy basis by the dense V written out, not
    through the block reader that kms_function and transform share."""
    v = st.decomposition.eigenvectors
    return tuple(v.conj().T @ getattr(op, "matrix", op) @ v for op in ops)


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


@pytest.mark.parametrize("beta", [float("inf"), float("nan")])
def test_gibbs_state_rejects_non_finite_beta(beta):
    # both used to give NaN weights and a NaN log_partition without an error
    _, ham, _ = setup_chain(n=4)
    with pytest.raises(ValueError, match="finite"):
        gibbs_state(ham, beta)


def test_expectation_matches_trace_formula():
    rng = np.random.default_rng(17)
    lat, ham, st = setup_chain()
    rho = density_matrix(ham, st.beta)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    ge, = energy_basis(st, g)
    assert abs(thermal._gibbs_mean(st.weights, ge) - np.trace(rho @ g)) < 1e-12


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
    # Z/Z: both odd under the spin flip, so F does not vanish by symmetry
    lat, ham, st = setup_chain()
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    fn = kms_function(st, a, b)
    assert abs(fn.eval(0.4 + 0.3j)) > 0.1
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
    # X/X: both even under the spin flip, so F does not vanish by symmetry
    lat, ham, st = setup_chain(beta=0.8)
    a = embed(single_site(0, "X"), lat)
    b = embed(single_site(2, "X"), lat)
    fn = kms_function(st, a, b)
    ts = np.linspace(-2, 2, 17)
    assert np.abs(fn.eval_grid(ts, imag=st.beta)).min() > 0.1
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
    fw = KMSFunction(wide, np.eye(2), np.eye(2))
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
    fw = KMSFunction(wide, np.eye(2), np.eye(2))
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
    ae, be = energy_basis(st, a, b)
    ts = np.linspace(-2.5, 2.5, 11)
    beta = st.beta
    for s in (0.0, 0.3 * beta, 0.7 * beta, beta, -beta):
        ref = _reference_f_grid(st, ae, be, ts, s)
        assert _close(fn.eval_grid(ts, imag=s), ref)
        assert _close([fn.eval(t + 1j * s) for t in ts], ref)
    for s in (0.0, -0.3 * beta, -0.7 * beta, -beta, beta):
        ref = _reference_g_grid(st, ae, be, ts, s)
        assert _close(fn.conjugate_eval_grid(ts, imag=s), ref)
        assert _close([fn.conjugate_eval(t + 1j * s) for t in ts], ref)


def _kms_pair(kind):
    """(state, A, B) in the site basis on a 4-site chain (beta = 0.9), the
    pair product A * B^T real with real operands (Z/Z), real with
    imaginary operands (Y/Y on a real XXZ chain) or complex."""
    lat = chain_lattice(4)
    if kind == "imaginary":
        st = gibbs_state(build_hamiltonian(
            heisenberg_xxz(lat, J=1.0, delta=0.5)).matrix, 0.9)
        return (st, *(embed(single_site(s, "Y"), lat) for s in (0, 2)))
    st = _tfim_state(0.9)
    if kind == "real":
        return (st, *(embed(single_site(s, "Z"), lat) for s in (0, 2)))
    return (st, *_random_pair(16, 31))


def _held_dtypes(fn):
    """(dtype of the held A blocks, dtype of the held pair product): P is
    held as its real parts, one for a real P and two otherwise."""
    (a_dtype,) = {a.dtype for _, _, a, _, _ in fn._blocks}
    (parts,) = {len(pair) for *_, pair in fn._blocks}
    return a_dtype, np.float64 if parts == 1 else np.complex128


@pytest.mark.parametrize("kind, a_dtype, pair_dtype", [
    ("real", np.float64, np.float64),
    ("imaginary", np.complex128, np.float64),
    ("complex", np.complex128, np.complex128)])
def test_every_pair_arithmetic_matches_written_out_formulas(kind, a_dtype,
                                                            pair_dtype):
    # F and G through the pair product, in whichever arithmetic it picks,
    # against the written-out formulas: heights inside the strip, at
    # +-beta and past either axis, on a grid longer than one column block
    # of the phase table, and pointwise
    st, a, b = _kms_pair(kind)
    fn = kms_function(st, a, b)
    assert _held_dtypes(fn) == (a_dtype, pair_dtype)
    ae, be = energy_basis(st, a, b)
    beta = st.beta
    width = thermal._PHASE_BLOCK // st.dim
    ts = np.linspace(-3.0, 3.0, width + 3)
    points = ts[::width // 4]
    for s in (0.0, 0.4 * beta, -0.4 * beta, 0.7 * beta, -0.7 * beta,
              beta, -beta):
        ref = _reference_f_grid(st, ae, be, ts, s)
        assert _close(fn.eval_grid(ts, imag=s), ref)
        assert _close([fn.eval(t + 1j * s) for t in points],
                      ref[::width // 4])
        ref = _reference_g_grid(st, ae, be, ts, s)
        assert _close(fn.conjugate_eval_grid(ts, imag=s), ref)
        assert _close([fn.conjugate_eval(t + 1j * s) for t in points],
                      ref[::width // 4])


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_point_evaluation_forms_no_square_temporary(kind):
    # a point is one mat-vec with the pair product; before, each point
    # built the D x D matrix (row col) * A * B^T, a 1.7 MB peak at D = 256
    dim = 256
    rng = np.random.default_rng(37)
    st = gibbs_state(np.diag(np.sort(rng.uniform(0.0, 4.0, dim))), 0.8)
    a, b = (rng.normal(size=(dim, dim)) for _ in range(2))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(dim, dim))
    fn = KMSFunction(st, a, b)
    z = 0.3 + 0.2j
    first = fn.eval(z)
    tracemalloc.start()
    try:
        again = fn.eval(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < dim * dim * 16 // 4


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
    ae, be = energy_basis(st, a, b)
    assert abs(fn.phi_a - np.sum(st.weights * np.diag(ae))) < 1e-14
    assert abs(fn.phi_b - np.sum(st.weights * np.diag(be))) < 1e-14


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
    assert abs(ordinary_correlator(kms_function(st, a, b)) - ref) < 1e-12


def test_canonical_routes_agree():
    lat, ham, st = setup_chain(beta=1.7)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    fn = kms_function(st, a, b)
    closed = canonical_correlator(fn, method="closed_form")
    quad = canonical_correlator(fn, method="quadrature")
    assert abs(closed) > 0.01
    assert abs(closed - quad) < 1e-10


def test_canonical_quadrature_warns_when_it_stops_unconverged():
    # beta (E_max - E_min) = 4e5: 512 nodes come before two refinements
    # agree within 1e-10; before, the value came back with no sign of it
    lat = chain_lattice(4)
    ham = build_hamiltonian(transverse_field_ising(lat, J=1.0, h=50.0))
    st = gibbs_state(ham.matrix, 1000.0)
    fn = kms_function(st, *(embed(single_site(s, "Y"), lat) for s in (0, 1)))
    with pytest.warns(RuntimeWarning, match="by 512 nodes"):
        quad = canonical_correlator(fn, method="quadrature")
    assert abs(quad - canonical_correlator(fn)) < 1e-8


def test_canonical_quadrature_stops_relative_to_the_value():
    # <Z0; Z1> is 2.0e-7 here; the 64- and 128-node values, 4.2e-31 and
    # 2.1e-12, agree within an absolute 1e-10, and that wrong value used
    # to come back with no warning.  Relative to the value no two
    # refinements agree by 512 nodes.
    lat = chain_lattice(4)
    ham = build_hamiltonian(transverse_field_ising(lat, J=1.0, h=50.0))
    st = gibbs_state(ham.matrix, 2000.0)
    fn = kms_function(st, *(embed(single_site(s, "Z"), lat) for s in (0, 1)))
    with pytest.warns(RuntimeWarning, match=r"by 512 nodes; the last one "
                      r"moved it by 1\.\d+e-07$"):
        quad = canonical_correlator(fn, method="quadrature")
    closed = canonical_correlator(fn)
    assert abs(closed - 2.0e-7) < 1e-9
    assert abs(quad - closed) < 2e-8


def test_canonical_quadrature_of_a_complex_pair_product_keeps_its_value():
    # X against Y and against X + Y on XXZ: P = A * B^T is complex, and the
    # quadrature reads it through one real GEMM on its interleaved view.
    # The values the zgemm route gave, at D = 64:
    zgemm = {"Y": -9.324138683375338e-18j,
             "X+Y": 0.24614226103314757 - 9.324138683375338e-18j}
    lat = chain_lattice(6)
    st = gibbs_state(build_hamiltonian(heisenberg_xxz(lat, 1.0, 0.5, h=0.3)), 1.0)
    a = embed(single_site(1, "X"), lat)
    for name, local in (("Y", PAULI_Y), ("X+Y", PAULI_X + PAULI_Y)):
        fn = kms_function(st, a, embed(LocalOperator((3,), local), lat))
        (_, _, _, _, pair), = fn._blocks  # no sectors in a z-field
        assert len(pair) == 2  # the real and imaginary parts of P
        scale = max(abs(zgemm[name]),
                    float(np.linalg.norm(pair, axis=0).max()))
        quad = canonical_correlator(fn, method="quadrature")
        assert abs(quad - zgemm[name]) <= 1e-14 * scale


def test_canonical_collapses_when_b_commutes_with_h():
    # classical Ising (h = 0): Z operators commute with H, so the imaginary
    # time average does nothing and both correlators coincide
    lat = chain_lattice(3)
    inter = transverse_field_ising(lat, J=1.0, h=0.0)
    st = gibbs_state(build_hamiltonian(inter).matrix, 1.3)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(2, "Z"), lat)
    fn = kms_function(st, a, b)
    canonical = canonical_correlator(fn, method="closed_form")
    ordinary = ordinary_correlator(fn)
    assert abs(canonical - ordinary) < 1e-12


def test_canonical_beta_zero_equals_uniform_ordinary():
    _, ham, _ = setup_chain()
    st = gibbs_state(ham, 0.0)
    rng = np.random.default_rng(19)
    g1 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    g2 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    fn = kms_function(st, g1, g2)
    ordinary = ordinary_correlator(fn)
    closed = canonical_correlator(fn, method="closed_form")
    quad = canonical_correlator(fn, method="quadrature")
    assert abs(closed - ordinary) < 1e-12
    # the quadrature average has no 1/beta, so beta = 0 takes the formula
    # of every other beta, and it holds to round-off
    assert abs(quad - ordinary) <= 1e-14
    assert abs(quad - closed) <= 1e-14


def test_canonical_self_pairing_is_nonnegative():
    # the Duhamel pairing <A, A> is an inner product for Hermitian A
    lat, ham, st = setup_chain()
    a = embed(single_site(1, "Z"), lat)
    val = canonical_correlator(kms_function(st, a, a), method="closed_form")
    assert abs(val.imag) < 1e-12
    assert val.real > -1e-14


def test_canonical_rejects_unknown_method():
    _, ham, st = setup_chain()
    with pytest.raises(ValueError, match="method"):
        canonical_correlator(kms_function(st, np.eye(8), np.eye(8)),
                             method="series")


@pytest.mark.parametrize("call", [
    lambda st, op: kms_function(st, op, op),
    lambda st, op: KMSFunction(st, op, op),
], ids=["kms_function", "KMSFunction"])
def test_operator_off_the_window_is_refused(call):
    # a bare single-site operator used to fail deep inside numpy with
    # "operands could not be broadcast together with shapes (2,1) (16,16)"
    lat = chain_lattice(4)
    st = gibbs_state(build_hamiltonian(transverse_field_ising(lat)).matrix,
                     1.0)
    with pytest.raises(ValueError, match=r"shape \(2, 2\) does not act on "
                       r"the lattice, of shape \(16, 16\); embed"):
        call(st, single_site(0, "Z"))


def test_duhamel_kernel_is_silent_at_low_temperature():
    # beta |Em - En| reaches past 700 here; the kernel only takes expm1 of
    # -beta |Em - En| <= 0, so no entry may overflow or warn
    lat = chain_lattice(6)
    st = gibbs_state(build_hamiltonian(transverse_field_ising(lat)).matrix,
                     50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = _duhamel_kernel(st.beta, st.energies, st.energies)
        a = embed(single_site(0, "Z"), lat)
        b = embed(single_site(5, "Z"), lat)
        fn = kms_function(st, a, b)
        closed = canonical_correlator(fn, method="closed_form")
        quad = canonical_correlator(fn, method="quadrature")
    assert np.isfinite(kern).all()
    assert abs(closed - quad) < 1e-8


def reference_kernel_entry(beta, em, en):
    """(1/beta) int_0^beta exp(-(beta-b)Em - b En) db, written out in math:
    the difference quotient where beta |Em - En| >= 1, 64-node
    Gauss-Legendre of the b-integral below that, exp(-beta Em) when the
    levels coincide."""
    x = beta * abs(em - en)
    if x >= 1.0:
        return (math.exp(-beta * en) - math.exp(-beta * em)) / (beta * (em - en))
    if x > 0.0:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        return 0.5 * math.fsum(
            w * math.exp(-(beta - b) * em - b * en)
            for w, b in zip(weights, 0.5 * beta * (nodes + 1.0)))
    return math.exp(-beta * em)


@pytest.mark.parametrize("beta", [0.7, 50.0])
def test_duhamel_kernel_matches_independent_reference(beta):
    # levels split by 1e-12, 1e-9 and 3e-6, where a degeneracy snap or a
    # cancelling difference quotient would show; the square kernel of one
    # spectrum, and a rectangular block between two different energy
    # vectors (two sectors), with levels shared, split and far apart
    e = np.array([0.0, 1e-12, 1e-9, 3e-6, 0.5, 0.5 + 1e-9, 2.0, 7.5, 40.0])
    f = np.array([1e-12, 2e-9, 0.5, 0.5 + 3e-6, 3.0, 40.0 + 1e-10])
    for e_row, e_col in ((e, e), (e, f), (f, e)):
        kern = _duhamel_kernel(beta, e_row, e_col)
        assert kern.shape == (e_row.size, e_col.size)
        for m, em in enumerate(e_row):
            for n, en in enumerate(e_col):
                ref = reference_kernel_entry(beta, float(em), float(en))
                assert abs(kern[m, n] - ref) <= 1e-13 * ref, (m, n)


def test_duhamel_kernel_temporaries_stay_small_beside_the_result(monkeypatch):
    # a 512 x 512 block, D = 1024's: with row blocks of the whole block its
    # four temporaries alive at once took four times the result; the work
    # is elementwise, so the row block moves no bit
    rng = np.random.default_rng(41)
    e_row, e_col = (np.sort(rng.uniform(0.0, 6.0, 512)) for _ in range(2))
    tracemalloc.start()
    try:
        kern = _duhamel_kernel(0.9, e_row, e_col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * kern.nbytes
    monkeypatch.setattr(thermal, "_KERNEL_BLOCK", kern.size)
    assert np.array_equal(_duhamel_kernel(0.9, e_row, e_col), kern)


def reference_ordinary(st, am, bm):
    p = st.weights
    mean = lambda m: np.sum(p * np.diag(m))
    return complex(np.einsum("m,mn,nm->", p, am, bm) - mean(am) * mean(bm))


def reference_closed_form(st, am, bm):
    p = st.weights
    mean = lambda m: np.sum(p * np.diag(m))
    kern = _duhamel_kernel(st.beta, st.energies, st.energies)
    return (complex(np.einsum("mn,mn,nm->", kern, am, bm)
                    / np.exp(st.log_partition)) - mean(am) * mean(bm))


def _tfim_state(beta):
    lat = chain_lattice(4)
    return gibbs_state(
        build_hamiltonian(transverse_field_ising(lat, h=0.8)).matrix, beta)


@pytest.mark.parametrize("beta", [0.0, 0.7, 50.0])
@pytest.mark.parametrize("basis", ["site", "energy"])
def test_correlators_match_written_out_formulas(beta, basis):
    # the parent's three-operand einsum formulas, kept as test-only
    # references; complex non-Hermitian pairs through kms_function (site
    # basis) or the KMSFunction constructor (energy basis), where real
    # pairs also stay in real arithmetic.  A site pair taken to the energy
    # basis by hand gives bit-identical values through the constructor.
    st = _tfim_state(beta)
    rng = np.random.default_rng(17)
    pairs = [tuple(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
                   for _ in range(2))]
    if basis == "energy":
        pairs.append(tuple(rng.normal(size=(16, 16)) for _ in range(2)))
    for a, b in pairs:
        fn = kms_function(st, a, b) if basis == "site" else KMSFunction(st, a, b)
        am, bm = energy_basis(st, a, b) if basis == "site" else (a, b)
        for got, ref in ((ordinary_correlator(fn),
                          reference_ordinary(st, am, bm)),
                         (canonical_correlator(fn),
                          reference_closed_form(st, am, bm))):
            assert abs(got - ref) <= 1e-13 * (1 + abs(ref))
        if basis == "site":
            twin = KMSFunction(st, *energy_basis(st, a, b))
            assert ordinary_correlator(twin) == ordinary_correlator(fn)
            for method in ("closed_form", "quadrature"):
                assert (canonical_correlator(twin, method=method)
                        == canonical_correlator(fn, method=method))


@pytest.mark.parametrize("complex_pair", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("vector", [False, True], ids=["matrix", "vector"])
def test_paired_sum_matches_the_written_out_sum(vector, complex_pair):
    # sum_mn W_mn A_mn B_nm over an m x n block and its n x m partner,
    # against the dense product; the sum's order differs, so the bound is
    # a few ulps of the sum of the moduli
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((70, 90)), rng.standard_normal((90, 70))
    if complex_pair:
        a, b = a + 1j * rng.standard_normal(a.shape), b - 2j * b
    w = rng.random(70) if vector else rng.random((70, 90))
    w_full = w[:, None] if vector else w
    want = np.sum(w_full * a * b.T)
    got = thermal._paired_sum(w, a, b)
    assert type(got) is complex
    assert abs(got - want) <= 64 * np.finfo(float).eps * np.sum(
        np.abs(w_full * a * b.T))


def test_integer_energy_pair_is_taken_as_float():
    # an integer pair used to reach _paired_sum as int and fail there with
    # a UFuncTypeError; the identity pair has phi(AB) = phi(A) phi(B) = 1
    fn = KMSFunction(_tfim_state(0.7), np.eye(16, dtype=int),
                     np.eye(16, dtype=int))
    assert _held_dtypes(fn)[0] == np.float64
    assert abs(ordinary_correlator(fn)) <= 1e-15


def test_duhamel_kernel_is_built_by_the_closed_form_alone(monkeypatch):
    # one kernel block per block pair of each closed-form call, and none
    # kept: Z/Z is odd, so its blocks (+, -) and (-, +) share one kernel
    # block and its transpose; X/X is even, with one block per sector
    lat = chain_lattice(4)
    calls = []
    real_kernel = thermal._duhamel_kernel

    def kernel(*args):
        kern = real_kernel(*args)
        calls.append(kern.shape)
        return kern

    monkeypatch.setattr(thermal, "_duhamel_kernel", kernel)
    st = gibbs_state(build_hamiltonian(transverse_field_ising(lat)).matrix, 1.0)
    z0, z3, x1 = (embed(single_site(s, op), lat)
                  for s, op in ((0, "Z"), (3, "Z"), (1, "X")))
    fn = kms_function(st, z0, z3)
    ordinary_correlator(fn)
    canonical_correlator(fn, method="quadrature")
    assert calls == []
    first = canonical_correlator(fn)
    assert canonical_correlator(fn) == first
    assert calls == [(8, 8)] * 2
    canonical_correlator(kms_function(st, x1, x1))
    assert calls == [(8, 8)] * 4
    assert not hasattr(st, "_kernel")


# ---------------------------------------------------------------------------
# the pair's block form against the dense pair
# ---------------------------------------------------------------------------

def _site_pair(n, model, a, b):
    """(state at beta = 0.8, A, B): single-site operators, named or given
    as 2 x 2 matrices, on a chain of n sites."""
    lat = chain_lattice(n)
    inter = (transverse_field_ising(lat, J=1.0, h=1.2) if model == "tfim"
             else heisenberg_xxz(lat, J=1.0, delta=0.5))
    st = gibbs_state(build_hamiltonian(inter).matrix, 0.8)
    return (st, *(embed(single_site(s, op), lat) for s, op in (a, b)))


def _kms_grids(st):
    """Time grids longer than one column block of the phase table: one
    exactly mirrored with t = 0 and an odd count, one (start + i step, as
    the correlators task builds it) with few mirrored pairs."""
    width = thermal._PHASE_BLOCK // st.dim
    g = np.linspace(0.05, 3.0, width + 5)
    mirrored = np.concatenate((-g[::-1], [0.0], g))
    stepped = np.array([-2.0 + 0.0125 * i for i in range(2 * width + 1)])
    return mirrored, stepped


@pytest.mark.parametrize("n, model, a, b, blocks", [
    (8, "tfim", (0, "Z"), (5, "Z"), [(0, 1), (1, 0)]),
    (8, "tfim", (1, "X"), (6, "X"), [(0, 0), (1, 1)]),
    (8, "xxz", (2, "Y"), (6, "Y"), [(0, 1), (1, 0)]),
    (10, "tfim", (3, "Y"), (5, "Z"), [(0, 1), (1, 0)]),
    (7, "tfim", (1, PAULI_X + PAULI_Y), (4, "Y"), [(0, 0)]),
], ids=["z-tfim8", "x-tfim8", "y-xxz8", "yz-tfim10", "no-parity-tfim7"])
def test_block_pair_matches_the_dense_pair(n, model, a, b, blocks):
    # kms_function reads the pair in its blocks; the constructor holds the
    # dense energy-basis pair as one block.  F and G at s in {0, +-beta/2,
    # +-beta}, grids and points, and every correlator agree within 1e-13
    st, a, b = _site_pair(n, model, a, b)
    fn = kms_function(st, a, b)
    dense = KMSFunction(st, *energy_basis(st, a, b))
    assert [(l, r) for l, r, *_ in fn._blocks] == blocks
    beta = st.beta
    for ts in _kms_grids(st):
        for s in (0.0, 0.5 * beta, -0.5 * beta, beta, -beta):
            assert _close(fn.eval_grid(ts, imag=s), dense.eval_grid(ts, imag=s))
            assert _close(fn.conjugate_eval_grid(ts, imag=s),
                          dense.conjugate_eval_grid(ts, imag=s))
    for z in (0.0, 0.7 + 0.4j, -1.3 - 0.8j, 2.1 + 0.8j):
        assert _close(fn.eval(z), dense.eval(z))
        assert _close(fn.conjugate_eval(z), dense.conjugate_eval(z))
    pairs = [(ordinary_correlator(fn), ordinary_correlator(dense))]
    pairs += [(canonical_correlator(fn, method), canonical_correlator(dense, method))
              for method in ("closed_form", "quadrature")]
    for got, ref in pairs:
        assert abs(got - ref) <= 1e-13 * (1 + abs(ref))
    assert np.abs(dense.eval_grid(ts)).max() > 1e-3  # F is not round-off
    assert abs(fn.phi_a - dense.phi_a) <= 1e-14
    assert abs(fn.phi_b - dense.phi_b) <= 1e-14


def test_mixed_parity_pair_holds_no_block_and_vanishes_exactly():
    # Z is odd and X even on TFIM: each block of A pairs with a block of B
    # that is zero, so F, G and the connected correlators are exactly 0;
    # the dense pair gives the same to round-off, and phi(B) is kept
    st, a, b = _site_pair(8, "tfim", (0, "Z"), (3, "X"))
    fn = kms_function(st, a, b)
    dense = KMSFunction(st, *energy_basis(st, a, b))
    assert fn._blocks == []
    beta = st.beta
    for ts in _kms_grids(st):
        for s in (0.0, 0.5 * beta, -0.5 * beta, beta, -beta):
            for got, ref in ((fn.eval_grid(ts, imag=s),
                              dense.eval_grid(ts, imag=s)),
                             (fn.conjugate_eval_grid(ts, imag=s),
                              dense.conjugate_eval_grid(ts, imag=s))):
                assert not got.any()
                assert np.abs(ref).max() <= 1e-13
    assert fn.eval(0.3 + 0.2j) == 0 and fn.conjugate_eval(0.3 - 0.2j) == 0
    assert fn.phi_a == 0 and abs(fn.phi_b - dense.phi_b) <= 1e-14
    assert abs(fn.phi_b) > 0.1
    for got, ref in ((ordinary_correlator(fn), ordinary_correlator(dense)),
                     (canonical_correlator(fn),
                      canonical_correlator(dense)),
                     (canonical_correlator(fn, "quadrature"),
                      canonical_correlator(dense, "quadrature"))):
        assert got == 0 and abs(ref) <= 1e-13


def test_the_pair_is_shared_across_gibbs_states():
    # the blocks do not depend on beta: _at rebinds them to another Gibbs
    # state of the same decomposition, bit for bit a fresh read there
    st, a, b = _site_pair(6, "xxz", (1, "Y"), (4, "Y"))
    fn = kms_function(st, a, b)
    dec = st.decomposition
    ts = np.linspace(-2.0, 2.0, 9)
    for beta in (0.0, 0.3, 2.5):
        other = gibbs_state(dec, beta)
        moved, fresh = fn._at(other), kms_function(other, a, b)
        assert moved._blocks is fn._blocks
        assert np.array_equal(moved.eval_grid(ts, imag=0.5 * beta),
                              fresh.eval_grid(ts, imag=0.5 * beta))
        for method in ("closed_form", "quadrature"):
            assert (canonical_correlator(moved, method)
                    == canonical_correlator(fresh, method))
        assert ordinary_correlator(moved) == ordinary_correlator(fresh)
    with pytest.raises(ValueError, match="decomposition"):
        fn._at(gibbs_state(eig_hermitian(dec.reconstruct()), 1.0))


_Y_PLUS_IZ = PAULI_Y + 1j * PAULI_Z  # odd under the spin flip, not Hermitian


def _local_and_embedded(lat, *ops):
    """(local, embedded): each (site, op) as a LocalOperator and as its
    embedding on lat, op a Pauli letter or a 2 x 2 matrix."""
    local = [single_site(s, op) for s, op in ops]
    return local, [embed(op, lat) for op in local]


@pytest.mark.parametrize("lat, h, a, b, blocks, rows", [
    (chain_lattice(8), 0.0, (1, "Y"), (6, "Y"), [(0, 1), (1, 0)], 128),
    (chain_lattice(8), 0.0, (1, "X"), (5, "X"), [(0, 0), (1, 1)], 128),
    (chain_lattice(8), 0.0, (2, "X"), (6, "Y"), [], 128),
    (chain_lattice(8), 0.3, (1, "Y"), (6, "Y"), [(0, 0)], 256),
    (chain_lattice(8), 0.0, (2, _Y_PLUS_IZ), (5, "Y"), [(0, 1), (1, 0)], 128),
    (chain_lattice(8), 0.0, (0, "I"), (5, "Z"), [], 128),
    (grid_lattice(3, 3), 0.0, ((0, 0), "Y"), ((2, 1), "Y"),
     [(0, 1), (1, 0)], 256),
], ids=["odd-odd", "even-even", "mixed", "no-sectors", "non-hermitian-odd",
        "identity-z", "grid-3x3"])
def test_local_pair_reads_the_bits_of_its_embedding(monkeypatch, lat, h, a,
                                                    b, blocks, rows):
    # a LocalOperator is embedded in only the rows its pair's blocks read
    # (D/2 with a parity, all D without), one operator at a time, and the
    # KMS function, both correlator routes and the contour terms are the
    # embedded pair's to the last bit
    st = gibbs_state(heisenberg_xxz(lat, J=1.0, delta=0.5, h=h), 0.8)
    local, embedded = _local_and_embedded(lat, a, b)
    embedded_rows = spectral._embedded_rows
    taken = []

    def spy(op, lattice, count):
        taken.append(count)
        return embedded_rows(op, lattice, count)

    monkeypatch.setattr(spectral, "_embedded_rows", spy)
    fn, ref = kms_function(st, *local), kms_function(st, *embedded)
    assert taken == [rows, rows]
    assert [(l, r) for l, r, *_ in fn._blocks] == blocks
    ts = np.linspace(-2.0, 2.0, 9)
    for s in (0.0, st.beta):
        assert np.array_equal(fn.eval_grid(ts, imag=s),
                              ref.eval_grid(ts, imag=s))
        assert np.array_equal(fn.conjugate_eval_grid(ts, imag=s),
                              ref.conjugate_eval_grid(ts, imag=s))
    assert ordinary_correlator(fn) == ordinary_correlator(ref)
    for method in ("closed_form", "quadrature"):
        assert (canonical_correlator(fn, method)
                == canonical_correlator(ref, method))
    assert (fn.phi_a, fn.phi_b) == (ref.phi_a, ref.phi_b)
    grids = [contour_grid(st, *pair, nodes=64) for pair in (local, embedded)]
    assert (contour_decomposition(grids[0], 0.4)
            == contour_decomposition(grids[1], 0.4))


def test_local_operator_on_a_decomposition_with_no_lattice_is_refused():
    # a matrix given whole carries no lattice to embed a LocalOperator on
    lat = chain_lattice(4)
    inter = heisenberg_xxz(lat, J=1.0, delta=0.5)
    assert eig_hermitian(inter).lattice is lat
    st = gibbs_state(build_hamiltonian(inter).matrix, 1.0)
    assert st.decomposition.lattice is None
    local, embedded = _local_and_embedded(lat, (0, "Y"), (3, "Y"))
    for call in (kms_function, contour_grid):
        with pytest.raises(ValueError, match="solve the Interaction"):
            call(st, *local)
        with pytest.raises(ValueError, match="solve the Interaction"):
            call(st, embedded[0], local[1])
    kms_function(st, *embedded)
