"""Release gate: one test per published guarantee, at its stated tolerance.

Each test prints a single line of the form

    criterion NN <name>: PASS (<measured values>)

when it holds (visible with ``pytest -s``); a failed assertion shows up as
a failed test for that criterion and nothing else.  Criteria with a stated
runtime budget assert the measured wall time last, after correctness.
"""
import json
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from correlab import (DIM_CAP, LocalOperator, build_hamiltonian,
                      canonical_correlator, certify_locality, chain_lattice,
                      commutator, conditional_expectation,
                      contour_decomposition, contour_grid, eig_hermitian,
                      embed, gibbs_state, heisenberg_xxz, kms_function,
                      locality_scan, lr_commutator_scan, ordinary_correlator,
                      random_bond_ising, residue_identity, sampled_twirl,
                      single_site, spectral_norm, theorem_check,
                      transverse_field_ising)
from correlab import cli
from correlab.lattice import Interaction
from correlab.operators import PAULI_I, PAULI_X, PAULI_Z


def report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:02d} {name}: PASS ({detail})")


def random_site_observable(rng, n_sites: int):
    """A random Hermitian observable on a random site of a chain."""
    site = int(rng.integers(n_sites))
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return single_site(site, (m + m.conj().T) / 2)


@pytest.fixture(scope="module")
def chain6():
    lat = chain_lattice(6)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    dec = eig_hermitian(build_hamiltonian(inter).matrix)
    return lat, inter, dec


@pytest.fixture(scope="module")
def xxz6():
    # XXZ at h = 0, the strip workload's model: reversal-symmetric
    lat = chain_lattice(6)
    dec = eig_hermitian(build_hamiltonian(heisenberg_xxz(lat, 1.0, 0.5)).matrix)
    return lat, dec


def parity_pairs(lat):
    """Z/Z, X/X and Y/Y pairs, odd, even and odd again: on a
    reversal-symmetric H each is read in its sector blocks, of size D/2."""
    return [(embed(single_site(s, op), lat), embed(single_site(t, op), lat))
            for op in ("Z", "X", "Y") for s, t in ((0, 5), (2, 3))]


def read_in_blocks(fn) -> bool:
    """fn holds its pair in (D/2)-sized blocks (the block route)."""
    half = fn.state.dim // 2
    return bool(fn._blocks) and all(
        a.shape == (half, half) for _, _, a, _, _ in fn._blocks)


# the correlators task's grid, start + i step: only 134 of its 161 |t| are
# distinct, so F(-|t|) is read from F(|t|) for some points and not others
UNMIRRORED = np.array([-4.0 + 0.05 * i for i in range(161)])


# ---------------------------------------------------------------------------
# 1. KMS boundary identity
# ---------------------------------------------------------------------------

def test_criterion_01_kms_boundary_identity(chain6, xxz6):
    lat, _, dec = chain6
    rng = np.random.default_rng(11)
    random_pairs = [(embed(random_site_observable(rng, 6), lat),
                     embed(random_site_observable(rng, 6), lat))
                    for _ in range(5)]
    cases = [(dec, random_pairs), (dec, parity_pairs(lat)),
             (xxz6[1], parity_pairs(xxz6[0]))]
    grids = (np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), UNMIRRORED)
    assert len(np.unique(np.abs(UNMIRRORED))) == 134

    t0 = time.perf_counter()
    worst, blocked = 0.0, 0
    for beta in (0.2, 1.0, 2.0):
        for d, pairs in cases:
            state = gibbs_state(d, beta)
            for a, b in pairs:
                fn = kms_function(state, a, b)
                blocked += read_in_blocks(fn)
                for ts in grids:
                    worst = max(worst, float(np.abs(fn.boundary_gap(ts)).max()))
    elapsed = time.perf_counter() - t0

    assert blocked == 3 * 2 * 6  # every parity pair took the block route
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(1, "kms boundary identity",
           f"max |F(t+ib) - G(t)| = {worst:.3e} <= 1e-10 over "
           f"{blocked} block-route pairs and 15 random ones, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Scalar residue identity
# ---------------------------------------------------------------------------

def test_criterion_02_residue_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.2, 1.0, 2.0):
        for height in (0.0, beta / 2, beta):
            res = residue_identity(beta, height, half_width=10.0)
            worst = max(worst, abs(res.value - 1.0))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-8
    assert elapsed < 5.0
    report(2, "residue identity",
           f"max |value - 1| = {worst:.3e} <= 1e-8, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Canonical correlator, closed form vs quadrature
# ---------------------------------------------------------------------------

def test_criterion_03_duhamel_dual_route(chain6, xxz6):
    lat, _, dec = chain6
    rng = np.random.default_rng(23)
    random_pairs = [(embed(random_site_observable(rng, 6), lat),
                     embed(random_site_observable(rng, 6), lat))
                    for _ in range(10)]
    cases = [(dec, random_pairs), (dec, parity_pairs(lat)),
             (xxz6[1], parity_pairs(xxz6[0]))]

    t0 = time.perf_counter()
    worst, blocked = 0.0, 0
    for beta in (0.5, 1.0):
        for d, pairs in cases:
            state = gibbs_state(d, beta)
            for a, b in pairs:
                fn = kms_function(state, a, b)
                blocked += read_in_blocks(fn)
                closed = canonical_correlator(fn, method="closed_form")
                quad = canonical_correlator(fn, method="quadrature")
                worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - t0

    assert blocked == 2 * 2 * 6  # every parity pair took the block route
    assert worst <= 1e-8
    assert elapsed < 60.0
    report(3, "duhamel dual route",
           f"max route gap {worst:.3e} <= 1e-8 over {blocked} block-route "
           f"pairs and 20 random ones, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Commuting observable collapses canonical to ordinary
# ---------------------------------------------------------------------------

def test_criterion_04_commuting_case_collapse():
    lat = chain_lattice(6)
    inter = transverse_field_ising(lat, 1.0, 0.0)  # classical: [H, Z_i] = 0
    ham = build_hamiltonian(inter)
    state = gibbs_state(ham.matrix, 1.0)

    b = embed(single_site(3, "Z"), lat)
    assert spectral_norm(commutator(ham, b)) <= 1e-12

    rng = np.random.default_rng(5)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = embed(single_site(1, (m + m.conj().T) / 2), lat)

    fn = kms_function(state, a, b)
    ordv = ordinary_correlator(fn)
    gap = 0.0
    for method in ("closed_form", "quadrature"):
        canv = canonical_correlator(fn, method=method)
        gap = max(gap, abs(canv - ordv))
    assert abs(ordv) > 1e-8  # the collapse is exercised on nonzero values
    assert gap <= 1e-12
    report(4, "commuting case collapse",
           f"|canonical - ordinary| = {gap:.3e} <= 1e-12 at |corr| = {abs(ordv):.3f}")


# ---------------------------------------------------------------------------
# 5. Lieb-Robinson commutator scan
# ---------------------------------------------------------------------------

def test_criterion_05_lieb_robinson_scan():
    lat = chain_lattice(10)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    times = [0.05 * k for k in range(41)]  # [0, 2] step 0.05

    t0 = time.perf_counter()
    scan = lr_commutator_scan(inter, single_site(0, "Z"), single_site(9, "Z"),
                              times, mu=1.0)
    elapsed = time.perf_counter() - t0

    assert scan.distance == 9.0
    assert np.isfinite(scan.c_empirical)
    assert scan.c_empirical <= 10.0
    # the envelope the prefactor is fitted to, recomputed: the certified
    # velocity, and ||A|| ||B|| min(|X|, |Y|) e^{-mu l} (e^{v|t|} - 1) with
    # ||Z|| = 1 and |X| = |Y| = 1
    v = certify_locality(inter, 1.0).velocity
    assert scan.velocity == v
    for m, t in zip(scan.measurements, times):
        want = np.exp(-1.0 * 9.0) * (np.exp(v * t) - 1.0)
        assert abs(m.envelope - want) <= 1e-12 * want
    assert elapsed < 300.0
    report(5, "lieb-robinson scan",
           f"c_emp = {scan.c_empirical:.3e} <= 10, "
           f"v = {scan.velocity:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Approximate locality of the evolved observable
# ---------------------------------------------------------------------------

def test_criterion_06_approximate_locality():
    lat = chain_lattice(10)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    radii = [1.0, 2.0, 3.0]
    times = [0.0, 0.25, 0.5, 0.75, 1.0]

    scan = locality_scan(inter, single_site(4, "Z"), radii, times, mu=1.0)
    c = scan.c_empirical
    assert np.isfinite(c)

    err = {(m.radius, m.time): m.error for m in scan.measurements}
    env = {(m.radius, m.time): m.envelope for m in scan.measurements}
    for key, e in err.items():
        if env[key] == 0.0:
            assert e <= 1e-12
        else:
            assert e <= c * env[key] * (1 + 1e-9)
    # strictly decreasing in the radius at each fixed time (slack 1e-12)
    for t in times:
        for r_small, r_big in zip(radii, radii[1:]):
            assert err[(r_big, t)] < err[(r_small, t)] + 1e-12

    worst = max(err[(r, times[-1])] for r in radii)
    report(6, "approximate locality",
           f"errors decrease in r at fixed t; max error {worst:.3e} at t=1, "
           f"c_emp = {c:.3e}")


# ---------------------------------------------------------------------------
# 7. Contour decomposition reconstructs the direct value
# ---------------------------------------------------------------------------

def test_criterion_07_contour_reconstruction(chain6):
    lat, _, dec = chain6
    beta = 1.0
    state = gibbs_state(dec, beta)
    a = embed(single_site(0, "Z"), lat)
    b = embed(single_site(5, "Z"), lat)
    delta = 1e-6

    t0 = time.perf_counter()
    worst = 0.0
    grid = contour_grid(state, a, b)
    for height in (delta, beta / 2, beta - delta):
        d = contour_decomposition(grid, height)
        rel = d.defect / (1 + abs(d.direct))
        worst = max(worst, rel)
        assert d.defect <= 1e-6 * (1 + abs(d.direct))
    elapsed = time.perf_counter() - t0

    assert elapsed < 120.0
    report(7, "contour reconstruction",
           f"max relative defect {worst:.3e} <= 1e-6, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Commutator term inherits the exponential envelope
# ---------------------------------------------------------------------------

def test_criterion_08_commutator_term_envelope():
    lat = chain_lattice(8)
    inter = transverse_field_ising(lat, 1.0, 1.0)
    mu = 1.0
    state = gibbs_state(build_hamiltonian(inter).matrix, 1.0)

    ls = list(range(2, 8))
    mags = []
    for l in ls:
        a = embed(single_site(0, "Z"), lat)
        b = embed(single_site(l, "Z"), lat)
        d = contour_decomposition(contour_grid(state, a, b), 0.5)
        mags.append(abs(d.term_commutator))
    slope = float(np.polyfit(ls, np.log(mags), 1)[0])

    assert slope <= -mu / 2 + 0.1
    report(8, "commutator term envelope",
           f"slope {slope:.3f} <= {-mu / 2 + 0.1:.2f} over l in {ls}")


# ---------------------------------------------------------------------------
# 9. Decay upgrade, end to end on the largest window
# ---------------------------------------------------------------------------

def test_criterion_09_decay_upgrade_surrogate():
    mu = 1.0
    distances = [2, 3, 4, 5, 6, 7, 8]

    t0 = time.perf_counter()
    results = {}
    for n in (10, 12):
        lat = chain_lattice(n)
        inter = transverse_field_ising(lat, 1.0, 2.0)
        results[n] = theorem_check(inter, 0.5, mu, distances)
    elapsed = time.perf_counter() - t0

    big = results[12]
    assert big.passed
    assert big.ordinary_fit.residual < 0.5
    assert np.isfinite(big.xi)
    bound = 1.2 * max(4.0 * big.xi, 2.0 / mu)
    assert big.xi_prime_empirical <= bound
    ratio = big.c_prime / results[10].c_prime
    assert 0.5 <= ratio <= 2.0
    # the reported xi' and c' recomputed from the rows: here xi is about 1,
    # so xi' = 4 xi at mu = 1, and a second mu with 2/mu > 4 xi takes the
    # other side of the max
    small_mu = 0.25
    assert 2.0 / small_mu > 4.0 * results[10].xi
    wide = theorem_check(transverse_field_ising(chain_lattice(10), 1.0, 2.0),
                         0.5, small_mu, distances)
    for res in (big, results[10], wide):
        xi_prime = max(4.0 * res.xi, 2.0 / res.mu)
        assert res.xi_prime == xi_prime
        # ||Z||^2 = 1: c' is the largest |canonical| e^{l/xi'} over the rows
        c_prime = max(abs(r.canonical) * np.exp(r.distance / xi_prime)
                      for r in res.rows)
        assert abs(res.c_prime - c_prime) <= 1e-12 * c_prime
    assert elapsed < 600.0
    report(9, "decay upgrade surrogate",
           f"residual {big.ordinary_fit.residual:.2e} < 0.5, "
           f"xi'_emp {big.xi_prime_empirical:.3f} <= {bound:.3f}, "
           f"c' ratio {ratio:.3f} in [0.5, 2], xi' and c' match the rows "
           f"at mu = 1 and {small_mu}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Sampled twirl converges at the Monte-Carlo rate
# ---------------------------------------------------------------------------

def test_criterion_10_twirl_convergence():
    lat = chain_lattice(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    op = embed(LocalOperator((0, 1), cnot), lat)
    exact = conditional_expectation(op, (0,), lat).matrix

    d_small, d_large = [], []
    for seed in range(20):
        s = sampled_twirl(op, (0,), lat, 4096, seed).matrix
        l = sampled_twirl(op, (0,), lat, 16384, seed).matrix
        d_small.append(float(np.linalg.norm(s - exact)))
        d_large.append(float(np.linalg.norm(l - exact)))
    med_small = float(np.median(d_small))
    med_large = float(np.median(d_large))

    assert med_large > 0.0
    assert med_small <= 4.0 * med_large
    report(10, "twirl convergence",
           f"median dist {med_small:.3e} (M=4096) <= "
           f"4 x {med_large:.3e} (M=16384)")


# ---------------------------------------------------------------------------
# 11. Eigensolver reconstruction and orthonormality
# ---------------------------------------------------------------------------

def reversal_symmetric_inputs(rng):
    """Hermitian H with J H J = H exactly, J the index reversal: random
    ones, real and complex, of even size up to 256, and model windows at
    n <= 10.  m + J m J is J-symmetric to the last bit, and so is its
    Hermitian part."""
    for k in range(20):
        n = 256 if k == 0 else 2 * int(rng.integers(1, 129))
        m = rng.standard_normal((n, n))
        if k % 2:
            m = m + 1j * rng.standard_normal((n, n))
        m = m + m[::-1, ::-1]
        yield (m + m.conj().T) / 2
    for inter in reversal_even_models():
        yield build_hamiltonian(inter).matrix


def reversal_even_models():
    """Interactions whose every term is reversal-even, at n <= 10."""
    return (transverse_field_ising(chain_lattice(10), 1.0, 1.0),
            random_bond_ising(chain_lattice(9), 1.0, 1.0, seed=3),
            heisenberg_xxz(chain_lattice(8), 1.0, 0.5))


def solved_from_interactions():
    """(interaction, whether it is solved in the blocks): the models of
    reversal_even_models, assembled in their top rows; XXZ in a field,
    dense; and odd terms that cancel, Z on (0,) and -Z x I on (0, 1),
    which the dense rule still finds even."""
    zz, xx = np.kron(PAULI_Z, PAULI_Z), np.kron(PAULI_X, PAULI_X)
    odd_cancelling = {(0,): PAULI_Z, (0, 1): -np.kron(PAULI_Z, PAULI_I),
                      (1, 2): -zz, (2, 3): -zz, (0, 3): -0.5 * xx,
                      **{(s,): -0.7 * PAULI_X for s in (1, 2, 3)}}
    return [*((inter, True) for inter in reversal_even_models()),
            (heisenberg_xxz(chain_lattice(8), 1.0, 0.5, h=0.3), False),
            (Interaction(chain_lattice(4), odd_cancelling), True)]


def test_criterion_11_eigensolver_contract():
    rng = np.random.default_rng(17)
    worst_recon = 0.0
    worst_orth = 0.0
    general = []
    for k in range(50):
        n = 256 if k == 0 else int(rng.integers(2, 257))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        general.append((m + m.conj().T) / 2)
    blocked = 0
    for h in (*general, *reversal_symmetric_inputs(rng)):
        n = len(h)
        dec = eig_hermitian(h)
        v = dec.eigenvectors
        if dec.sector is not None:  # solved in the reversal blocks
            blocked += 1
            assert np.array_equal(v[::-1], v * dec.sector)  # J v = sector v
        worst_recon = max(worst_recon,
                          float(np.abs(dec.reconstruct() - h).max()))
        worst_orth = max(worst_orth,
                         float(np.abs(v.conj().T @ v - np.eye(n)).max()))
    assert blocked == 23  # every reversal-symmetric input, and no other
    # from an Interaction: the solve of its assembled H, to the last bit
    models = solved_from_interactions()
    for inter, in_blocks in models:
        dec = eig_hermitian(inter)
        ref = eig_hermitian(build_hamiltonian(inter).matrix)
        assert (dec.sector is not None) == in_blocks
        assert np.array_equal(dec.eigenvalues, ref.eigenvalues)
        assert in_blocks == (ref.sector is not None)
        assert not in_blocks or np.array_equal(dec.sector, ref.sector)
        assert np.array_equal(dec._vectors, ref._vectors)
    assert worst_recon <= 1e-10
    assert worst_orth <= 1e-10
    report(11, "eigensolver contract",
           f"50 general and {blocked} reversal-symmetric matrices up to dim "
           f"1024: reconstruction {worst_recon:.3e}, orthonormality "
           f"{worst_orth:.3e}, both <= 1e-10, J v = sector v exactly; "
           f"{len(models)} interactions solve as their assembled H")


# ---------------------------------------------------------------------------
# 12. Repeated runs produce byte-identical CSV payloads
# ---------------------------------------------------------------------------

def test_criterion_12_run_determinism(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(textwrap.dedent("""\
        task: theorem_check
        model: {name: transverse_field_ising, n: 6, J: 1.0, h: 2.0}
        beta: 0.5
        mu: 1.0
        distances: [2.0, 3.0, 4.0, 5.0]
        """), encoding="utf-8")
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path / "one")]) == 0
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path / "two")]) == 0

    d1 = next((tmp_path / "one").iterdir())
    d2 = next((tmp_path / "two").iterdir())
    payload1 = (d1 / "theorem_check.csv").read_bytes()
    payload2 = (d2 / "theorem_check.csv").read_bytes()
    assert payload1 == payload2

    record = json.loads((d1 / "record.json").read_text())
    assert record["passed"] is True
    report(12, "run determinism",
           f"{len(payload1)} byte CSV payload identical across runs, "
           f"hash {record['config_hash']}")
