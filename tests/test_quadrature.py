"""Gauss-Legendre rule checks.

The nodes come from our own recurrence sweeps (up to 100 nodes) and
asymptotic expansions (above) rather than numpy's companion-matrix
eigensolve, so agreement with numpy, with Newton's method in extended
precision and of the two routes with each other is the oracle here,
alongside the defining exactness property of Gaussian rules.
"""
import numpy as np
import pytest
import scipy.special

from correlab import quadrature
from correlab.quadrature import gauss_legendre


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 65, 257])
def test_matches_numpy_leggauss(n):
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - xr).max() < 1e-13
    assert np.abs(w - wr).max() < 1e-13


@pytest.mark.parametrize("n", [2, 9, 100, 1024])
def test_basic_rule_properties(n):
    x, w = gauss_legendre(n)
    assert x.shape == (n,) and w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) < 1e-13
    # mirror symmetry is exact, not just close; principal-value
    # integrals downstream depend on it
    assert np.abs(x + x[::-1]).max() == 0.0
    assert np.abs(w - w[::-1]).max() == 0.0


def test_odd_rule_has_exact_zero_node():
    x, _ = gauss_legendre(9)
    assert x[4] == 0.0


def test_polynomial_exactness():
    # an n-point rule integrates degree 2n-1 exactly; probe a high even
    # power well inside that limit and one just past it
    n = 12
    x, w = gauss_legendre(n)
    inside = float(np.sum(w * x**22))
    assert abs(inside - 2.0 / 23.0) < 1e-15
    past = float(np.sum(w * x**24))
    assert abs(past - 2.0 / 25.0) > 1e-9


def test_large_count_is_fast_and_sane():
    import time

    t0 = time.perf_counter()
    x, w = gauss_legendre(4096)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert abs(float(np.sum(w * x**100)) - 2.0 / 101.0) < 1e-13


def test_cache_returns_frozen_arrays():
    x1, w1 = gauss_legendre(33)
    x2, w2 = gauss_legendre(33)
    assert x1 is x2 and w1 is w2
    assert not x1.flags.writeable
    with pytest.raises(ValueError):
        x1[0] = 0.0


def test_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def _longdouble_rule(n):
    """Non-negative nodes, descending, and their weights by plain Newton on
    the recurrence in extended precision: the reference for the rule."""
    x = np.cos(np.pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    x = x.astype(np.longdouble)
    for _ in range(8):  # quadratic from about 1e-5: far below 1e-19
        p0, p1 = np.ones_like(x), np.zeros_like(x)
        for j in range(n):
            p0, p1 = ((2 * j + 1) * x * p0 - j * p1) / (j + 1), p0
        dp = n * (x * p0 - p1) / (x * x - 1)
        x = x - p0 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("n", [65, 100, 101, 512, 2048, 4096])
def test_matches_extended_precision_newton(n):
    xr, wr = _longdouble_rule(n)
    x, w = gauss_legendre(n)
    half = slice(n // 2, None)
    assert np.abs(x[half][::-1] - xr).max() < 2e-16
    assert np.abs(w[half][::-1] - wr).max() < 5e-16


@pytest.mark.parametrize("n", [101, 4096])
def test_large_rule_runs_no_recurrence(n, monkeypatch):
    def recurrence(n, x):
        raise AssertionError("the recurrence ran")
    monkeypatch.setattr(quadrature, "_legendre_pair", recurrence)
    monkeypatch.setattr(quadrature, "_CACHE", {})
    gauss_legendre(n)


def test_small_rule_runs_the_recurrence(monkeypatch):
    calls = []
    real = quadrature._legendre_pair
    monkeypatch.setattr(quadrature, "_legendre_pair",
                        lambda n, x: calls.append(n) or real(n, x))
    monkeypatch.setattr(quadrature, "_CACHE", {})
    gauss_legendre(100)
    assert calls and set(calls) == {100}


# both routes for every n from just below the threshold to well past it:
# the recurrence is the reference the asymptotic route is held to
@pytest.mark.parametrize("n", [*range(90, 401), 1024, 4096, 8192, 16384])
def test_routes_agree(n, monkeypatch):
    monkeypatch.setattr(quadrature, "_CACHE", {})
    x, w = gauss_legendre(n)
    xr, wr = quadrature._newton_half(n)
    half = slice(n // 2, None)
    assert np.abs(x[half][::-1] - xr).max() <= 4e-16
    assert np.abs(w[half][::-1] - wr).max() <= 5e-16
    assert np.all(np.diff(x) > 0)
    assert np.abs(x + x[::-1]).max() == 0.0
    assert np.abs(w - w[::-1]).max() == 0.0
    assert abs(w.sum() - 2.0) < 1e-13


def _ulps(value, reference):
    return float((np.abs(value - reference) / np.spacing(reference)).max())


def test_tabulated_bessel_values():
    zeros = scipy.special.jn_zeros(0, 21)
    assert _ulps(quadrature._J0_ZEROS, zeros[:20]) <= 2
    # scipy's j1 is itself up to 3 ulp off at these zeros (against
    # 40-digit mpmath), so up to 6 ulp once squared
    assert _ulps(quadrature._J1_SQUARED, scipy.special.j1(zeros) ** 2) <= 8


def test_tabulated_bessel_values_are_correctly_rounded():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        zeros = [mp.besseljzero(0, k) for k in range(1, 22)]
        assert quadrature._J0_ZEROS.tolist() == [float(z) for z in zeros[:20]]
        assert quadrature._J1_SQUARED.tolist() == [
            float(mp.besselj(1, z) ** 2) for z in zeros]


def test_series_beyond_the_tables():
    k = np.arange(21, 61)
    a = np.pi * (k - 0.25)
    zeros = a + quadrature._horner(quadrature._MCMAHON, a**-2) / a
    reference = scipy.special.jn_zeros(0, 60)[20:]
    assert np.abs(zeros / reference - 1.0).max() <= 1e-15
    q = 1.0 / (k[1:] - 0.25)
    j1_squared = q * (2.0 / np.pi**2 + q**4 * quadrature._horner(
        quadrature._J1_SQUARED_TAIL, q * q))
    reference = scipy.special.j1(reference[1:]) ** 2
    assert np.abs(j1_squared / reference - 1.0).max() <= 2e-15


def test_sweep_cap_raises(monkeypatch):
    # a node that never settles is an error, not a silently returned guess
    monkeypatch.setattr(quadrature, "_MAX_SWEEPS", 1)
    monkeypatch.setattr(quadrature, "_CACHE", {})
    with pytest.raises(RuntimeError, match="sweeps"):
        gauss_legendre(64)


@pytest.mark.parametrize("n", [64.5, 64.0, True, "64"])
def test_rejects_a_node_count_that_is_not_an_integer(n, monkeypatch):
    # truncating would hand 64.5 the 64-node rule, cached under 64, and
    # True the 1-node rule
    monkeypatch.setattr(quadrature, "_CACHE", {})
    with pytest.raises(TypeError):
        gauss_legendre(n)
    assert quadrature._CACHE == {}


def test_numpy_integer_node_count():
    x, w = gauss_legendre(np.int64(9))
    assert x is gauss_legendre(9)[0] and w.shape == (9,)
