"""Gauss-Legendre nodes and weights without the dense eigensolve.

numpy's ``leggauss`` obtains the nodes by diagonalizing an n-by-n
companion matrix.  That is fine for a few dozen nodes, but the adaptive
refinements elsewhere in this package can push n into the thousands,
where the eigensolve takes minutes and allocates gigabytes.  The
classical Newton iteration on the Legendre three-term recurrence gives
the same nodes to machine precision in a fraction of a second, so every
quadrature in the package goes through here.

Results are cached per node count and returned as read-only arrays;
copy before mutating.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_legendre"]

_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre_pair(n: int, x: np.ndarray):
    """Evaluate (P_n, P_{n-1}) at x by upward recurrence."""
    p0 = np.ones_like(x)
    p1 = np.zeros_like(x)
    for j in range(n):
        p0, p1 = ((2 * j + 1) * x * p0 - j * p1) / (j + 1), p0
    return p0, p1


def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Nodes come back in ascending order, exactly mirror-symmetric about
    zero (for odd n the middle node is exactly 0.0), which downstream
    principal-value quadratures rely on.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.

    Returns
    -------
    (ndarray, ndarray)
        Nodes and weights, both read-only and shared across calls.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one quadrature node")
    hit = _CACHE.get(n)
    if hit is not None:
        return hit

    # Newton iteration from the Chebyshev-like initial guesses.  Only
    # the non-negative half is computed; the rest is mirrored.
    m = (n + 1) // 2
    k = np.arange(m)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        pn, pm = _legendre_pair(n, x)
        dp = n * (x * pn - pm) / (x * x - 1.0)
        dx = pn / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # Recompute the derivative at the polished roots before forming the
    # weights; reusing the last in-loop value would carry a stale O(n*dx)
    # relative error into them.
    pn, pm = _legendre_pair(n, x)
    dp = n * (x * pn - pm) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # x holds the positive roots in descending order; mirror into the
    # full ascending grid.  Odd n: the shared middle root is exactly 0.
    xs = np.empty(n)
    ws = np.empty(n)
    xs[:m] = -x
    ws[:m] = w
    xs[n - m :] = x[::-1]
    ws[n - m :] = w[::-1]
    if n % 2:
        xs[m - 1] = 0.0

    xs.flags.writeable = False
    ws.flags.writeable = False
    _CACHE[n] = (xs, ws)
    return xs, ws


def _refine_by_doubling(rule, start: int, stop: int, tol: float):
    """(value, nodes, converged) of an adaptive quadrature: rule(n) at
    n = start, 2 start, ... until two successive values agree within tol
    (converged) or n reaches stop."""
    nodes = start
    value = rule(nodes)
    converged = False
    while nodes < stop and not converged:
        nodes *= 2
        refined = rule(nodes)
        converged = abs(refined - value) <= tol
        value = refined
    return value, nodes, converged
