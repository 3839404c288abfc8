"""Gauss-Legendre nodes and weights without the dense eigensolve.

numpy's ``leggauss`` obtains the nodes by diagonalizing an n-by-n
companion matrix.  That is fine for a few dozen nodes, but the adaptive
refinements elsewhere in this package can push n into the thousands,
where the eigensolve takes minutes and allocates gigabytes.  Every
quadrature in the package goes through here instead.

Each node is a root of P_n found on the three-term Legendre recurrence,
run in place so that no step allocates.  The start is Tricomi's guess,
(1 - (n-1)/(8 n^3)) cos(pi (k + 3/4)/(n + 1/2)), and each sweep takes a
third-order Householder step (Halley's step with one more term, quartic
convergence), with P_n'' and P_n''' read off the Legendre equation at no
extra recurrence.  A node is done once its applied step is at most about
ulp(1).  Its weight comes from the P_n' of that same sweep, carried
along the step to first order, so no separate sweep polishes the
weights.  Each sweep after the first runs only over the nodes still
moving.  Two sweeps settle the rules of 238 nodes and more (every size
checked, up to 16384), three the smaller ones; Halley steps alone left
an edge node for a third sweep at every size up to 4096.  A node still
moving at the sweep cap raises RuntimeError rather than being returned
unsettled.

Results are cached per node count and returned as read-only arrays;
copy before mutating.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["gauss_legendre"]

_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# A node is settled once the step applied to it is at most this, about
# ulp(1).  The step is applied even then: stopping at |dx| < 1e-15 without
# applying it left nodes 8.5e-16 off at n = 4096.
_STEP_TOL = 2.5e-16
_MAX_SWEEPS = 10


def _legendre_pair(n: int, x: np.ndarray):
    """Evaluate (P_n, P_{n-1}) at x by upward recurrence, in place."""
    p0 = np.ones_like(x)
    p1 = np.zeros_like(x)
    t = np.empty_like(x)
    for j in range(n):
        # P_{j+1} = (2j+1)/(j+1) x P_j - j/(j+1) P_{j-1}
        np.multiply(x, p0, out=t)
        t *= (2 * j + 1) / (j + 1)
        p1 *= j / (j + 1)
        t -= p1
        p0, p1, t = t, p0, p1
    return p0, p1


def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Nodes come back in ascending order, exactly mirror-symmetric about
    zero (for odd n the middle node is exactly 0.0), which downstream
    principal-value quadratures rely on.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.  Any integer type is taken; a bool,
        a float or any other non-integer raises TypeError.

    Returns
    -------
    (ndarray, ndarray)
        Nodes and weights, both read-only and shared across calls.
    """
    if isinstance(n, bool):  # operator.index takes True as 1
        raise TypeError("the node count must be an integer, not a bool")
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one quadrature node")
    hit = _CACHE.get(n)
    if hit is not None:
        return hit

    # Only the non-negative half is computed, in descending order; the rest
    # is mirrored.  `todo` indexes the nodes still moving.
    m = (n + 1) // 2
    todo = np.arange(m)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(
        np.pi * (todo + 0.75) / (n + 0.5))
    w = np.empty(m)
    for _ in range(_MAX_SWEEPS):
        xt = x[todo]
        pn, pm = _legendre_pair(n, xt)
        one_minus = 1.0 - xt * xt
        dp = n * (pm - xt * pn) / one_minus
        d2p = (2.0 * xt * dp - n * (n + 1.0) * pn) / one_minus
        d3p = (4.0 * xt * d2p - (n * (n + 1.0) - 2.0) * dp) / one_minus
        r, h2, h3 = pn / dp, d2p / dp, d3p / dp
        dx = r * (1.0 - 0.5 * r * h2) / (1.0 - r * h2 + r * r * h3 / 6.0)
        x[todo] = xt - dx
        # 2/((1 - x^2) P_n'^2), carried along the step to first order: at
        # the ends a step of ulp(1) moves the weight by 2x/(1 - x^2) ulp(1),
        # 1e-9 relative at 4096 nodes
        w[todo] = 2.0 / (one_minus * dp * dp) * (
            1.0 - dx * (2.0 * xt / one_minus - 2.0 * h2))
        todo = todo[np.abs(dx) > _STEP_TOL]
        if todo.size == 0:
            break
    else:
        raise RuntimeError(
            f"{n}-point Gauss-Legendre: {todo.size} nodes still moved by more "
            f"than {_STEP_TOL:g} after {_MAX_SWEEPS} sweeps")

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


def _refine_by_doubling(rule, start: int, stop: int, tol: float,
                        rtol: float = 0.0):
    """(value, nodes, converged, delta) of an adaptive quadrature: rule(n)
    at n = start, 2 start, ... until two successive values agree within
    max(tol, rtol |value|) (converged) or n reaches stop; delta is the
    last refinement's change |value - previous|."""
    nodes = start
    value = rule(nodes)
    converged, delta = False, math.inf
    while nodes < stop and not converged:
        nodes *= 2
        refined = rule(nodes)
        delta = abs(refined - value)
        converged = delta <= max(tol, rtol * abs(refined))
        value = refined
    return value, nodes, converged, delta
