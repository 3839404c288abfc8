"""Gauss-Legendre nodes and weights without the dense eigensolve.

numpy's ``leggauss`` obtains the nodes by diagonalizing an n-by-n
companion matrix, O(n^3) work and O(n^2) memory; the adaptive
refinements elsewhere in this package push n into the thousands.  Every
quadrature in the package goes through here instead, on one of two
routes chosen by the node count alone.

Up to 100 nodes, each node is a root of P_n found on the three-term
Legendre recurrence, run in place so that no step allocates.  The start
is Tricomi's guess, (1 - (n-1)/(8 n^3)) cos(pi (k + 3/4)/(n + 1/2)), and
each sweep takes a third-order Householder step (Halley's step with one
more term, quartic convergence), with P_n'' and P_n''' read off the
Legendre equation at no extra recurrence.  A node is done once its
applied step is at most about ulp(1); its weight comes from the P_n' of
that same sweep, carried along the step to first order.  Each sweep
after the first runs only over the nodes still moving, and a node still
moving at the sweep cap raises RuntimeError rather than being returned
unsettled.  Each sweep is n numpy calls over the nodes, so the rule is
O(n^2) work; it stays the reference the tests hold the other route to,
at any n.

Above 100 nodes, every node and weight comes in O(1) from Bogaert's
asymptotic expansions in theta = arccos x (SIAM J. Sci. Comput. 36(3),
A1008, 2014), vectorized over the nodes: the k-th angle is the k-th zero
j_{0,k} of the Bessel function J_0 over n + 1/2, corrected by a short
series in 1/(n + 1/2)^2, and the weight is read from J_1(j_{0,k})^2 and
that angle.  The zeros and the J_1 values are tabulated for the first
20 and 21 nodes and taken from McMahon's series beyond.  The angle is
summed as (4k - 1) pi/(4n + 2), with pi/(4n + 2) carried in two parts so
that this product is exact, plus the small rest; past pi/4 the node is
taken as the sine of the complementary angle, so the middle nodes keep
their last bit.  The expansions drop digits at small n (1e-14 at 40
nodes), hence the recurrence up to the threshold.

Measured against Newton's method in extended precision (n = 65 to
4096), the recurrence's nodes are within 7.3e-17 and its weights within
1.3e-16, the expansions' nodes within 9.5e-17 and their weights within
1e-17, all absolute.  From 101 to 16384 nodes the two routes agree
within 1.2e-16 on nodes and weights alike.  At the end nodes of large
rules the expansions' weights are the more accurate: at 4096 nodes they
are within 2.2e-16 relative of 40-digit mpmath, the recurrence's 1.6e-10.

Results are cached per node count and returned as read-only arrays;
copy before mutating.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["gauss_legendre"]

_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# The recurrence route serves up to this many nodes: below it the
# asymptotic expansions lose digits, above it the recurrence's O(n^2)
# work dominates (34 ms at 4096 nodes, against 0.3 ms for the expansions).
_NEWTON_MAX = 100

# A node is settled once the step applied to it is at most this, about
# ulp(1).  The step is applied even then: stopping at |dx| < 1e-15 without
# applying it left nodes 8.5e-16 off at n = 4096.
_STEP_TOL = 2.5e-16
_MAX_SWEEPS = 10

_PI_SCALED = 127438138015862315638027235646471  # pi * 2**105, rounded

# j_{0,k}, k = 1..20, and J_1(j_{0,k})^2, k = 1..21, correctly rounded
_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998,
    58.90698392608094, 62.048469190227166])
_J1_SQUARED = np.array([
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822,
    0.05403757319811628, 0.04266142901724309, 0.0352421034909961,
    0.030021070103054673, 0.02614739149530809, 0.023159121824691393,
    0.02078382912226786, 0.01885045066931767, 0.017246157569665008,
    0.0158935181059236, 0.01473762609647219, 0.013738465145387117,
    0.012866181737615133, 0.012098051548626797, 0.011416471224491609,
    0.010807592791180204, 0.010260372926280762, 0.009765897139791051])

# Polynomial coefficients, highest degree first.  McMahon's series:
# j_{0,k} = a + P(1/a^2)/a, a = pi (k - 1/4).
_MCMAHON = (
    5.09225462402226769498681286758e7, -8.49353580299148769921876983660e5,
    18690.4765282320653831636345064, -567.644412135183381139802038240,
    25.3364147973439050099206349206, -1.82443876720610119047619047619,
    0.246028645833333333333333333333, -0.807291666666666666666666666667e-1,
    0.125)
# J_1(j_{0,k})^2 = q (2/pi^2 + q^4 P(q^2)), q = 1/(k - 1/4)
_J1_SQUARED_TAIL = (
    0.185395398206345628711318848386, -0.266837393702323757700998557826e-1,
    0.496101423268883102872271417616e-2, -0.123632349727175414724737657367e-2,
    0.433710719130746277915572905025e-3, -0.228969902772111653038747229723e-3,
    0.198924364245969295201137972743e-3, -0.303380429711290253026202643516e-3)
# Bogaert's fits in theta^2 of the angle's (_ANGLE) and the weight's
# (_WEIGHT) coefficients of 1, u^2 and u^4, u = j_{0,k}/((n + 1/2)^2 sin theta)
_ANGLE = (
    (-1.29052996274280508473467968379e-12, 2.40724685864330121825976175184e-10,
     -3.13148654635992041468855740012e-8, 0.275573168962061235623801563453e-5,
     -0.148809523713909147898955880165e-3, 0.416666666665193394525296923981e-2,
     -0.416666666666662959639712457549e-1),
    (2.20639421781871003734786884322e-9, -7.53036771373769326811030753538e-8,
     0.161969259453836261731700382098e-5, -0.253300326008232025914059965302e-4,
     0.282116886057560434805998583817e-3, -0.209022248387852902722635654229e-2,
     0.815972221772932265640401128517e-2),
    (-2.97058225375526229899781956673e-8, 5.55845330223796209655886325712e-7,
     -0.567797841356833081642185432056e-5, 0.418498100329504574443885193835e-4,
     -0.251395293283965914823026348764e-3, 0.128654198542845137196151147483e-2,
     -0.416012165620204364833694266818e-2))
_WEIGHT = (
    (-2.20902861044616638398573427475e-14, 2.30365726860377376873232578871e-12,
     -1.75257700735423807659851042318e-10, 1.03756066927916795821098009353e-8,
     -4.63968647553221331251529631098e-7, 0.149644593625028648361395938176e-4,
     -0.326278659594412170300449074873e-3, 0.436507936507598105249726413120e-2,
     -0.305555555555553028279487898503e-1, 0.833333333333333302184063103900e-1),
    (3.63117412152654783455929483029e-12, 7.67643545069893130779501844323e-11,
     -7.12912857233642220650643150625e-9, 2.11483880685947151466370130277e-7,
     -0.381817918680045468483009307090e-5, 0.465969530694968391417927388162e-4,
     -0.407297185611335764191683161117e-3, 0.268959435694729660779984493795e-2,
     -0.111111111111214923138249347172e-1),
    (2.01826791256703301806643264922e-9, -4.38647122520206649251063212545e-8,
     5.08898347288671653137451093208e-7, -0.397933316519135275712977531366e-5,
     0.200559326396458326778521795392e-4, -0.422888059282921161626339411388e-4,
     -0.105646050254076140548678457002e-3, -0.947969308958577323145923317955e-4,
     0.656966489926484797412985260842e-2))


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients coeffs, highest degree first, at x."""
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def _series(fits, theta2: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sum_i fits[i](theta^2) u^(2i), by Horner in u^2."""
    acc = _horner(fits[-1], theta2)
    for fit in fits[-2::-1]:
        acc *= u2
        acc += _horner(fit, theta2)
    return acc


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


def _newton_half(n: int):
    """The (n + 1)//2 non-negative nodes, descending, and their weights,
    by Householder sweeps on the recurrence."""
    m = (n + 1) // 2
    todo = np.arange(m)  # the nodes still moving
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
            return x, w
    raise RuntimeError(
        f"{n}-point Gauss-Legendre: {todo.size} nodes still moved by more "
        f"than {_STEP_TOL:g} after {_MAX_SWEEPS} sweeps")


def _angle_step(n: int):
    """pi/(4n + 2) as head + tail, the head cut to the bits that leave
    head * j exact for every integer j <= 4n."""
    den = (4 * n + 2) << 105
    shift = 53 - (4 * n).bit_length() - math.frexp(_PI_SCALED / den)[1]
    head = (_PI_SCALED << shift) // den
    tail = ((_PI_SCALED << shift) - head * den) / (den << shift)
    return math.ldexp(head, -shift), tail


def _asymptotic_half(n: int):
    """The (n + 1)//2 non-negative nodes, descending, and their weights,
    from Bogaert's expansions; accurate for n > _NEWTON_MAX."""
    m = (n + 1) // 2
    rho = n + 0.5
    k = np.arange(1.0, m + 1.0)
    # mu = j_{0,k} - pi (k - 1/4), from the table or McMahon's series
    mu = np.empty(m)
    tabled = min(m, _J0_ZEROS.size)
    mu[:tabled] = _J0_ZEROS[:tabled] - np.pi * (k[:tabled] - 0.25)
    inv = 1.0 / (np.pi * (k[tabled:] - 0.25))
    mu[tabled:] = inv * _horner(_MCMAHON, inv * inv)
    j1_squared = np.empty(m)
    tabled = min(m, _J1_SQUARED.size)
    j1_squared[:tabled] = _J1_SQUARED[:tabled]
    q = 1.0 / (k[tabled:] - 0.25)
    j1_squared[tabled:] = q * (2.0 / np.pi**2
                               + q**4 * _horner(_J1_SQUARED_TAIL, q * q))

    nu = np.pi * (k - 0.25) + mu
    theta = nu / rho
    u = nu / (rho * rho * np.sin(theta))
    u2 = u * u
    theta2 = theta * theta
    delta = theta * u * _series(_ANGLE, theta2, u2)
    w = 2.0 / (rho**3 * j1_squared * u
               * (1.0 + u2 * _series(_WEIGHT, theta2, u2)))
    # theta = h (4k - 1) + rest and x = cos theta = sin(h (2n + 2 - 4k) - rest),
    # h = pi/(4n + 2), with the integer multiples of h's head exact
    rest = (mu + delta) / rho
    head, tail = _angle_step(n)
    j = 4.0 * k - 1.0
    theta = head * j + (tail * j + rest)
    j = 2.0 * n + 1.0 - j
    x = np.where(theta <= 0.25 * np.pi, np.cos(theta),
                 np.sin(head * j + (tail * j - rest)))
    return x, w


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

    # Only the non-negative half is computed, in descending order; the
    # rest is mirrored into the full ascending grid.  Odd n: the shared
    # middle root is exactly 0.
    x, w = (_newton_half if n <= _NEWTON_MAX else _asymptotic_half)(n)
    m = x.size
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
