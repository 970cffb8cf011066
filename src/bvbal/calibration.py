"""Closed-form calibration of bias-variance balancing schemes.

Given bias order q1 and noise order q2 (see `bvbal.oracles.BiasOrder`),
this module answers two questions about spending a budget of n draws:

* How much of the optimal-rate risk constant does a one-pass scheme give
  up relative to the best fixed-size baseline?  The answer is a scheme's
  asymptotic minimax risk ratio (AMRR): the limit of
  n**(q1/(q1+q2)) * worst-case-MSE divided by the matching baseline
  constant.  `amrr_recursive_tied`, `amrr_recursive_free` and
  `amrr_general` are those closed forms.

* What is the best linear combination of n draws taken at perturbation
  sizes delta_j = eta * d * (j + n0)**(-alpha)?  Minimizing worst-case
  MSE under an inflation cap eta <= K reduces to a two-decay weight
  family

      w_j = lambda1 / (j + n0)**kappa_fast + lambda2 / (j + n0)**kappa_slow,

  with kappa_fast = (q1 + 2 q2) / (2 (q1 + q2)) and
  kappa_slow = q2 / (q1 + q2), pinned by two linear constraints: the
  weights sum to one and the weighted bias sum equals a free scalar a.
  The outer problem over a is one-dimensional; `solve_a_star` minimizes
  it and `optimal_weights` assembles the full scheme.

Everything here is deterministic, cheap, and independent of any sampling
code; the Monte Carlo layers consume the outputs.

Every O(n) exact sum (the power sums behind `xi_matrix`, the
`WeightScheme` self-checks, and the averaged estimator's initial-point
coefficient in `bvbal.estimators`) goes through one kernel,
`_exact_sum`: a vectorised error-free-extraction block sum that returns
the correctly rounded value `math.fsum` returns, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InfeasibleError
from .oracles import BiasOrder

__all__ = [
    "XiMatrix",
    "WeightScheme",
    "RecursiveCalibration",
    "TiedRecursiveOptimum",
    "FreeRecursiveOptimum",
    "phi_sum",
    "xi_matrix",
    "ztilde_squared",
    "feasible_intervals",
    "solve_a_star",
    "optimal_weights",
    "amrr_general",
    "amrr_recursive_tied",
    "amrr_recursive_free",
    "brute_force_weights",
]

_CHUNK = 1 << 20
# `_exact_sum`: block length (two scratch buffers of 128 KiB), the largest
# magnitude it extracts, and the lowest exponent of a normal double
_BLOCK = 1 << 14
_HUGE = 2.0**960
_MIN_NORMAL_EXP = -1022
_GRID_POINTS = 10_000
_GOLDEN_RTOL = 1e-12
_PILOT_CAP_FACTOR = 1e3


def weight_decay_exponents(order: BiasOrder) -> tuple[float, float]:
    """The two decay exponents (kappa_fast, kappa_slow) of the optimal
    weight family for a given bias/noise order."""
    s = order.q1 + order.q2
    return (order.q1 + 2.0 * order.q2) / (2.0 * s), order.q2 / s


def _check_counts(n: int, n0: int, minimum: int = 1) -> tuple[int, int]:
    if int(n) != n or int(n) < minimum:
        raise ValueError(f"n must be an integer >= {minimum}, got {n}")
    if int(n0) != n0 or int(n0) < 0:
        raise ValueError(f"n0 must be a non-negative integer, got {n0}")
    return int(n), int(n0)


def _exact_sum(x) -> float:
    """The correctly rounded sum of the float64 values x: bit for bit
    what `math.fsum(x)` returns, without a Python-level loop over x.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 2008), one block of at most
    _BLOCK elements at a time.  For a block of nb values with
    max|p| < 2**e, take 2**k >= nb + 2 and sigma = 2**(e + k).  Then
    q = (sigma + p) - sigma and p - q are exact, every q is a multiple of
    sigma * 2**-53, and |sum q| < sigma, so `np.add.reduce(q)` is exact
    in any order.  The residual p - q is below 2**(e + k - 52), which is
    the next pass's e; passes stop when the residual is zero.  The exact
    pass sums are combined by one `math.fsum`, which rounds once.

    The whole input goes to `math.fsum` instead when a value is not
    finite or reaches 2**960 (fsum's inf/nan/ValueError/OverflowError
    behaviour is kept), and when the extraction grid sigma * 2**-53 would
    leave the normal range.  Falling back block by block would round
    twice.  An input with no non-zero value (or none at all) sums to
    fsum's zero of a lone -0.0 when every value is -0.0, and of an empty
    input otherwise, so its sign is fsum's.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    size = x.shape[0]
    width = min(size, _BLOCK)
    p = np.empty(width)
    q = np.empty(width)
    parts = []
    negative_zeros = size > 0  # every value seen so far is -0.0
    for lo in range(0, size, _BLOCK):
        block = x[lo : lo + _BLOCK]
        nb = block.shape[0]
        pb, qb = p[:nb], q[:nb]
        np.abs(block, out=qb)
        top = float(qb.max())
        if not top < _HUGE:
            return math.fsum(x)
        if top == 0.0:
            negative_zeros = negative_zeros and bool(np.signbit(block).all())
            continue
        k = (nb + 1).bit_length()  # ceil(log2(nb + 2))
        e = math.frexp(top)[1]  # top < 2**e
        src = block
        while True:
            if e + k - 53 < _MIN_NORMAL_EXP:
                return math.fsum(x)
            sigma = math.ldexp(1.0, e + k)
            np.add(src, sigma, out=qb)
            np.subtract(qb, sigma, out=qb)
            np.subtract(src, qb, out=pb)
            src = pb
            parts.append(float(np.add.reduce(qb)))
            if not pb.any():
                break
            e += k - 52
    if not parts:
        return math.fsum([-0.0] if negative_zeros else [])
    return math.fsum(parts)


def phi_sum(kappa: float, n: int, n0: int = 0) -> float:
    """Power sum sum_{j=1}^{n} (j + n0)**(-kappa) over the rounded terms.

    Each run of up to 2**20 terms is summed exactly rounded
    (`_exact_sum`), and the run sums are then summed exactly rounded.  Up
    to 2**20 terms this is the correctly rounded sum of the rounded
    terms; past that it is rounded twice, so within 1.5 ulp of it.  That
    keeps the constraint checks downstream at 1e-10 at n = 1e7.
    """
    n, n0 = _check_counts(n, n0)
    kappa = float(kappa)
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        j = np.arange(lo + 1 + n0, hi + 1 + n0, dtype=float)
        parts.append(_exact_sum(np.power(j, -kappa)))
    return _exact_sum(parts)


@dataclass(frozen=True, slots=True)
class XiMatrix:
    """Inverse Gram matrix of the two-decay constraint system.

    For s_j = (j + n0)**(2 alpha q2) (per-draw variance growth) and
    mu_j = (j + n0)**(-alpha q1) (per-draw bias decay), the Gram matrix is

        Phi = [[phi(1),          phi(kappa_fast)],
               [phi(kappa_fast), phi(kappa_slow)]]

    and Xi = Phi**-1 with entries (xi11, xi12; xi12, xi22).  The minimum
    variance-proxy reachable with bias sum a and total weight 1 is the
    quadratic [a, 1] Xi [a, 1]'; see `ztilde_squared`.
    """

    xi11: float
    xi12: float
    xi22: float
    n: int
    n0: int
    order: BiasOrder
    phi11: float
    phi12: float
    phi22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.xi11, self.xi12], [self.xi12, self.xi22]])

    def phi_array(self) -> np.ndarray:
        return np.array([[self.phi11, self.phi12], [self.phi12, self.phi22]])


def xi_matrix(order: BiasOrder, n: int, n0: int = 0) -> XiMatrix:
    """Assemble the constraint Gram matrix for budget n and invert it.

    Raises
    ------
    ValueError
        If n < 2 (with a single draw the two constraints make the system
        singular: the 2x2 Gram matrix has rank one).
    """
    n, n0 = _check_counts(n, n0)
    if n < 2:
        raise ValueError(
            f"n must be at least 2, got {n}: with one draw the constraint "
            "system is singular"
        )
    kf, ks = weight_decay_exponents(order)
    p11 = phi_sum(1.0, n, n0)
    p12 = phi_sum(kf, n, n0)
    p22 = phi_sum(ks, n, n0)
    det = p11 * p22 - p12 * p12
    if not det > 0.0:
        raise ValueError(f"constraint system numerically singular at n={n}, n0={n0}")
    return XiMatrix(
        xi11=p22 / det,
        xi12=-p12 / det,
        xi22=p11 / det,
        n=n,
        n0=n0,
        order=order,
        phi11=p11,
        phi12=p12,
        phi22=p22,
    )


def ztilde_squared(a, xi: XiMatrix):
    """Minimal variance proxy at bias-sum level a: [a, 1] Xi [a, 1]'.

    Accepts a scalar or an ndarray of candidate a values.
    """
    arr = np.asarray(a, dtype=float)
    val = xi.xi11 * arr * arr + 2.0 * xi.xi12 * arr + xi.xi22
    return float(val) if arr.ndim == 0 else val


def _objective(a, xi: XiMatrix):
    """Size-free worst-case risk of the best weights with bias sum a.

    S(a) = |a|**(2 q2 / (q1 + q2)) * ztilde_squared(a)**(q1 / (q1 + q2)),
    obtained by optimizing the perturbation scale out of the bias/variance
    trade-off.  Vectorized like `ztilde_squared`.
    """
    q1, q2 = xi.order.q1, xi.order.q2
    s = q1 + q2
    arr = np.asarray(a, dtype=float)
    val = np.abs(arr) ** (2.0 * q2 / s) * ztilde_squared(arr, xi) ** (q1 / s)
    return float(val) if arr.ndim == 0 else val


def _quadratic_roots(A: float, B: float, C: float) -> tuple[float, float] | None:
    """Real roots of A x**2 + B x + C, sorted; None if there are none.

    Uses the sign-safe resolvent so nearly-cancelling roots stay accurate.
    Callers guarantee C != 0, so a zero root never occurs.
    """
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    qq = -0.5 * (B + math.copysign(sq, B) if B != 0.0 else sq)
    r1 = qq / A if A != 0.0 else math.inf
    r2 = C / qq
    return (r1, r2) if r1 <= r2 else (r2, r1)


def feasible_intervals(xi: XiMatrix, order: BiasOrder, K: float) -> list[tuple[float, float]]:
    """Intervals of bias-sum levels a whose scale inflation stays <= K.

    The cap eta(a) <= K is the quadratic inequality

        (K**(2 (q1 + q2)) - xi11) a**2 - 2 xi12 a - xi22 >= 0.

    Since xi22 > 0, a = 0 is never feasible, so each interval lies in one
    sign and there are at most two of them.  Endpoints may be +-inf; an
    empty list means the cap is infeasible at this (n, K).
    """
    if not (float(K) > 0 and math.isfinite(K)):
        raise ValueError("K must be positive")
    A = float(K) ** (2.0 * (order.q1 + order.q2)) - xi.xi11
    B = -2.0 * xi.xi12
    C = -xi.xi22
    if A > 0.0:
        lo, hi = _quadratic_roots(A, B, C)  # opposite signs: C/A < 0
        return [(-math.inf, lo), (hi, math.inf)]
    if A == 0.0:
        if B > 0.0:
            return [(-C / B, math.inf)]
        if B < 0.0:
            return [(-math.inf, -C / B)]
        return []
    roots = _quadratic_roots(A, B, C)
    if roots is None:
        return []
    return [roots]


def _golden_minimize(f, lo: float, hi: float, rtol: float = _GOLDEN_RTOL) -> float:
    """Golden-section argmin of f on [lo, hi]; compares the interior
    optimum against both endpoints, so boundary minima are found."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > rtol * max(abs(a), abs(b), 1e-300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    candidates = [lo, hi, c, d]
    values = [f(x) for x in candidates]
    return candidates[int(np.argmin(values))]


def _minimize_on_interval(
    lo: float, hi: float, xi: XiMatrix, pilot: float
) -> tuple[float, float]:
    """Grid-then-golden minimizer of the risk objective on one feasible
    interval.  Unbounded ends are capped at a multiple of the asymptotic
    pilot magnitude and the cap is extended whenever the grid argmin lands
    on it, so a capped bracket never hides the optimum."""
    if lo == hi:
        return lo, _objective(lo, xi)
    sign = 1.0 if hi > 0 else -1.0
    # magnitudes of the endpoints along the interval's sign
    if sign > 0:
        m_near, m_far = lo, hi
    else:
        m_near, m_far = -hi, -lo
    capped = math.isinf(m_far)
    m_cap = max(_PILOT_CAP_FACTOR * pilot, 10.0 * m_near) if capped else m_far
    while True:
        grid = sign * np.geomspace(m_near, m_cap, _GRID_POINTS)
        grid[0] = sign * m_near  # exact feasibility boundary
        if not capped:
            grid[-1] = sign * m_far
        vals = _objective(grid, xi)
        idx = int(np.argmin(vals))
        if capped and idx >= _GRID_POINTS - 2:
            m_cap *= 100.0
            continue
        break
    lo_b = grid[max(idx - 1, 0)]
    hi_b = grid[min(idx + 1, _GRID_POINTS - 1)]
    lo_b, hi_b = min(lo_b, hi_b), max(lo_b, hi_b)
    best = _golden_minimize(lambda x: _objective(x, xi), lo_b, hi_b)
    return best, _objective(best, xi)


def pilot_a(xi_or_order, K: float, n: int | None = None) -> float:
    """Asymptotic magnitude of the optimal bias-sum level,
    sqrt(q1/(q1+q2)) / (K**(q1+q2) * n**(q1/(2(q1+q2)))); used to anchor
    search grids."""
    if isinstance(xi_or_order, XiMatrix):
        order, n = xi_or_order.order, xi_or_order.n
    else:
        order = xi_or_order
        if n is None:
            raise ValueError("n is required when passing a BiasOrder")
    q1, q2 = order.q1, order.q2
    s = q1 + q2
    return math.sqrt(q1 / s) / (float(K) ** s * float(n) ** (q1 / (2.0 * s)))


def solve_a_star(xi: XiMatrix, order: BiasOrder, K: float) -> float:
    """Optimal bias-sum level a*: argmin of the size-free worst-case risk
    over the feasible set of the inflation cap K.

    Dense log-spaced grids (anchored at the asymptotic pilot magnitude)
    locate the basin on each feasible interval; golden-section refinement
    takes it to relative tolerance 1e-12.  Exact ties between a positive
    and a negative candidate break toward the positive one.

    Raises
    ------
    InfeasibleError
        If the cap excludes every a (possible when K is too small for
        this n).
    """
    intervals = feasible_intervals(xi, order, K)
    if not intervals:
        # min over a of ztilde^2/a^2 is det(Xi)/xi22 = 1/phi(1), so the
        # smallest cap any weighting can respect is phi(1)**(-alpha).
        k_min = xi.phi11 ** -order.alpha
        raise InfeasibleError(
            f"no feasible weight scheme at n={xi.n}, K={K}: the inflation "
            f"cap excludes every bias-sum level (needs K >= {k_min:.6g})"
        )
    pilot = pilot_a(xi, K)
    best_a, best_val = None, math.inf
    for lo, hi in intervals:
        a, val = _minimize_on_interval(lo, hi, xi, pilot)
        incumbent = best_a if best_a is not None else -math.inf
        if val < best_val or (val == best_val and a > incumbent):
            best_a, best_val = a, val
    return float(best_a)


@dataclass(frozen=True)
class WeightScheme:
    """Solved two-decay weight scheme for one (n, n0, order, K).

    Attributes
    ----------
    weights : ndarray, shape (n,)
        w_j = lambda1 / (j+n0)**kappa_fast + lambda2 / (j+n0)**kappa_slow,
        summing to one.
    lambda1, lambda2 : float
        Coefficients of the fast- and slow-decay components.
    a_star : float
        Bias-sum level sum_j w_j (j+n0)**(-alpha q1) attained.
    eta_star : float
        Perturbation-scale multiplier actually realized; the calibrated
        schedule is delta_j = eta_star * d * (j+n0)**(-alpha).  This is
        the bias/variance balance point `eta_balance(a_star, xi)`, the
        multiplier at which the scheme's worst-case bias and variance
        contributions agree; feasibility of a_star keeps it at or below
        the cap, and it equals K whenever a_star sits on the feasible
        boundary, which is the generic large-n outcome.
    s_star : float
        Size-free worst-case risk of the scheme; n**(q1/(q1+q2)) * s_star
        converges to the AMRR from `amrr_general`.
    """

    weights: np.ndarray
    lambda1: float
    lambda2: float
    a_star: float
    eta_star: float
    s_star: float
    K: float
    order: BiasOrder
    n0: int

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError(f"weights must be a non-empty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        total = _exact_sum(w)
        if abs(total - 1.0) > 1e-10 * max(1.0, abs(total)):
            raise ValueError(f"weights must sum to 1 within 1e-10, got {total!r}")
        # in place, so that the check holds one n-length array beside w
        j = np.arange(1, w.shape[0] + 1, dtype=float) + self.n0
        j **= -self.order.alpha * self.order.q1
        j *= w
        bias_sum = _exact_sum(j)
        if abs(bias_sum - self.a_star) > 1e-10 * max(1.0, abs(self.a_star)):
            raise ValueError(
                f"weights reproduce bias sum {bias_sum!r}, expected a*={self.a_star!r}"
            )
        if not self.eta_star <= self.K + 1e-9:
            raise ValueError(
                f"scale inflation eta*={self.eta_star!r} exceeds the cap K={self.K!r}"
            )

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def scaled_s_star(self) -> float:
        """n**(q1/(q1+q2)) * s_star, the finite-n risk constant whose limit
        is the AMRR."""
        return float(self.n) ** self.order.mse_exponent * self.s_star

    def deltas(self, d: float = 1.0) -> np.ndarray:
        """Calibrated perturbation schedule eta* d (j+n0)**(-alpha), j=1..n."""
        if not float(d) > 0:
            raise ValueError(f"d must be positive, got {d}")
        j = np.arange(1, self.n + 1, dtype=float) + self.n0
        return self.eta_star * float(d) * j ** (-self.order.alpha)


def eta_balance(a: float, xi: XiMatrix) -> float:
    """Perturbation-scale multiplier that balances the bias and variance
    risk contributions of the optimal weights at bias-sum level a:
    (ztilde_squared(a, xi) / a**2) ** alpha.  A level a is feasible under
    cap K exactly when this value is <= K.
    """
    if a == 0.0:
        raise ValueError("bias-sum level a must be nonzero")
    return float((ztilde_squared(a, xi) / (a * a)) ** xi.order.alpha)


def optimal_weights(n: int, n0: int, order: BiasOrder, K: float) -> WeightScheme:
    """Solve the capped minimax weight problem for a budget of n draws.

    Combines `xi_matrix`, `solve_a_star`, and the two-constraint linear
    solve for (lambda1, lambda2); the returned scheme self-checks its
    defining identities on construction.  The realized scale multiplier
    is the balance point at a_star, which feasibility of a_star keeps at
    or below the cap; it equals K exactly when a_star sits on the
    feasible boundary.
    """
    xi = xi_matrix(order, n, n0)
    a_star = solve_a_star(xi, order, K)
    lam = np.linalg.solve(xi.phi_array(), np.array([a_star, 1.0]))
    kf, ks = weight_decay_exponents(order)
    # lam[0] * j**(-kf) + lam[1] * j**(-ks), in place: two n-length arrays
    j = np.arange(1, xi.n + 1, dtype=float) + xi.n0
    w = j ** (-kf)
    w *= lam[0]
    j **= -ks
    j *= lam[1]
    w += j
    eta_star = eta_balance(a_star, xi)
    if eta_star > K + 1e-9:
        raise InfeasibleError(
            f"solver returned an infeasible bias-sum level at n={xi.n}, K={K}"
        )
    return WeightScheme(
        weights=w,
        lambda1=float(lam[0]),
        lambda2=float(lam[1]),
        a_star=a_star,
        eta_star=min(eta_star, float(K)),
        s_star=_objective(a_star, xi),
        K=float(K),
        order=order,
        n0=xi.n0,
    )


def amrr_general(order: BiasOrder, K: float) -> float:
    """Asymptotic minimax risk ratio of the capped weighted scheme:
    q1 / ((q1 + q2) * K**(2 q2)).  Strictly decreasing in K; equals the
    limit of n**(q1/(q1+q2)) * s_star along `optimal_weights` solutions.
    """
    if not (float(K) > 0 and math.isfinite(K)):
        raise ValueError("K must be positive")
    q1, q2 = order.q1, order.q2
    return q1 / ((q1 + q2) * float(K) ** (2.0 * q2))


class TiedRecursiveOptimum(NamedTuple):
    """Best recursive scheme when the perturbation scale is tied to the
    baseline's (d unchanged): risk ratio and the step constant achieving it."""

    ratio: float
    c_opt: float


class FreeRecursiveOptimum(NamedTuple):
    """Best recursive scheme when the perturbation scale may be re-chosen:
    risk ratio, the scale multiplier d_scale (apply as d_tilde = d_scale * d),
    and the step constant (always 1)."""

    ratio: float
    d_scale: float
    c_opt: float


def amrr_recursive_tied(order: BiasOrder) -> TiedRecursiveOptimum:
    """Risk ratio of the best recursive scheme that keeps the baseline's
    perturbation scale, optimizing only the step constant c at beta = 1.

    ratio = q1**2 / (16 (q1+q2)**2) + q1 / (2 (q1+q2)) + 1, attained at
    c = (5 q1 + 4 q2) / (2 (q1 + q2)).
    """
    q1, q2 = order.q1, order.q2
    s = q1 + q2
    ratio = q1 * q1 / (16.0 * s * s) + q1 / (2.0 * s) + 1.0
    c_opt = (5.0 * q1 + 4.0 * q2) / (2.0 * s)
    return TiedRecursiveOptimum(ratio, c_opt)


def amrr_recursive_free(order: BiasOrder) -> FreeRecursiveOptimum:
    """Risk ratio of the best recursive scheme when both the step constant
    and the perturbation scale are optimized (c = 1, d_tilde = d_scale * d):

        ratio = 2**(2 q2/(q1+q2)) * ((q1+2 q2)/(q1+q2))**(-(q1+2 q2)/(q1+q2)),
        d_scale = ((q1 + 2 q2) / (4 (q1 + q2)))**(1 / (2 (q1+q2))).

    The averaged scheme attains the same ratio and scale for any step
    constant c > 0 with 0 < beta < 1, and the same values hold when the
    scale is held fixed, which is why no scale argument appears here.
    """
    q1, q2 = order.q1, order.q2
    s = q1 + q2
    e = (q1 + 2.0 * q2) / s
    ratio = 2.0 ** (2.0 * q2 / s) * e ** (-e)
    d_scale = ((q1 + 2.0 * q2) / (4.0 * s)) ** order.alpha
    return FreeRecursiveOptimum(ratio, d_scale, 1.0)


@dataclass(frozen=True, slots=True)
class RecursiveCalibration:
    """Recommended (c, beta, d_scale) for a recursive or averaged run.

    Produced by the classmethod constructors; `check(order)` verifies the
    convergence condition c > q1 / (2 (q1 + q2)) that beta = 1 requires.
    """

    c: float
    beta: float
    d_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ConfigurationError(f"step constant c must be positive, got {self.c}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(f"beta must lie in (0, 1], got {self.beta}")
        if not (self.d_scale > 0 and math.isfinite(self.d_scale)):
            raise ConfigurationError(f"d_scale must be positive, got {self.d_scale}")

    @classmethod
    def tied_optimal(cls, order: BiasOrder) -> "RecursiveCalibration":
        opt = amrr_recursive_tied(order)
        return cls(c=opt.c_opt, beta=1.0, d_scale=1.0)

    @classmethod
    def free_optimal(cls, order: BiasOrder, beta: float = 1.0) -> "RecursiveCalibration":
        opt = amrr_recursive_free(order)
        return cls(c=opt.c_opt, beta=beta, d_scale=opt.d_scale)

    def check(self, order: BiasOrder) -> "RecursiveCalibration":
        if self.beta == 1.0 and not self.c > order.q1 * order.alpha:
            raise ConfigurationError(
                f"beta = 1 requires c > q1/(2(q1+q2)) = {order.q1 * order.alpha!r}, "
                f"got c = {self.c!r}"
            )
        return self


def brute_force_weights(n: int, n0: int, order: BiasOrder, a: float) -> np.ndarray:
    """Reference weights at bias-sum level a from the raw KKT system.

    Assembles the full (n+2) x (n+2) stationarity-plus-constraints system
    over the raw per-draw bias and variance factors and solves it densely.
    Deliberately shares no code with `optimal_weights`; intended as an
    independent cross-check for n <= 50.
    """
    n, n0 = _check_counts(n, n0, minimum=2)
    if n > 50:
        raise ValueError(f"brute-force path is restricted to n <= 50, got {n}")
    j = np.arange(1, n + 1, dtype=float) + n0
    var_factor = j ** (2.0 * order.alpha * order.q2)
    bias_factor = j ** (-order.alpha * order.q1)
    m = n + 2
    kkt = np.zeros((m, m))
    kkt[:n, :n] = np.diag(2.0 * var_factor)
    kkt[:n, n] = bias_factor
    kkt[:n, n + 1] = 1.0
    kkt[n, :n] = bias_factor
    kkt[n + 1, :n] = 1.0
    rhs = np.zeros(m)
    rhs[n] = float(a)
    rhs[n + 1] = 1.0
    return np.linalg.solve(kkt, rhs)[:n]
