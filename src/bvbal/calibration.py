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
  it over the positive feasible interval, where a* always lies (a
  negative level loses to its mirror, since xi12 < 0).  `solve_weights`
  solves the whole problem in O(1) memory and returns a
  `WeightSolution` (a*, eta*, lambda1, lambda2, S*, the regime
  and the smallest feasible cap K_min); its `materialise` method builds
  and self-checks the n weights as a `WeightScheme`, which is that
  solution with its weights, so `optimal_weights(...).regime` and
  `.k_min` exist too.  `optimal_weights` is the two in turn.

Everything here is deterministic, cheap, and independent of any sampling
code; the Monte Carlo layers consume the outputs.

Every O(n) exact sum (the power sums behind `xi_matrix`, the
`WeightScheme` self-checks, and `LinearPlan.mse` and the averaged
estimator's initial-point coefficient in `bvbal.estimators`) is one pass
of one streaming kernel, `_exact_sums`, over all its terms: a vectorised
error-free-extraction sum, fed blocks of at most _BLOCK terms, that
returns the correctly rounded value `math.fsum` returns, bit for bit.
The self-checks only decide pass or fail, so they first try
`_bounded_sums`, a plain sum of the same blocks with an error bound that
holds in any summation order; when both bounds are clear of half the
1e-10 tolerance that pass decides, and otherwise the exact sums do, so
every rejection and its message are the exact kernel's.  The solver's
O(n) passes make their terms block by block in cache-sized buffers:
`solve_weights` allocates no n-length array, and `materialise` fills the
weights, the only n-length array of `optimal_weights`, in the same
block pass that checks them.

The package's one cache, `_memo`, lives here: a byte-bounded memo of
read-only parts, shared with `bvbal.estimators` and `bvbal.experiments`
(its policy is `_Memo`'s).  This module keys one part: the Gram matrix
of `solve_weights`, ("gram", float q1, float q2, int n, int n0), so the
caps of one budget, and repeated requests, share one set of power sums;
it holds no n-length array.  a* and the rest of the solution are solved
on every call, and `materialise` builds the weights and runs
`WeightScheme`'s O(n) self-checks on every call; invalid or infeasible
inputs raise on every call.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import InitVar, dataclass, fields
from functools import partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, budget, positive
from .oracles import BiasOrder

__all__ = [
    "XiMatrix",
    "WeightScheme",
    "TiedRecursiveOptimum",
    "FreeRecursiveOptimum",
    "phi_sum",
    "xi_matrix",
    "ztilde_squared",
    "feasible_intervals",
    "solve_a_star",
    "WeightSolution",
    "solve_weights",
    "optimal_weights",
    "amrr_general",
    "amrr_recursive_tied",
    "amrr_recursive_free",
    "brute_force_weights",
]

# `_exact_sums`: block length (each block buffer is 128 KiB), the largest
# magnitude it extracts, and the lowest exponent of a normal double
_BLOCK = 1 << 14
_STEPS = np.arange(_BLOCK, dtype=float)
_STEPS.setflags(write=False)
_HUGE = 2.0**960
_MIN_NORMAL_EXP = -1022
# `_bounded_sums`: the unit roundoff u, gamma_{_BLOCK - 1} =
# (_BLOCK - 1) u / (1 - (_BLOCK - 1) u), and the smallest normal double,
# its absolute term for underflow
_UNIT = 2.0**-53
_GAMMA = (_BLOCK - 1) * _UNIT / (1.0 - (_BLOCK - 1) * _UNIT)
_TINY = 2.0**_MIN_NORMAL_EXP
_GRID_POINTS = 10_000
_GOLDEN_RTOL = 1e-12
_PILOT_CAP_FACTOR = 1e3
# The memo's bound on its parts' charges: array bytes, plus _ENTRY_BYTES each
_MEMO_BYTES = 64 * 2**20
_ENTRY_BYTES = 1024


class _Memo:
    """The package's one memo of read-only parts, each keyed by every
    input it depends on; the modules that key parts say which.  A call
    returns ``build()``'s value, its array ``array_of(value)``, if it has
    one, made read-only.  A part is charged its array's bytes plus
    _ENTRY_BYTES; the memo keeps at most _MEMO_BYTES of charges, evicting
    the least recently used part first, and a part charged more than
    that is returned but not kept.  Two threads that miss one key both
    build it (outside the lock) and share the first value stored; a
    build that raises stores nothing."""

    def __init__(self) -> None:
        self.parts: OrderedDict = OrderedDict()  # key -> (value, charge)
        self.nbytes = 0  # the sum of the charges
        self.lock = threading.Lock()

    def __call__(self, key: tuple, build, array_of=None):
        with self.lock:
            if key in self.parts:
                self.parts.move_to_end(key)
                return self.parts[key][0]
        value = build()
        charge = _ENTRY_BYTES
        if array_of is not None:
            array_of(value).setflags(write=False)
            charge += array_of(value).nbytes
        with self.lock:
            if key in self.parts:
                return self.parts[key][0]
            if charge <= _MEMO_BYTES:
                self.parts[key] = (value, charge)
                self.nbytes += charge
                while self.nbytes > _MEMO_BYTES:
                    self.nbytes -= self.parts.popitem(last=False)[1][1]
        return value

    def clear(self) -> None:
        with self.lock:
            self.parts.clear()
            self.nbytes = 0


_memo = _Memo()


def weight_decay_exponents(order: BiasOrder) -> tuple[float, float]:
    """The two decay exponents (kappa_fast, kappa_slow) of the optimal
    weight family for a given bias/noise order."""
    s = order.q1 + order.q2
    return (order.q1 + 2.0 * order.q2) / (2.0 * s), order.q2 / s


def _bias_exponent(order: BiasOrder) -> float:
    """-alpha q1, the exponent of the per-draw bias factor (j + n0)**(-alpha q1)
    that `WeightScheme` checks the weights' bias sum with."""
    return -order.alpha * order.q1


class _ExactSum:
    """One running sum of `_exact_sums`: `add` extracts a block of at most
    _BLOCK values into exact pass sums, and `value` rounds them once.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 2008).  For a block of nb
    values with max|p| < 2**e, take 2**k >= nb + 2 and
    sigma = 2**(e + k).  Then q = (sigma + p) - sigma and p - q are exact,
    every q is a multiple of sigma * 2**-53, and |sum q| < sigma, so
    `np.add.reduce(q)` is exact in any order.  The next pass takes its e
    from the residual p - q's own largest magnitude (at most
    2**(e + k - 52), and far less when the block spans many binades), and
    passes stop when the residual is zero.  The exact pass sums of every
    block are combined by one `math.fsum`, which rounds once.

    A value that is not finite or reaches 2**960, or an extraction grid
    sigma * 2**-53 below the normal range, stops the extraction, and
    `value` gives the whole input, replayed in order, to `math.fsum`
    instead (its inf/nan/ValueError/OverflowError behaviour is kept;
    falling back block by block would round twice).  An input with no
    non-zero value (or none at all) sums to fsum's zero of a lone -0.0
    when every value is -0.0, and of an empty input otherwise, so its
    sign is fsum's.
    """

    __slots__ = ("_p", "_q", "_replay", "_parts", "_negative_zeros", "_fallback")

    def __init__(self, scratch: tuple[np.ndarray, np.ndarray], replay) -> None:
        self._p, self._q = scratch  # shared by the sums of one pass
        self._replay = replay
        self._parts: list[float] = []
        self._negative_zeros = None  # every value seen so far is -0.0
        self._fallback = False

    def add(self, block: np.ndarray) -> None:
        if self._fallback:
            return
        nb = block.shape[0]
        pb, qb = self._p[:nb], self._q[:nb]
        np.abs(block, out=qb)
        top = float(qb.max())
        if not top < _HUGE:
            self._fallback = True
            return
        if top == 0.0:
            self._negative_zeros = (self._negative_zeros is not False
                                    and bool(np.signbit(block).all()))
            return
        k = (nb + 1).bit_length()  # ceil(log2(nb + 2))
        src = block
        while True:
            e = math.frexp(top)[1]  # top < 2**e
            if e + k - 53 < _MIN_NORMAL_EXP:
                self._fallback = True
                return
            sigma = math.ldexp(1.0, e + k)
            np.add(src, sigma, out=qb)
            np.subtract(qb, sigma, out=qb)
            np.subtract(src, qb, out=pb)
            src = pb
            self._parts.append(float(np.add.reduce(qb)))
            top = max(float(pb.max()), -float(pb.min()))  # max |residual|
            if top == 0.0:
                return

    def value(self) -> float:
        if self._fallback:
            return math.fsum(self._replay())
        if not self._parts:
            return math.fsum([-0.0] if self._negative_zeros else [])
        return math.fsum(self._parts)


def _exact_sums(n: int, blocks, count: int) -> list[_ExactSum]:
    """The streaming exact-sum kernel: ``count`` sums of n terms each, in
    one pass over blocks of at most _BLOCK terms.

    ``blocks(lo, hi)`` yields the ``count`` term blocks of indices lo..hi-1
    in sum order; each is extracted before the next is asked for, so they
    may share one buffer.  Each sum's ``value()`` is bit for bit what
    `math.fsum` returns over its terms; a sum that fell back replays them
    from ``blocks`` only then, so fsum's exceptions come in the caller's
    order.
    """
    bounds = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]

    def replay(i: int):
        for lo, hi in bounds:
            yield from next(islice(blocks(lo, hi), i, None)).tolist()

    width = min(n, _BLOCK)
    scratch = np.empty(width), np.empty(width)
    sums = [_ExactSum(scratch, partial(replay, i)) for i in range(count)]
    for lo, hi in bounds:
        for total, block in zip(sums, blocks(lo, hi), strict=True):
            total.add(block)
    return sums


def _bounded_sums(n: int, blocks, count: int) -> list[tuple[float, float]] | None:
    """``count`` sums of n terms each, in one cheap pass over the blocks
    of `_exact_sums`: for each sum, an estimate t and a bound e with
    |t - s| <= e, where s is the sum's real value; None ("undecided") if
    any term, block sum or total is not finite.

    Each block of m <= _BLOCK terms is summed by `np.add.reduce`, and so
    are its magnitudes.  In any summation order a block sum is within
    gamma_{m-1} * sum|x| of the block's real sum, gamma_k = k u / (1 - k u)
    with u = 2**-53 (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, section 4.2); additions whose result is subnormal
    are exact, so underflow breaks none of it.  t is the `math.fsum` of
    the block sums, within u |t| of their real sum.  So
    e = 2 gamma_{_BLOCK-1} * fsum(magnitude sums) + 2 u |t| + 2**-1022:
    the factor 2 covers the rounding of the magnitude sums and of e
    itself, and 2**-1022 a product that underflows.  The one scratch
    buffer is a block long.
    """
    parts: list[list[float]] = [[] for _ in range(count)]
    mags: list[list[float]] = [[] for _ in range(count)]
    scratch = np.empty(min(n, _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):  # undecided, not warned
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for part, mag, block in zip(parts, mags, blocks(lo, hi), strict=True):
                part.append(float(np.add.reduce(block)))
                mag.append(float(np.add.reduce(np.abs(block, out=scratch[: hi - lo]))))
    bounded = []
    for part, mag in zip(parts, mags):
        try:
            total, size = math.fsum(part), math.fsum(mag)
        except (OverflowError, ValueError):  # a finite overflow, or inf - inf
            return None
        bound = 2.0 * _GAMMA * size + 2.0 * _UNIT * abs(total) + _TINY
        if not math.isfinite(bound):  # an inf or nan among the sums
            return None
        bounded.append((total, bound))
    return bounded


def _exact_sum(x) -> float:
    """The correctly rounded sum of the float64 values x: bit for bit
    what `math.fsum(x)` returns, without a Python-level loop over x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    (total,) = _exact_sums(x.shape[0], lambda lo, hi: (x[lo:hi],), 1)
    return total.value()


def _arange_into(out: np.ndarray, first: int, start: float) -> np.ndarray:
    """start + i for i = first, first + 1, ..., written into out: a block
    of ``np.arange(start, ..., dtype=float)``, exact below 2**53."""
    np.add(_STEPS[: out.shape[0]], first, out=out)
    out += start
    return out


def _power_sums(kappas: tuple[float, ...], n: int, n0: int) -> list[float]:
    """`phi_sum` for each kappa, in one `_exact_sums` pass over blocks of
    j held in two block buffers (j and one power)."""
    width = min(n, _BLOCK)
    j, power = np.empty(width), np.empty(width)

    def blocks(lo: int, hi: int):
        jb = _arange_into(j[: hi - lo], lo, float(1 + n0))
        for kappa in kappas:
            yield np.power(jb, -kappa, out=power[: hi - lo])

    return [total.value() for total in _exact_sums(n, blocks, len(kappas))]


def phi_sum(kappa: float, n: int, n0: int = 0) -> float:
    """Power sum sum_{j=1}^{n} (j + n0)**(-kappa) over the rounded terms,
    correctly rounded: bit for bit `math.fsum` of the n terms.  The terms
    are made and summed block by block in cache-sized buffers
    (`_exact_sums`), so no n-length array is made.
    """
    n, n0 = budget(n, n0)
    kappa = float(kappa)
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    return _power_sums((kappa,), n, n0)[0]


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
    n, n0 = budget(n, n0)
    if n < 2:
        raise ValueError(
            f"n must be at least 2, got {n}: with one draw the constraint "
            "system is singular"
        )
    kf, ks = weight_decay_exponents(order)
    p11, p12, p22 = _power_sums((1.0, kf, ks), n, n0)
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
    Its caller guarantees A != 0, B > 0 and C != 0 (so no zero root).
    """
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return None
    qq = -0.5 * (B + math.sqrt(disc))
    r1 = qq / A
    r2 = C / qq
    return (r1, r2) if r1 <= r2 else (r2, r1)


def feasible_intervals(xi: XiMatrix, order: BiasOrder, K: float) -> list[tuple[float, float]]:
    """Intervals of bias-sum levels a whose scale inflation stays <= K.

    The cap eta(a) <= K is the quadratic inequality

        (K**(2 (q1 + q2)) - xi11) a**2 - 2 xi12 a - xi22 >= 0.

    Since xi22 > 0, a = 0 is never feasible, so each interval lies in one
    sign and there are at most two of them.  xi12 = -phi12 / det < 0, as
    in every Gram matrix `xi_matrix` builds, makes the last one positive:
    [root, inf) or [xi22 / (-2 xi12), inf) when the a**2 coefficient is
    positive or zero, and the span of two positive roots when it is
    negative.  Endpoints may be +-inf; an empty list means the cap is
    infeasible at this (n, K).  ``order`` must be the order ``xi`` was
    built for; an ``xi`` with xi12 >= 0 (only a hand-built one) is
    rejected, and so is a K whose K**(2 (q1 + q2)) overflows, with the
    bound on K.
    """
    if order != xi.order:
        raise ValueError(f"order {order} differs from the Gram matrix's {xi.order}")
    if not xi.xi12 < 0.0:
        raise ValueError(f"xi12 must be negative, as in every Gram matrix, got {xi.xi12}")
    positive(K, "K must be positive")
    try:
        A = float(K) ** (2.0 * (order.q1 + order.q2)) - xi.xi11
    except OverflowError:
        raise ValueError(f"K must be below {2.0 ** (512 / (order.q1 + order.q2)):.4g}, where "
                         f"K**(2 (q1 + q2)) overflows, got {K}") from None
    B = -2.0 * xi.xi12
    C = -xi.xi22
    if A > 0.0:
        lo, hi = _quadratic_roots(A, B, C)  # opposite signs: C/A < 0
        return [(-math.inf, lo), (hi, math.inf)]
    if A == 0.0:
        return [(-C / B, math.inf)]
    roots = _quadratic_roots(A, B, C)
    if roots is None:
        return []
    return [roots]


def _golden_minimize(f, lo: float, hi: float) -> float:
    """Golden-section argmin of f on [lo, hi] to relative tolerance
    _GOLDEN_RTOL; compares the interior optimum against both endpoints,
    so boundary minima are found."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > _GOLDEN_RTOL * max(abs(a), abs(b), 1e-300):
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


def _minimize_on_interval(lo: float, hi: float, xi: XiMatrix, pilot: float) -> float:
    """Grid-then-golden minimizer of the risk objective on one positive
    feasible interval.  An unbounded hi is capped at a multiple of the
    asymptotic pilot magnitude and the cap is extended whenever the grid
    argmin lands on it, so a capped bracket never hides the optimum."""
    if lo == hi:
        return lo
    capped = math.isinf(hi)
    cap = max(_PILOT_CAP_FACTOR * pilot, 10.0 * lo) if capped else hi
    while True:
        grid = np.geomspace(lo, cap, _GRID_POINTS)
        grid[0] = lo  # exact feasibility boundary
        if not capped:
            grid[-1] = hi
        idx = int(np.argmin(_objective(grid, xi)))
        if not capped or idx < _GRID_POINTS - 2:
            break
        cap *= 100.0
    return _golden_minimize(lambda x: _objective(x, xi), grid[max(idx - 1, 0)],
                            grid[min(idx + 1, _GRID_POINTS - 1)])


def _over_power(num: float, factor: float, K: float, p: float) -> float:
    """num / (factor * K**p) for positive inputs; where the divisor
    overflows, exp(log num - log factor - p log K), within about 1e-13
    relative of the quotient, and 0.0 once that underflows."""
    with contextlib.suppress(OverflowError):
        if (divisor := factor * float(K) ** p) < math.inf:
            return num / divisor
    return math.exp(math.log(num) - math.log(factor) - p * math.log(K))


def pilot_a(xi: XiMatrix, K: float) -> float:
    """Asymptotic magnitude of the optimal bias-sum level,
    sqrt(q1/(q1+q2)) / (K**(q1+q2) * n**(q1/(2(q1+q2)))); used to anchor
    search grids; `_over_power` keeps a huge K's value."""
    positive(K, "K must be positive")
    q1, q2 = xi.order.q1, xi.order.q2
    s = q1 + q2
    return _over_power(math.sqrt(q1 / s), float(xi.n) ** (q1 / (2.0 * s)), K, s)


def solve_a_star(xi: XiMatrix, order: BiasOrder, K: float) -> float:
    """Optimal bias-sum level a*: argmin of the size-free worst-case risk
    over the feasible set of the inflation cap K.

    Only the positive feasible interval is searched: a dense log-spaced
    grid (anchored at the asymptotic pilot magnitude) locates the basin,
    and golden-section refinement takes it to relative tolerance 1e-12.
    That search rests on xi12 < 0, which `feasible_intervals` checks.

    Raises
    ------
    InfeasibleError
        If the cap excludes every a (possible when K is too small for
        this n).
    """
    intervals = feasible_intervals(xi, order, K)
    if not intervals:
        raise _infeasible(xi, order, K, "no feasible weight scheme",
                          ": the inflation cap excludes every bias-sum level")
    # With xi12 < 0, ztilde_squared(-a) - ztilde_squared(a) = -4 xi12 a > 0
    # for a > 0: a feasible a < 0 leaves -a feasible at a smaller risk, so
    # a* lies on the positive interval, the last one.
    lo, hi = intervals[-1]
    return float(_minimize_on_interval(lo, hi, xi, pilot_a(xi, K)))


def _k_min(xi: XiMatrix, order: BiasOrder) -> float:
    """The smallest cap any weighting can respect: min over a of
    ztilde^2/a^2 is det(Xi)/xi22 = 1/phi(1), so it is phi(1)**(-alpha)."""
    return xi.phi11 ** -order.alpha


def _infeasible(xi: XiMatrix, order: BiasOrder, K: float, head: str,
                tail: str = "") -> InfeasibleError:
    """The `InfeasibleError` for cap K at xi's n; every such message ends
    by naming the smallest feasible cap."""
    return InfeasibleError(
        f"{head} at n={xi.n}, K={K}{tail} (needs K >= {_k_min(xi, order)!r})")


def eta_balance(a: float, xi: XiMatrix) -> float:
    """Perturbation-scale multiplier that balances the bias and variance
    risk contributions of the optimal weights at bias-sum level a:
    (ztilde_squared(a, xi) / a**2) ** alpha.  A level a is feasible under
    cap K exactly when this value is <= K.
    """
    if a == 0.0 or not math.isfinite(a):
        raise ValueError(f"bias-sum level a must be finite and nonzero, got {a}")
    return float((ztilde_squared(a, xi) / (a * a)) ** xi.order.alpha)


@dataclass(frozen=True)
class WeightSolution:
    """The solved capped minimax problem for one (n, n0, order, K), without
    the n weights: `solve_weights` makes it, and `materialise` builds the
    weights from it as a `WeightScheme`, this solution with its weights.

    Attributes
    ----------
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
    n, n0 : int
        Budget and schedule offset.
    K : float
        The inflation cap.
    order : BiasOrder
        The bias/noise order, as passed.
    regime : str
        "boundary" when a_star is an endpoint of its feasible interval, so
        eta_star is the cap K up to rounding; "interior" when it is a
        stationary point inside one, so eta_star is below K.
    k_min : float
        phi(1)**(-alpha), the smallest cap any weighting of the n draws
        can respect.
    """

    lambda1: float
    lambda2: float
    a_star: float
    eta_star: float
    s_star: float
    n: int
    n0: int
    K: float
    order: BiasOrder
    regime: str
    k_min: float

    @property
    def scaled_s_star(self) -> float:
        """n**(q1/(q1+q2)) * s_star, the finite-n risk constant whose limit
        is the AMRR."""
        return float(self.n) ** self.order.mse_exponent * self.s_star

    def materialise(self) -> WeightScheme:
        """The n weights lambda1 (j+n0)**(-kappa_fast) + lambda2
        (j+n0)**(-kappa_slow), as a `WeightScheme` that self-checks them.

        A fresh array (the only n-length one) is handed to the constructor
        unfilled, with a fill that writes each block as its check reads
        it, so the weights are built and checked in one block pass and
        never re-read.  Where the check's bias power (j+n0)**(-alpha q1)
        is (j+n0)**(-kappa_slow) bit for bit (q1 = 2 q2), the fill reuses
        it."""
        kf, ks = weight_decay_exponents(self.order)
        shared = -ks == _bias_exponent(self.order)

        def fill(wb: np.ndarray, jb: np.ndarray, power: np.ndarray) -> None:
            np.power(jb, -kf, out=wb)
            wb *= self.lambda1
            if shared:
                np.multiply(power, self.lambda2, out=jb)
            else:
                jb **= -ks
                jb *= self.lambda2
            wb += jb

        return WeightScheme(weights=np.empty(self.n), _fill=fill,
                            **{f.name: getattr(self, f.name) for f in fields(WeightSolution)})


@dataclass(frozen=True)
class WeightScheme(WeightSolution):
    """A `WeightSolution` with its read-only weights, shape (n,),
    w_j = lambda1 / (j+n0)**kappa_fast + lambda2 / (j+n0)**kappa_slow.
    Construction self-checks them: finite, summing to one, reproducing
    a_star, with 0 < eta_star within the finite cap K, a known regime, a
    finite k_min > 0 and a budget with n + n0 <= 2**53 (`errors.budget`).

    The two sums are checked within 1e-10, over blocks of the weights and
    their bias terms w_j (j+n0)**(-alpha q1).  The blocks are read from
    the weights array; `WeightSolution.materialise` passes a private
    ``_fill`` that writes each weight block first, so its weights are
    built in the same pass and stay the only n-length array.  A bounded
    pass (`_bounded_sums`) accepts the sums when each estimate is within
    half the tolerance of its target with its error bound added, which
    also proves every weight finite; otherwise the finished array is
    checked for finiteness and the exact sums (`_exact_sums`, fsum's
    bits) decide, and name the failing value."""

    weights: np.ndarray
    _fill: InitVar[Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None] = None

    def __post_init__(self, _fill) -> None:
        positive(self.K, "K must be positive")
        if not 0 < self.eta_star <= self.K + 1e-9:
            raise ValueError(f"scale inflation eta*={self.eta_star!r} outside (0, K={self.K!r}]")
        if self.regime not in ("boundary", "interior"):
            raise ValueError(f"regime must be 'boundary' or 'interior', got {self.regime!r}")
        positive(self.k_min, "k_min must be positive")
        budget(self.n, self.n0)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},), got {w.shape}")
        object.__setattr__(self, "weights", w)
        n, exponent = w.shape[0], _bias_exponent(self.order)
        j, power = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))

        def blocks(fill, lo: int, hi: int):
            # the terms of sum w and sum (j + n0)**(-alpha q1) w; ``fill``,
            # if any, writes w[lo:hi] from j + n0 and that power first
            jb = _arange_into(j[: hi - lo], lo, 1.0)
            jb += self.n0
            pb = np.power(jb, exponent, out=power[: hi - lo])
            if fill is not None:
                fill(w[lo:hi], jb, pb)
            yield w[lo:hi]
            pb *= w[lo:hi]
            yield pb

        # bounds clear of half the tolerance pass both checks, as the exact
        # sums below would; anything else is decided by those
        bounded = _bounded_sums(n, partial(blocks, _fill), 2)
        w.setflags(write=False)
        if bounded is not None:
            (t0, e0), (t1, e1) = bounded
            if (abs(t0 - 1.0) + e0 <= 0.5e-10 and math.isfinite(self.a_star)
                    and abs(t1 - self.a_star) + e1 <= 0.5e-10 * max(1.0, abs(self.a_star))):
                return
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        sums = _exact_sums(n, partial(blocks, None), 2)
        total = sums[0].value()
        if not abs(total - 1.0) <= 1e-10 * max(1.0, abs(total)):
            raise ValueError(f"weights must sum to 1 within 1e-10, got {total!r}")
        bias_sum = sums[1].value()
        if not (math.isfinite(self.a_star)
                and abs(bias_sum - self.a_star) <= 1e-10 * max(1.0, abs(self.a_star))):
            raise ValueError(
                f"weights reproduce bias sum {bias_sum!r}, expected a*={self.a_star!r}"
            )

    def deltas(self, d: float = 1.0) -> np.ndarray:
        """Calibrated perturbation schedule eta* d (j+n0)**(-alpha), j=1..n."""
        positive(d, "d must be positive")
        j = np.arange(1, self.n + 1, dtype=float) + self.n0
        return self.eta_star * float(d) * j ** (-self.order.alpha)


def solve_weights(n: int, n0: int, order: BiasOrder, K: float) -> WeightSolution:
    """Solve the capped minimax weight problem for a budget of n draws,
    without building the weights.

    Combines `xi_matrix`, `solve_a_star`, and the two-constraint linear
    solve for (lambda1, lambda2).  The realized scale multiplier is the
    balance point at a_star, which feasibility of a_star keeps at or below
    the cap; it equals K exactly when a_star sits on the feasible
    boundary.  Holds no n-length array: the O(n) power sums stream
    through block buffers.

    The Gram matrix is the memo's "gram" part, keyed by (float q1,
    float q2, int n, int n0), so equal keys (n = 1e5 and 100000,
    ``BiasOrder(2, 1)`` and ``BiasOrder(2.0, 1.0)``) share one entry and
    its bits.  Everything else, a* included, is solved on every call, and
    invalid or infeasible inputs raise on every call.
    """
    n, n0 = budget(n, n0)
    q1, q2 = float(order.q1), float(order.q2)
    xi = _memo(("gram", q1, q2, n, n0), lambda: xi_matrix(BiasOrder(q1, q2), n, n0))
    a_star = solve_a_star(xi, order, K)
    lam = np.linalg.solve(xi.phi_array(), np.array([a_star, 1.0]))
    eta_star = eta_balance(a_star, xi)
    if eta_star > K + 1e-9:
        raise _infeasible(xi, order, K, "solver returned an infeasible bias-sum level")
    boundary = a_star in feasible_intervals(xi, order, K)[-1]
    return WeightSolution(
        lambda1=float(lam[0]),
        lambda2=float(lam[1]),
        a_star=a_star,
        eta_star=min(eta_star, float(K)),
        s_star=_objective(a_star, xi),
        n=xi.n,
        n0=xi.n0,
        K=float(K),
        order=order,
        regime="boundary" if boundary else "interior",
        k_min=_k_min(xi, order),
    )


def optimal_weights(n: int, n0: int, order: BiasOrder, K: float) -> WeightScheme:
    """Solve the capped minimax weight problem for a budget of n draws and
    build its weights: `solve_weights`, then `WeightSolution.materialise`.

    The returned scheme self-checks its defining identities on
    construction; its weights are built and self-checked on every call,
    into a fresh read-only array.  A caller that needs only the O(1)
    fields (a*, eta*, S*, the regime) should call `solve_weights`, which
    builds no n-length array.
    """
    return solve_weights(n, n0, order, K).materialise()


def amrr_general(order: BiasOrder, K: float) -> float:
    """Asymptotic minimax risk ratio of the capped weighted scheme:
    q1 / ((q1 + q2) * K**(2 q2)).  Strictly decreasing in K; equals the
    limit of n**(q1/(q1+q2)) * s_star along `optimal_weights` solutions.
    `_over_power` keeps a huge K's value, below 2**-1024.
    """
    positive(K, "K must be positive")
    q1, q2 = order.q1, order.q2
    return _over_power(q1, q1 + q2, K, 2.0 * q2)


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


def brute_force_weights(n: int, n0: int, order: BiasOrder, a: float) -> np.ndarray:
    """Reference weights at bias-sum level a from the raw KKT system.

    Assembles the full (n+2) x (n+2) stationarity-plus-constraints system
    over the raw per-draw bias and variance factors and solves it densely.
    Deliberately shares no code with `optimal_weights`; intended as an
    independent cross-check for n <= 50.
    """
    n, n0 = budget(n, n0, minimum=2)
    if n > 50:
        raise ValueError(f"brute-force path is restricted to n <= 50, got {n}")
    if not math.isfinite(a):
        raise ValueError(f"bias-sum level a must be finite, got {a}")
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
