"""Budgeted estimators over bias-noise oracles, plus their risk predictions.

Four ways to spend n oracle draws:

* baseline: average n draws taken at one terminal perturbation size;
* recursive: stochastic-approximation pass theta_j = (1 - gamma_j)
  theta_{j-1} + gamma_j X_j with gamma_j = c (j + n0)**(-beta) and a
  shrinking perturbation schedule;
* averaged: the running mean of the recursive iterates (beta < 1);
* weighted: an explicit linear combination, typically the two-decay
  scheme from `bvbal.calibration`.

All four are linear in the samples, so a `LinearPlan` (perturbation
sizes, sample coefficients, initial-point coefficient) is the single
description of an estimator, and `LinearPlan.mse` is its exact finite-n
risk on the synthetic model.  The estimators below and the paired
harness in `bvbal.experiments` build plans through the same constructors
and reduce a sample path through the plan's one deterministic
pairwise-summation kernel, so configurations that are algebraically
identical (a running mean written three ways) produce bit-identical
estimates, a harness replication reproduces the single-run estimate on
its stream bit for bit, and estimators sharing a StreamKey consume
identical raw draws.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .calibration import _BLOCK, WeightScheme, _exact_sum, _exact_sums, _memo
from .errors import ConfigurationError, budget, count, positive
from .oracles import BiasOrder, SampleOracle, StreamKey, SyntheticOracleSpec

__all__ = [
    "DeltaSchedule",
    "RecursiveParams",
    "EstimatorRun",
    "LinearPlan",
    "baseline_estimate",
    "recursive_estimate",
    "averaged_estimate",
    "weighted_estimate",
    "recursion_coefficients",
    "averaged_coefficients",
    "predict_mse_leading",
    "chung_recursion_check",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class DeltaSchedule:
    """Perturbation schedule delta_j = scale * (j + n0)**(-alpha).

    alpha = 0 is allowed (a constant schedule, used by the baseline and
    by equivalence tests); every delta_j is strictly positive.
    """

    scale: float
    alpha: float
    n0: int = 0

    def __post_init__(self) -> None:
        positive(self.scale, "scale must be positive")
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        object.__setattr__(self, "n0", budget(1, self.n0)[1])

    def delta(self, j: int) -> float:
        """delta_j, bit for bit ``deltas(n)[j - 1]``: the same numpy power
        on a one-element array."""
        j = budget(count(j, "draw index must be an integer >= 1", 1), self.n0)[0]
        size = float(self.scale) * (np.array([j], dtype=float) + self.n0) ** (-float(self.alpha))
        return float(size[0])

    def deltas(self, n: int) -> np.ndarray:
        """The n sizes delta_1..delta_n, one shared read-only array per
        (schedule, n) while the plan memo holds it."""
        n, scale, alpha = budget(n, self.n0)[0], float(self.scale), float(self.alpha)
        return _memo(("deltas", scale, alpha, self.n0, n),
                     lambda: scale * (np.arange(1, n + 1, dtype=float) + self.n0) ** (-alpha),
                     lambda a: a)

    def terminal(self, n: int) -> float:
        """The size the schedule reaches at the end of an n-draw budget."""
        n = budget(n, self.n0)[0]
        return self.scale * float(n + self.n0) ** (-self.alpha)


@dataclass(frozen=True)
class RecursiveParams:
    """Step-size configuration gamma_j = c (j + n0)**(-beta) and optional
    initial point (defaults to the origin)."""

    c: float
    beta: float
    init: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_steps(self.c, self.beta)
        if self.init is not None:
            init = np.atleast_1d(np.asarray(self.init, dtype=float))
            if init.ndim != 1 or not np.all(np.isfinite(init)):
                raise ConfigurationError("init must be a finite vector")
            init.setflags(write=False)
            object.__setattr__(self, "init", init)


@dataclass(frozen=True)
class EstimatorRun:
    """Result of one estimator invocation: the estimate and the budget spent."""

    estimate: np.ndarray
    n: int

    def __post_init__(self) -> None:
        est = np.atleast_1d(np.asarray(self.estimate, dtype=float))
        est.setflags(write=False)
        object.__setattr__(self, "estimate", est)


def _check_steps(c: float, beta: float) -> None:
    """The rule for gamma_j = c (j + n0)**(-beta): c finite and > 0, 0 < beta <= 1."""
    positive(c, "step constant c must be positive", ConfigurationError)
    if not 0.0 < beta <= 1.0:
        raise ConfigurationError(f"beta must lie in (0, 1], got {beta}")


def _steps(c: float, beta: float, n: int, n0: int) -> tuple[np.ndarray, int]:
    """Step sizes gamma_j clamped at 1, and how many were clamped; a
    burn-in offset n0 > 0 may leave early steps above 1, but without an
    offset an oversized step is a configuration error."""
    j = np.arange(1, n + 1, dtype=float) + n0
    gam = c * j ** (-beta)
    over = gam > 1.0
    clamped = int(over.sum())
    if clamped:
        if n0 == 0:
            first = int(np.argmax(over)) + 1
            raise ConfigurationError(
                f"step size c (j + n0)**(-beta) = {float(gam[first - 1])!r} exceeds 1 "
                f"at j={first} with n0=0; increase n0 or reduce c"
            )
        gam = np.minimum(gam, 1.0)
    return gam, clamped


def _coefficients(kind: str, build, c: float, beta: float, n: int, n0: int):
    """``build(c, beta, n, n0)``'s coefficients through the memo; the clamp
    count kept with them is logged on every call, as every build logs it."""
    _check_steps(c, beta)
    c, beta, (n, n0) = float(c), float(beta), budget(n, n0)
    coeffs, t0, clamped = _memo((kind, c, beta, n, n0), lambda: build(c, beta, n, n0),
                                lambda part: part[0])
    _warn_clamped(clamped, c, beta, n0)
    return coeffs, t0


def _warn_clamped(clamped: int, c: float, beta: float, n0: int) -> None:
    """The one clamp warning of a coefficient build."""
    if clamped:
        logger.warning(
            "clamping %d recursive step(s) above 1 (c=%g, beta=%g, n0=%d)",
            clamped, c, beta, n0,
        )


def _recursion(c: float, beta: float, n: int, n0: int) -> tuple[np.ndarray, float, int]:
    if beta == 1.0 and c == 1.0:
        return np.full(n, 1.0 / (n + n0)), n0 / (n + n0), 0
    gam, clamped = _steps(c, beta, n, n0)
    rc = np.cumprod((1.0 - gam)[::-1])[::-1]  # rc[i] = prod_{k >= i+1} (1 - gamma_k)
    return gam * np.append(rc[1:], 1.0), float(rc[0]), clamped


def recursion_coefficients(c: float, beta: float, n: int, n0: int = 0) -> tuple[np.ndarray, float]:
    """Read-only sample coefficients u_j and initial-point coefficient t0
    such that the recursive estimate equals sum_j u_j X_j + t0 * init.

    u_j = gamma_j * prod_{k > j} (1 - gamma_k) and t0 = prod_k (1 - gamma_k).
    The c = 1, beta = 1 case telescopes exactly to the running mean
    u_j = 1 / (n + n0), t0 = n0 / (n + n0), and is emitted in that closed
    form so the identity holds bit-for-bit; its steps 1 / (j + n0) are at
    most 1, so none is clamped and none is built.  Kept in the plan memo.
    """
    return _coefficients("recursive", _recursion, c, beta, n, n0)


def _averaged(c: float, beta: float, n: int, n0: int) -> tuple[np.ndarray, float, int]:
    gam, clamped = _steps(c, beta, n, n0)
    q = 1.0 - gam
    # R_j = 1 + sum_{m > j} prod_{j < k <= m} (1 - gamma_k), backwards;
    # the suffix products underflow harmlessly inside this recurrence,
    # where a ratio form would divide by zero.  It runs on Python floats
    # (the same bits as numpy scalars, in half the time), taken from q
    # one block at a time so that no n-length list is made
    def backwards():  # q[n-1], ..., q[1]
        for hi in range(n, 1, -_BLOCK):
            yield from reversed(q[max(hi - _BLOCK, 1) : hi].tolist())

    R = np.fromiter(accumulate(backwards(), lambda r, qk: 1.0 + qk * r, initial=1.0),
                    float, n)[::-1]
    return gam * R / n, _exact_sum(np.cumprod(q)) / n, clamped


def averaged_coefficients(c: float, beta: float, n: int, n0: int = 0) -> tuple[np.ndarray, float]:
    """Read-only sample and initial-point coefficients of the averaged
    estimator (the running mean over the n recursive iterates).  Kept in
    the plan memo: the backward recurrence is the only O(n) Python loop
    in the hot path."""
    return _coefficients("averaged", _averaged, c, beta, n, n0)


def _resolve_init(init: np.ndarray | None, dim: int) -> np.ndarray:
    if init is None:
        return np.zeros(dim)
    init = np.asarray(init, dtype=float)
    if init.shape != (dim,):
        raise ConfigurationError(
            f"init has shape {init.shape}, oracle dimension is {dim}"
        )
    return init


@dataclass(frozen=True, slots=True)
class LinearPlan:
    """An estimator that is linear in its samples: draw j is taken at
    perturbation size ``deltas[j]`` and the estimate is
    sum_j coeffs[j] X_j + init_coeff * init.

    The four constructors hold every per-kind rule (budget, schedule,
    coefficients, validation); `reduce` is the one reduction, shared by
    the single-run estimators and the paired harness.  The three that
    draw along the schedule take their deltas from `DeltaSchedule.deltas`,
    so plans on one schedule and budget share one array.
    """

    deltas: np.ndarray
    coeffs: np.ndarray
    init_coeff: float = 0.0

    def __post_init__(self) -> None:
        shape = np.shape(self.deltas)
        if len(shape) != 1 or shape != np.shape(self.coeffs) or shape[0] == 0:
            raise ConfigurationError(
                "deltas and coeffs must be non-empty 1-d arrays of one length, got "
                f"shapes {shape} and {np.shape(self.coeffs)}"
            )

    @classmethod
    def baseline(cls, n: int, schedule: DeltaSchedule) -> "LinearPlan":
        """Weights 1/n on n draws at the schedule's terminal size: the
        deltas of the constant schedule at that size (x**-0.0 is 1.0, so
        each is the terminal size exactly) and the running mean's
        coefficients, the recursion's at c = beta = 1 and n0 = 0; both
        are plan-memo parts, shared and read-only."""
        n = budget(n, schedule.n0)[0]
        flat = DeltaSchedule(schedule.terminal(n), 0.0, schedule.n0)
        return cls(flat.deltas(n), recursion_coefficients(1.0, 1.0, n)[0])

    @classmethod
    def recursive(cls, n: int, schedule: DeltaSchedule, params: RecursiveParams) -> "LinearPlan":
        """The final iterate of the recursion along the schedule."""
        n = budget(n, schedule.n0)[0]
        u, t0 = recursion_coefficients(params.c, params.beta, n, schedule.n0)
        return cls(schedule.deltas(n), u, t0)

    @classmethod
    def averaged(cls, n: int, schedule: DeltaSchedule, params: RecursiveParams) -> "LinearPlan":
        """The running mean of the recursive iterates; requires beta < 1
        (at beta = 1 the recursion already averages and there is nothing
        to gain, so the combination is rejected rather than silently
        misread)."""
        n = budget(n, schedule.n0)[0]
        if params.beta >= 1.0:
            raise ConfigurationError(
                f"averaging requires beta < 1, got beta = {params.beta}"
            )
        ubar, t0bar = averaged_coefficients(params.c, params.beta, n, schedule.n0)
        return cls(schedule.deltas(n), ubar, t0bar)

    @classmethod
    def weighted(cls, n: int, schedule: DeltaSchedule,
                 scheme: "WeightScheme | np.ndarray") -> "LinearPlan":
        """Explicit weights along the schedule: any weight vector of length
        n, or a solved `WeightScheme` on a schedule at its n0 and alpha."""
        n = budget(n, schedule.n0)[0]
        if isinstance(scheme, WeightScheme) and (
                (scheme.n0, scheme.order.alpha) != (schedule.n0, schedule.alpha)):
            raise ConfigurationError(
                f"the scheme was solved for n0={scheme.n0}, alpha={scheme.order.alpha}, "
                f"the schedule has n0={schedule.n0}, alpha={schedule.alpha}")
        weights = np.asarray(getattr(scheme, "weights", scheme), dtype=float)
        if weights.shape != (n,):
            raise ConfigurationError(
                f"weight vector has length {weights.shape[0] if weights.ndim == 1 else weights.shape}, "
                f"budget is n={n}"
            )
        return cls(schedule.deltas(n), weights)

    def reduce(self, samples: np.ndarray, init: np.ndarray | None = None, *,
               terms: np.ndarray | None = None) -> np.ndarray:
        """The estimate sum_j coeffs[j] samples[j] + init_coeff * init from
        a path drawn at ``deltas``; ``init`` defaults to the origin.

        The one reduction kernel for every estimator: each coordinate's
        terms are laid out contiguously and summed by numpy's pairwise
        reduction (error O(eps log n) times sum |terms|).  The summation
        order depends only on n, never on memory alignment or thread
        count, so equal inputs give equal bits everywhere; BLAS dot
        products are avoided for that reason.  ``terms``, a C-contiguous
        (dim, n) buffer, receives the terms instead of a new array; it
        may be ``samples.T`` itself, whose samples are then overwritten.
        """
        init = _resolve_init(init, samples.shape[1])
        terms = np.multiply(samples.T, self.coeffs,
                            out=np.empty(samples.shape[::-1]) if terms is None else terms)
        out = np.add.reduce(terms, axis=1)
        if self.init_coeff != 0.0:
            out = out + self.init_coeff * init
        return out

    def mse(self, spec: SyntheticOracleSpec, init: np.ndarray | None = None) -> float:
        """The exact mean squared error of the estimate on ``spec`` from
        ``init`` (the origin by default): |bias|**2 + |noise_scale|**2
        sum c**2 delta**(-2 q2), where bias = theta (sum c - 1) + init_coeff
        init + B sum c delta**q1 + h sum c delta**(q1 + 1).  Every sum is
        exactly rounded and formed in this order, in two steps: the O(n)
        sums over the plan alone (`_risk_sums`, which depend on the model
        only through its bias order and whether h is set), then one O(dim)
        combination with the model's constants and ``init`` (`_risk`).  The
        harness keeps a weighted plan's sums in the plan memo and repeats
        only the second step."""
        init = _resolve_init(init, spec.dim)
        return self._risk(self._risk_sums(spec.order, spec.higher_order_bias is not None),
                          spec, init)

    def _risk_sums(self, order: BiasOrder, higher: bool) -> tuple[float, ...]:
        """The exact sums of `mse`: sum c, sum c delta**q1, sum c
        delta**(q1 + 1) when ``higher``, and sum (c delta**-q2)**2.  They
        are streamed together through one block-length buffer
        (`_exact_sums`), so no n-length array is made."""
        q1, q2 = order.q1, order.q2
        n = self.coeffs.shape[0]
        buf = np.empty(min(n, _BLOCK))

        def blocks(lo: int, hi: int):
            c, d, t = self.coeffs[lo:hi], self.deltas[lo:hi], buf[: hi - lo]
            yield c
            np.power(d, q1, out=t)
            t *= c
            yield t  # c delta**q1
            if higher:
                t *= d
                yield t  # c delta**(q1 + 1)
            np.power(d, -q2, out=t)
            t *= c
            t *= t
            yield t  # (c delta**-q2)**2

        return tuple(s.value() for s in _exact_sums(n, blocks, 4 if higher else 3))

    def _risk(self, sums: tuple[float, ...] | list[float], spec: SyntheticOracleSpec,
              init: np.ndarray | None = None) -> float:
        """`mse` on ``spec`` from ``init`` given the plan's `_risk_sums` for
        that model: O(dim) work."""
        init = _resolve_init(init, spec.dim)
        total, *bias_sums, variance = sums
        bias = spec.theta * (total - 1.0) + self.init_coeff * init
        bias += spec.B * bias_sums[0]
        if spec.higher_order_bias is not None:
            bias += spec.higher_order_bias * bias_sums[1]
        noise2 = _exact_sum(spec.noise_scale * spec.noise_scale)
        return _exact_sum(bias * bias) + noise2 * variance


def _run(oracle: SampleOracle, plan: LinearPlan, stream: StreamKey,
         init: np.ndarray | None = None) -> EstimatorRun:
    """The run step every estimator shares: draw the plan's path from the
    stream and reduce it."""
    samples = oracle.sample_path(plan.deltas, stream)
    return EstimatorRun(plan.reduce(samples, init), samples.shape[0])


def baseline_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                      stream: StreamKey) -> EstimatorRun:
    """Average n draws at the schedule's terminal size
    delta = scale * (n + n0)**(-alpha)."""
    return _run(oracle, LinearPlan.baseline(n, schedule), stream)


def recursive_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                       params: RecursiveParams, stream: StreamKey) -> EstimatorRun:
    """One stochastic-approximation pass along the shrinking schedule.

    Consumes exactly n draws; the estimate is the final iterate, computed
    through the shared reduction kernel.
    """
    return _run(oracle, LinearPlan.recursive(n, schedule, params), stream, params.init)


def averaged_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                      params: RecursiveParams, stream: StreamKey) -> EstimatorRun:
    """Running mean of the recursive iterates; requires beta < 1 (see
    `LinearPlan.averaged`)."""
    return _run(oracle, LinearPlan.averaged(n, schedule, params), stream, params.init)


def weighted_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                      scheme: "WeightScheme | np.ndarray", stream: StreamKey) -> EstimatorRun:
    """Explicit linear combination of draws along the schedule.

    ``scheme`` is a solved `WeightScheme` or any weight vector of length
    n.  The schedule should already carry the calibrated scale (for a
    solved scheme, scale = eta_star * d, at the scheme's n0 and alpha).
    """
    return _run(oracle, LinearPlan.weighted(n, schedule, scheme), stream)


def predict_mse_leading(kind: str, order: BiasOrder, d: float, B2: float,
                        sigma2: float, n: int, c: float | None = None,
                        beta: float | None = None,
                        alpha: float | None = None) -> float:
    """Leading-order mean squared error of a scheme on the canonical model.

    Parameters
    ----------
    kind : {"baseline", "recursive", "averaged"}
    d : float
        Perturbation scale of the schedule actually run (for calibrated
        schemes, pass the already-multiplied d_scale * d).
    B2, sigma2 : float
        Squared norm of the bias coefficient and total noise variance.
    alpha : float, optional
        Schedule exponent; defaults to the balancing value
        1 / (2 (q1 + q2)).

    Raises
    ------
    ValueError
        When the requested configuration lies outside the regime where
        the scheme converges at the predicted rate; the message cites the
        violated condition.
    """
    q1, q2 = order.q1, order.q2
    positive(d, "d must be positive")
    if not (0 <= B2 < math.inf and 0 <= sigma2 < math.inf):
        raise ValueError(f"B2 and sigma2 must be finite and non-negative, got {B2}, {sigma2}")
    n = budget(n)[0]
    alpha = order.alpha if alpha is None else float(alpha)
    if not alpha > 0:
        raise ValueError(f"prediction requires alpha > 0, got {alpha}")

    if kind == "baseline":
        if not alpha < 1.0 / (2.0 * q2):
            raise ValueError(
                f"baseline prediction requires alpha < 1/(2 q2) = {1.0 / (2.0 * q2)!r} "
                f"so the variance term vanishes, got alpha = {alpha!r}"
            )
        bias2 = d ** (2 * q1) * B2 * n ** (-2.0 * q1 * alpha)
        var = sigma2 / d ** (2 * q2) * n ** (2.0 * q2 * alpha - 1.0)
        return bias2 + var

    if kind == "recursive":
        if c is None or beta is None:
            raise ValueError("recursive prediction needs c and beta")
        if beta > 1.0:
            raise ValueError(f"recursive prediction requires beta <= 1, got {beta!r}")
        if beta == 1.0:
            if abs(alpha - order.alpha) > 1e-12:
                raise ValueError(
                    "recursive prediction at beta = 1 requires the balancing "
                    f"exponent alpha = 1/(2(q1+q2)) = {order.alpha!r}, got {alpha!r}; "
                    "other exponents decay strictly slower"
                )
            if not c > q1 * order.alpha:
                raise ValueError(
                    f"recursive prediction at beta = 1 requires c > q1/(2(q1+q2)) "
                    f"= {q1 * order.alpha!r}, got c = {c!r}; smaller c diverges "
                    "relative to the optimal rate"
                )
            rate = order.mse_exponent
            bias2 = (c * d**q1 / (c - q1 * order.alpha)) ** 2 * B2
            var = c * c * sigma2 / ((2.0 * c - rate) * d ** (2 * q2))
            return (bias2 + var) * n ** (-rate)
        if not alpha < beta / (2.0 * q2):
            raise ValueError(
                f"recursive prediction at beta < 1 requires alpha < beta/(2 q2) "
                f"= {beta / (2.0 * q2)!r}, got alpha = {alpha!r}; otherwise the "
                "error does not vanish"
            )
        bias2 = d ** (2 * q1) * B2 * n ** (-2.0 * q1 * alpha)
        var = c * sigma2 / (2.0 * d ** (2 * q2)) * n ** (2.0 * q2 * alpha - beta)
        return bias2 + var

    if kind == "averaged":
        if beta is None or not 0.0 < beta < 1.0:
            raise ValueError(
                f"averaged prediction requires 0 < beta < 1, got beta = {beta!r}"
            )
        var = sigma2 / ((1.0 + 2.0 * q2 * alpha) * d ** (2 * q2)) * n ** (
            2.0 * q2 * alpha - 1.0
        )
        if alpha > order.alpha:
            return var
        bias2 = (d**q1 / (1.0 - q1 * alpha)) ** 2 * B2 * n ** (-2.0 * q1 * alpha)
        return bias2 + var

    raise ValueError(f"unknown estimator kind {kind!r}")


def chung_recursion_check(c_seq, b_seq, alpha: float, steps: int,
                          v0: float = 0.0) -> float:
    """Iterate the scalar comparison recursion
    v_{n+1} = (1 - c_n / n**alpha) v_n + b_n / n**alpha and return the
    final value.

    For c_n -> c > 0 and 0 < alpha <= 1: b_n -> 0 drives v to 0,
    b_n -> b > 0 drives v to b / c, and b_n -> infinity drives v to
    infinity.  ``c_seq`` and ``b_seq`` are scalars or callables of n.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    steps = count(steps, "steps must be a positive integer", 1)
    cf = c_seq if callable(c_seq) else (lambda _n, _c=float(c_seq): _c)
    bf = b_seq if callable(b_seq) else (lambda _n, _b=float(b_seq): _b)
    v = float(v0)
    for m in range(1, steps + 1):
        s = float(m) ** (-alpha)
        v = (1.0 - cf(m) * s) * v + bf(m) * s
    return v
