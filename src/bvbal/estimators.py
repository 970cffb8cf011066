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
description of an estimator.  The estimators below and the paired
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
from functools import lru_cache

import numpy as np

from .calibration import WeightScheme, _exact_sum
from .errors import ConfigurationError
from .oracles import BiasOrder, SampleOracle, StreamKey

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
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if int(self.n0) != self.n0 or self.n0 < 0:
            raise ValueError(f"n0 must be a non-negative integer, got {self.n0}")
        object.__setattr__(self, "n0", int(self.n0))

    @classmethod
    def balanced(cls, order: BiasOrder, scale: float = 1.0, n0: int = 0) -> "DeltaSchedule":
        """Schedule at the bias-variance balancing exponent alpha =
        1 / (2 (q1 + q2))."""
        return cls(scale=scale, alpha=order.alpha, n0=n0)

    def delta(self, j: int) -> float:
        if j < 1:
            raise ValueError(f"draw index must be >= 1, got {j}")
        return self.scale * float(j + self.n0) ** (-self.alpha)

    def deltas(self, n: int) -> np.ndarray:
        _check_budget(n)
        j = np.arange(1, n + 1, dtype=float) + self.n0
        return self.scale * j ** (-self.alpha)

    def terminal(self, n: int) -> float:
        """The size the schedule reaches at the end of an n-draw budget."""
        _check_budget(n)
        return self.scale * float(n + self.n0) ** (-self.alpha)


@dataclass(frozen=True)
class RecursiveParams:
    """Step-size configuration gamma_j = c (j + n0)**(-beta) and optional
    initial point (defaults to the origin)."""

    c: float
    beta: float
    init: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ConfigurationError(f"step constant c must be positive, got {self.c}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(f"beta must lie in (0, 1], got {self.beta}")
        if self.init is not None:
            init = np.atleast_1d(np.asarray(self.init, dtype=float))
            if init.ndim != 1 or not np.all(np.isfinite(init)):
                raise ConfigurationError("init must be a finite vector")
            init.setflags(write=False)
            object.__setattr__(self, "init", init)


@dataclass(frozen=True)
class EstimatorRun:
    """Result of one estimator invocation: the estimate, the budget spent,
    and (optionally) the per-step iterate trace for diagnostics."""

    estimate: np.ndarray
    n: int
    trace: np.ndarray | None = None

    def __post_init__(self) -> None:
        est = np.atleast_1d(np.asarray(self.estimate, dtype=float))
        est.setflags(write=False)
        object.__setattr__(self, "estimate", est)


def _check_budget(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"budget n must be a positive integer, got {n}")
    return int(n)


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
                f"step size c (j + n0)**(-beta) = {gam[first - 1]!r} exceeds 1 "
                f"at j={first} with n0=0; increase n0 or reduce c"
            )
        gam = np.minimum(gam, 1.0)
    return gam, clamped


def _warn_clamped(clamped: int, c: float, beta: float, n0: int) -> None:
    """The one clamp warning of a coefficient build; logged outside any
    cache so that every build which clamps says so."""
    if clamped:
        logger.warning(
            "clamping %d recursive step(s) above 1 (c=%g, beta=%g, n0=%d)",
            clamped, c, beta, n0,
        )


def recursion_coefficients(c: float, beta: float, n: int, n0: int = 0) -> tuple[np.ndarray, float]:
    """Sample coefficients u_j and initial-point coefficient t0 such that
    the recursive estimate equals sum_j u_j X_j + t0 * init.

    u_j = gamma_j * prod_{k > j} (1 - gamma_k) and t0 = prod_k (1 - gamma_k).
    The c = 1, beta = 1 case telescopes exactly to the running mean
    u_j = 1 / (n + n0), t0 = n0 / (n + n0), and is emitted in that closed
    form so the identity holds bit-for-bit.
    """
    n = _check_budget(n)
    gam, clamped = _steps(c, beta, n, n0)
    _warn_clamped(clamped, c, beta, n0)
    if beta == 1.0 and c == 1.0 and not np.any(gam > 1.0):
        return np.full(n, 1.0 / (n + n0)), n0 / (n + n0)
    q = 1.0 - gam
    rc = np.cumprod(q[::-1])[::-1]  # rc[i] = prod_{k >= i+1} (1 - gamma_k)
    tail = np.append(rc[1:], 1.0)
    return gam * tail, float(rc[0])


@lru_cache(maxsize=32)
def _averaged_coefficients_cached(c: float, beta: float, n: int, n0: int) -> tuple[np.ndarray, float, int]:
    gam, clamped = _steps(c, beta, n, n0)
    q = 1.0 - gam
    # R_j = 1 + sum_{m > j} prod_{j < k <= m} (1 - gamma_k), backwards;
    # the suffix products underflow harmlessly inside this recurrence,
    # where a ratio form would divide by zero
    R = np.empty(n)
    R[-1] = 1.0
    for i in range(n - 2, -1, -1):
        R[i] = 1.0 + q[i + 1] * R[i + 1]
    ubar = gam * R / n
    t0bar = _exact_sum(np.cumprod(q)) / n
    ubar.setflags(write=False)
    return ubar, t0bar, clamped


def averaged_coefficients(c: float, beta: float, n: int, n0: int = 0) -> tuple[np.ndarray, float]:
    """Sample and initial-point coefficients of the averaged estimator
    (the running mean over the n recursive iterates); cached per
    configuration since the backward recurrence is the only O(n) Python
    loop in the hot path."""
    n = _check_budget(n)
    ubar, t0bar, clamped = _averaged_coefficients_cached(float(c), float(beta), n, int(n0))
    _warn_clamped(clamped, c, beta, n0)
    return ubar, t0bar


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
    the single-run estimators and the paired harness.
    """

    deltas: np.ndarray
    coeffs: np.ndarray
    init_coeff: float = 0.0

    @classmethod
    def baseline(cls, n: int, schedule: DeltaSchedule) -> "LinearPlan":
        """Weights 1/n on n draws at the schedule's terminal size."""
        n = _check_budget(n)
        return cls(np.full(n, schedule.terminal(n)), np.full(n, 1.0 / n))

    @classmethod
    def recursive(cls, n: int, schedule: DeltaSchedule,
                  params: RecursiveParams) -> "LinearPlan":
        """The final iterate of the recursion along the schedule."""
        n = _check_budget(n)
        u, t0 = recursion_coefficients(params.c, params.beta, n, schedule.n0)
        return cls(schedule.deltas(n), u, t0)

    @classmethod
    def averaged(cls, n: int, schedule: DeltaSchedule,
                 params: RecursiveParams) -> "LinearPlan":
        """The running mean of the recursive iterates; requires beta < 1
        (at beta = 1 the recursion already averages and there is nothing
        to gain, so the combination is rejected rather than silently
        misread)."""
        n = _check_budget(n)
        if params.beta >= 1.0:
            raise ConfigurationError(
                f"averaging requires beta < 1, got beta = {params.beta}"
            )
        ubar, t0bar = averaged_coefficients(params.c, params.beta, n, schedule.n0)
        return cls(schedule.deltas(n), ubar, t0bar)

    @classmethod
    def weighted(cls, n: int, schedule: DeltaSchedule,
                 scheme: "WeightScheme | np.ndarray") -> "LinearPlan":
        """Explicit weights along the schedule: a solved `WeightScheme` or
        any weight vector of length n."""
        n = _check_budget(n)
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


def _run(oracle: SampleOracle, plan: LinearPlan, stream: StreamKey,
         init: np.ndarray | None = None, trace_of=None) -> EstimatorRun:
    """The run step every estimator shares: draw the plan's path from the
    stream, reduce it, and trace it with ``trace_of`` if one is given."""
    samples = oracle.sample_path(plan.deltas, stream)
    trace = None if trace_of is None else trace_of(samples)
    return EstimatorRun(plan.reduce(samples, init), samples.shape[0], trace)


def baseline_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                      stream: StreamKey, trace: bool = False) -> EstimatorRun:
    """Average n draws at the schedule's terminal size
    delta = scale * (n + n0)**(-alpha)."""
    plan = LinearPlan.baseline(n, schedule)
    return _run(oracle, plan, stream, trace_of=_running_mean if trace else None)


def recursive_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                       params: RecursiveParams, stream: StreamKey,
                       trace: bool = False) -> EstimatorRun:
    """One stochastic-approximation pass along the shrinking schedule.

    Consumes exactly n draws; the estimate is the final iterate, computed
    through the shared reduction kernel.  A trace, if requested, is the
    literal iterate sequence (its last entry can differ from the estimate
    by float rounding only).
    """
    plan = LinearPlan.recursive(n, schedule, params)
    trace_of = (lambda x: _iterate_trace(x, params, schedule)) if trace else None
    return _run(oracle, plan, stream, params.init, trace_of)


def averaged_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                      params: RecursiveParams, stream: StreamKey,
                      trace: bool = False) -> EstimatorRun:
    """Running mean of the recursive iterates; requires beta < 1 (see
    `LinearPlan.averaged`)."""
    plan = LinearPlan.averaged(n, schedule, params)
    trace_of = (lambda x: _running_mean(_iterate_trace(x, params, schedule))) if trace else None
    return _run(oracle, plan, stream, params.init, trace_of)


def weighted_estimate(oracle: SampleOracle, n: int, schedule: DeltaSchedule,
                      scheme: "WeightScheme | np.ndarray", stream: StreamKey,
                      trace: bool = False) -> EstimatorRun:
    """Explicit linear combination of draws along the schedule.

    ``scheme`` is a solved `WeightScheme` or any weight vector of length
    n.  The schedule should already carry the calibrated scale (for a
    solved scheme, scale = eta_star * d).
    """
    plan = LinearPlan.weighted(n, schedule, scheme)
    trace_of = (lambda x: np.cumsum(plan.coeffs[:, None] * x, axis=0)) if trace else None
    return _run(oracle, plan, stream, trace_of=trace_of)


def _running_mean(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x, axis=0) / np.arange(1, x.shape[0] + 1)[:, None]


def _iterate_trace(samples: np.ndarray, params: RecursiveParams,
                   schedule: DeltaSchedule) -> np.ndarray:
    n = samples.shape[0]
    # the plan's coefficient build has already warned about any clamp
    gam, _ = _steps(params.c, params.beta, n, schedule.n0)
    out = np.empty_like(samples)
    cur = _resolve_init(params.init, samples.shape[1]).astype(float)
    for j in range(n):
        cur = (1.0 - gam[j]) * cur + gam[j] * samples[j]
        out[j] = cur
    return out


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
    if not (d > 0 and math.isfinite(d)):
        raise ValueError(f"d must be positive, got {d}")
    if B2 < 0 or sigma2 < 0:
        raise ValueError("B2 and sigma2 must be non-negative")
    n = _check_budget(n)
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
    steps = _check_budget(steps)
    cf = c_seq if callable(c_seq) else (lambda _n, _c=float(c_seq): _c)
    bf = b_seq if callable(b_seq) else (lambda _n, _b=float(b_seq): _b)
    v = float(v0)
    for m in range(1, steps + 1):
        s = float(m) ** (-alpha)
        v = (1.0 - cf(m) * s) * v + bf(m) * s
    return v
