"""Single-server queue transient simulator and its derivative oracles.

The measure of interest is the expected average system time of the first
``num_customers`` customers of an M/M/1 queue that starts empty and idle.
Waiting times follow the Lindley recursion

    W_1 = 0,    W_j = max(W_{j-1} + S_{j-1} - A_j, 0),

with A_j the j-th interarrival time and S_j the j-th service time; the
j-th system time is T_j = W_j + S_j, and one replication reports
mean(T_1..T_k).  The sweep runs customer-major: every replication of a
call advances together along rolling rows, one per customer, and the
mean over customers is an explicit in-order row sum,
T_1 + T_2 + ... + T_k, divided by k, so a replication's mean does not
depend on the block's layout or on how many replications share the
sweep.  Both evaluation points of a finite difference are one call: the
rows have shape (2, n), evaluation by draw.  A single replication is the
scalar case of the same sweep.

Derivative oracles perturb a rate by +-delta and form a central
difference of two replications, giving a biased-noisy estimate of the
derivative of the transient measure with bias order q1 = 2 and noise
order q2 = 1; the simultaneous-perturbation variant perturbs both rates
along a random +-1 direction and estimates the full gradient from the
same two replications.  Both are `bvbal.oracles.FiniteDifferenceOracle`
over the transient measure written as a batched function of the two
rates.

All randomness enters through uniform blocks drawn and mapped as
`bvbal.oracles.SampleOracle` states, so two oracles sharing a key
consume identical variates; a draw-fastest block makes the 2 n draws
of each (process, customer) variate in a central-difference block's two
slots the contiguous (2, n) row the sweep reads.  Inverse-transform
sampling (-log1p(-U) / rate) keeps a uniform block's meaning fixed when
only rates change, which is what makes common random numbers and
coupling-based tests exact.  It also lets ``draw`` turn the block into
unit-rate exponentials -log1p(-U) once, in place, for every schedule it
is then mapped through.  A central-difference draw goes one step
further: the rate it never moves is fixed, so the draw divides that
process by it once, and each evaluation divides only the moved process
by its perturbed rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import count, positive
from .oracles import BatchedFunction, FiniteDifferenceOracle, StreamKey

__all__ = [
    "QueueParams",
    "TransientSample",
    "MM1DerivativeOracle",
    "MM1GradientOracleSP",
    "mm1_transient_sample",
    "MM1_TRUE_ARRIVAL_DERIVATIVE",
    "MM1_TRUE_SERVICE_DERIVATIVE",
]

# Reference derivatives of the expected average system time of the first
# 10 customers at arrival rate = service rate = 4 (critically loaded).
# Cross-checked in the test suite against a long common-random-number
# central-difference run before anything downstream trusts them.
MM1_TRUE_ARRIVAL_DERIVATIVE = 0.0946
MM1_TRUE_SERVICE_DERIVATIVE = -0.2501


@dataclass(frozen=True, slots=True)
class QueueParams:
    """M/M/1 configuration: arrival and service rates and the number of
    customers in the transient horizon."""

    arrival_rate: float
    service_rate: float
    num_customers: int = 10

    def __post_init__(self) -> None:
        positive(self.arrival_rate, "arrival_rate must be positive")
        positive(self.service_rate, "service_rate must be positive")
        object.__setattr__(self, "num_customers", count(
            self.num_customers, "num_customers must be a positive integer", 1))


@dataclass(frozen=True, slots=True)
class TransientSample:
    """One replication: the averaged system time and the per-customer
    system times it was averaged from."""

    avg_system_time: float
    per_customer_times: np.ndarray


def _unit_exponentials(u: np.ndarray) -> np.ndarray:
    """Overwrite a uniform block with unit-rate exponentials -log1p(-u)
    and return it; -log1p(-u) maps u in [0, 1) to a finite variate, and
    dividing by a rate gives that rate's exponential."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _mean_system_time(rates: list, e: np.ndarray,
                      times: np.ndarray | None = None) -> np.ndarray:
    """Average system time of the first k customers, one replication per
    entry of the leading shape of ``e``, (..., 2, k): arrivals, then
    services.  ``rates`` = (arrival, service), each a float or an array
    of that leading shape for a process of unit-rate exponentials, or
    None for one that already holds its times.

    The sweep runs over rolling rows of the leading shape, with no
    (k, ...) buffer: T_1 = S_1, then T_j = max(T_{j-1} - A_j, 0) + S_j,
    each A_j and S_j divided by its rate as it is read, and T_j is added
    into a running sum, T_1 first, which is divided by k.  The
    recursion's W_{j-1} + S_{j-1} is T_{j-1}, already rounded, so the
    step is the recursion's bit for bit; A_1 cannot affect system times
    (the system starts empty) and is not read.  From a draw-fastest
    block each row read is contiguous, and ``e`` is not modified.
    ``times``, of shape (k, ...), receives T_1..T_k when given.
    """
    a, s = e[..., 0, :], e[..., 1, :]
    t, step = np.empty(e.shape[:-2]), np.empty(e.shape[:-2])

    def scaled(v, rate):
        return v if rate is None else np.divide(v, rate, out=step)

    np.copyto(t, scaled(s[..., 0], rates[1]))
    total = t.copy()
    if times is not None:
        times[0] = t
    for j in range(1, e.shape[-1]):
        np.subtract(t, scaled(a[..., j], rates[0]), out=t)
        np.maximum(t, 0.0, out=t)
        t += scaled(s[..., j], rates[1])
        total += t
        if times is not None:
            times[j] = t
    total /= e.shape[-1]
    return total


def mm1_transient_sample(params: QueueParams, stream: StreamKey) -> TransientSample:
    """One replication of the transient measure from a fresh stream."""
    k = params.num_customers
    e = _unit_exponentials(stream.generator().random((2, k)))
    times = np.empty(k)
    mean = _mean_system_time([params.arrival_rate, params.service_rate], e, times)
    return TransientSample(float(mean), times)


_TARGETS = ("arrival", "service")


@dataclass(frozen=True, slots=True)
class _FixedRateTimes:
    """``prepare`` of a measure with one rate fixed: unit-rate
    exponentials, then the fixed process divided by its rate, in place."""

    fixed: int
    rate: float

    def __call__(self, u: np.ndarray) -> None:
        v = _unit_exponentials(u)[..., self.fixed, :]
        np.divide(v, self.rate, out=v)


@dataclass(frozen=True, slots=True)
class _MovedRateMean:
    """``fn`` of a measure with one rate fixed: the mean system time at
    the moved rate ``points[0]`` (a float or one rate per evaluation and
    draw), the fixed process read as its times."""

    moved: int

    def __call__(self, points: list, e: np.ndarray) -> np.ndarray:
        rates = [None, None]
        rates[self.moved] = points[0]
        return _mean_system_time(rates, e)


def _transient_measure(params: QueueParams, target: str | None = None) -> BatchedFunction:
    """The transient measure as a batched function: a (2, k) uniform
    block per evaluation, turned into unit-rate exponentials once per
    draw; rates must stay positive.

    Without a ``target`` the point is (arrival rate, service rate).  With
    one it is (the target's rate,): the other rate is fixed, so the draw
    also divides the other process by it, once, and the block holds that
    process's times.  Its two callables are frozen values rather than
    closures, so oracles on equal settings compare equal and pickle."""
    rates = (params.arrival_rate, params.service_rate)
    shape = (2, params.num_customers)
    if target is None:
        return BatchedFunction(rates, shape, _mean_system_time, _unit_exponentials,
                               positive=True)
    moved = _TARGETS.index(target)
    return BatchedFunction((rates[moved],), shape, _MovedRateMean(moved),
                           _FixedRateTimes(1 - moved, rates[1 - moved]), positive=True)


@dataclass(frozen=True, init=False)
class MM1DerivativeOracle(FiniteDifferenceOracle):
    """Central-difference oracle for one rate derivative of the transient
    measure; bias order q1 = 2, noise order q2 = 1.

    Each draw runs the queue at rate + delta and rate - delta from a
    block of shape (n, 2, 2, k), indexed by draw, evaluation slot
    (+delta first), then process (arrivals, services).  With ``crn`` the
    two runs share slot 0 (variance reduction) and slot 1 keeps its
    uniforms; by default they are independent.  In a slot that is read,
    the target's process holds unit-rate exponentials and the other
    process holds its times at its fixed rate, divided once per draw for
    every evaluation the draw feeds.  The batched function is the
    measure of the target's rate alone, so ``function.x`` is that rate
    and ``coord`` is 0.
    """

    params: QueueParams
    target: str

    def __init__(self, params: QueueParams, target: str = "arrival",
                 crn: bool = False) -> None:
        if target not in _TARGETS:
            raise ValueError(f"target must be 'arrival' or 'service', got {target!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "target", target)
        super().__init__(_transient_measure(params, target), "cfd", 0, crn)


@dataclass(frozen=True, init=False)
class MM1GradientOracleSP(FiniteDifferenceOracle):
    """Simultaneous-perturbation gradient oracle over (arrival, service):
    both rates move +-delta along a random +-1 direction and the same two
    replications feed every gradient component; q1 = 2, q2 = 1.

    Row j of the (n, 2 + 4 k) block holds the +-1 direction (drawn as
    two uniforms), then the (+) replication's arrival and service
    columns, then the (-) replication's.
    """

    params: QueueParams

    def __init__(self, params: QueueParams) -> None:
        object.__setattr__(self, "params", params)
        super().__init__(_transient_measure(params), "sp")
