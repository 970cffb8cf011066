"""Single-server queue transient simulator and its derivative oracles.

The measure of interest is the expected average system time of the first
``num_customers`` customers of an M/M/1 queue that starts empty and idle.
Waiting times follow the Lindley recursion

    W_1 = 0,    W_j = max(W_{j-1} + S_{j-1} - A_j, 0),

with A_j the j-th interarrival time and S_j the j-th service time; the
j-th system time is T_j = W_j + S_j, and one replication reports
mean(T_1..T_k).  The sweep runs customer-major: every replication of an
evaluation advances together along contiguous (customer, replication)
rows, in place.  The mean over customers is an explicit in-order row
sum, T_1 + T_2 + ... + T_k, divided by k, so a replication's mean does
not depend on the block's layout or on how many replications share the
sweep.  A single replication is the one-column case of the same sweep.

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
consume identical variates; a draw-fastest block makes the n draws of
each (slot, process, customer) variate the contiguous row the sweep
reads.  Inverse-transform sampling (-log1p(-U) / rate) keeps a uniform
block's meaning fixed when only rates change, which is what makes common
random numbers and coupling-based tests exact.  It also lets ``draw``
turn the block into unit-rate exponentials -log1p(-U) once, in place,
for every schedule it is then mapped through.  A central-difference draw
goes one step further: the rate it never moves is fixed, so the draw
divides that process by it once, and each evaluation divides only the
moved process by its perturbed rate.
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


def _system_times(rates: list, e: np.ndarray) -> np.ndarray:
    """System times T_1..T_k, customer-major: row j of the (k, n) result
    holds customer j + 1 of every replication.

    ``e`` has shape (n, 2, k), one replication per row (arrivals, then
    services), and ``rates`` = (arrival, service), each a float, an
    (n, 1) column or None.  A process with a rate holds unit-rate
    exponentials and is divided by its rate straight into a contiguous
    (k, n) buffer; one with None already holds its times and is read in
    place (services) or copied (arrivals, whose buffer becomes the system
    times).  From a draw-fastest block each source row is contiguous
    too, so the Lindley sweep steps along contiguous rows in place, and
    ``e`` is never modified.  Each step is
    T_j = max(T_{j-1} - A_j, 0) + S_j, three row operations: the
    recursion's W_{j-1} + S_{j-1} is T_{j-1}, already rounded into row
    j - 1, so the step is the recursion's bit for bit.  The first
    interarrival cannot affect system times (the system starts empty).
    """
    n, _, k = e.shape
    a, s = e[:, 0].T, e[:, 1].T
    if rates[0] is None:
        times = a.copy()
    else:
        times = np.divide(a, np.asarray(rates[0]).T, out=np.empty((k, n)))
    if rates[1] is not None:
        s = np.divide(s, np.asarray(rates[1]).T, out=np.empty((k, n)))
    times[0] = s[0]
    for j in range(1, k):
        row = times[j]
        np.subtract(times[j - 1], row, out=row)
        np.maximum(row, 0.0, out=row)
        row += s[j]
    return times


def _customer_mean(t: np.ndarray) -> np.ndarray:
    """Mean over the rows of a customer-major (k, n) block of system
    times, summed in row order into row 0 of ``t``, T_1 first."""
    total = t[0]
    for row in t[1:]:
        total += row
    return total / t.shape[0]


def mm1_transient_sample(params: QueueParams, stream: StreamKey) -> TransientSample:
    """One replication of the transient measure from a fresh stream."""
    e = _unit_exponentials(stream.generator().random((2, params.num_customers)))
    times = _system_times([params.arrival_rate, params.service_rate], e[None])
    per_customer = times[:, 0].copy()
    return TransientSample(float(_customer_mean(times)[0]), per_customer)


def _mean_system_time(rates: list, e: np.ndarray) -> np.ndarray:
    """Average system time of the first k customers, one replication per
    row of ``e`` (shape (n, 2, k): arrivals, then services) at ``rates``
    = (arrival, service), as `_system_times` reads them."""
    return _customer_mean(_system_times(rates, e))


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
    the moved rate ``points[0]``, the fixed process read as its times."""

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
