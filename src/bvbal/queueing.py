"""Single-server queue transient simulator and its derivative oracles.

The measure of interest is the expected average system time of the first
``num_customers`` customers of an M/M/1 queue that starts empty and idle.
Waiting times follow the Lindley recursion

    W_1 = 0,    W_j = max(W_{j-1} + S_{j-1} - A_j, 0),

with A_j the j-th interarrival time and S_j the j-th service time; the
j-th system time is T_j = W_j + S_j, and one replication reports
mean(T_1..T_k).

Derivative oracles perturb a rate by +-delta and form a central
difference of two replications, giving a biased-noisy estimate of the
derivative of the transient measure with bias order q1 = 2 and noise
order q2 = 1; the simultaneous-perturbation variant perturbs both rates
along a random +-1 direction and estimates the full gradient from the
same two replications.

All randomness enters through uniform blocks drawn from a StreamKey in
one row-major block per call, so a path's prefix is reproducible and two
oracles sharing a key consume identical variates.  Inverse-transform
sampling (-log1p(-U) / rate) keeps a uniform block's meaning fixed when
only rates change, which is what makes common random numbers and
coupling-based tests exact.  It also lets the oracles' ``draw`` turn the
block into unit-rate exponentials -log1p(-U) once, in place, for every
schedule that ``transform`` then maps it through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracles import StreamKey, _check_block, _positive_deltas

__all__ = [
    "QueueParams",
    "TransientSample",
    "MM1DerivativeOracle",
    "MM1GradientOracleSP",
    "mm1_transient_sample",
    "mm1_derivative_oracle",
    "mm1_gradient_oracle_sp",
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
        if not (self.arrival_rate > 0 and math.isfinite(self.arrival_rate)):
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if not (self.service_rate > 0 and math.isfinite(self.service_rate)):
            raise ValueError(f"service_rate must be positive, got {self.service_rate}")
        if int(self.num_customers) != self.num_customers or self.num_customers < 1:
            raise ValueError(
                f"num_customers must be a positive integer, got {self.num_customers}"
            )
        object.__setattr__(self, "num_customers", int(self.num_customers))


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


def _system_times(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """System times T_1..T_k from interarrival and service times of shape
    (..., k), by the Lindley sweep over the last axis.

    The leading axes hold independent replications, so one call runs many
    perturbed replications.  The first interarrival cannot affect system
    times (the system starts empty).
    """
    k = a.shape[-1]
    times = np.empty_like(s)
    times[..., 0] = s[..., 0]
    wait = np.zeros_like(s[..., 0])
    for j in range(1, k):
        wait = np.maximum(wait + s[..., j - 1] - a[..., j], 0.0)
        times[..., j] = wait + s[..., j]
    return times


def mm1_transient_sample(params: QueueParams, stream: StreamKey) -> TransientSample:
    """One replication of the transient measure from a fresh stream."""
    k = params.num_customers
    e = _unit_exponentials(stream.generator().random((2, k)))
    times = _system_times(e[0] / params.arrival_rate, e[1] / params.service_rate)
    return TransientSample(float(times.mean()), times)


def _check_deltas(deltas, limit: float, what: str) -> np.ndarray:
    deltas = _positive_deltas(deltas)
    if not np.all(deltas < limit):
        raise ValueError(
            f"delta must stay below the {what} ({limit!r}); a perturbed rate "
            "would not be positive"
        )
    return deltas


@dataclass(frozen=True, slots=True)
class MM1DerivativeOracle:
    """Central-difference oracle for one rate derivative of the transient
    measure; bias order q1 = 2, noise order q2 = 1.

    Each draw runs the queue at rate + delta and rate - delta.  With
    ``crn`` the two runs share their uniform block (variance reduction);
    by default they are independent.
    """

    params: QueueParams
    target: str = "arrival"
    crn: bool = False

    def __post_init__(self) -> None:
        if self.target not in ("arrival", "service"):
            raise ValueError(f"target must be 'arrival' or 'service', got {self.target!r}")

    @property
    def dim(self) -> int:
        return 1

    def _checked(self, deltas) -> np.ndarray:
        rate = (self.params.arrival_rate if self.target == "arrival"
                else self.params.service_rate)
        return _check_deltas(deltas, rate, f"{self.target} rate")

    def draw(self, n: int, stream: StreamKey) -> np.ndarray:
        """The variate block of an n-draw path: one row-major uniform
        block of shape (n, 2, 2, k), indexed by draw, evaluation slot
        (+delta first), then process (arrivals, services), turned in
        place into unit-rate exponentials."""
        k = self.params.num_customers
        return _unit_exponentials(stream.generator().random((int(n), 2, 2, k)))

    def transform(self, deltas, e: np.ndarray) -> np.ndarray:
        """Central differences at ``deltas`` from a block made by `draw`;
        the block is not modified.  With ``crn`` both evaluations read
        slot 0."""
        deltas = self._checked(deltas)
        _check_block(e, (deltas.shape[0], 2, 2, self.params.num_customers))
        d = deltas[:, None]
        lam, mu = self.params.arrival_rate, self.params.service_rate
        up, down = e[:, 0], e[:, 0 if self.crn else 1]
        if self.target == "arrival":
            t_up = _system_times(up[:, 0] / (lam + d), up[:, 1] / mu)
            t_down = _system_times(down[:, 0] / (lam - d), down[:, 1] / mu)
        else:
            t_up = _system_times(up[:, 0] / lam, up[:, 1] / (mu + d))
            t_down = _system_times(down[:, 0] / lam, down[:, 1] / (mu - d))
        value = (t_up.mean(axis=-1) - t_down.mean(axis=-1)) / (2.0 * deltas)
        return value[:, None]

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray:
        """One central-difference draw per delta; draw j consumes row j of
        the block described in `draw`.  The composition of `draw` and
        `transform`."""
        deltas = self._checked(deltas)
        return self.transform(deltas, self.draw(deltas.shape[0], stream))

    def sample(self, delta: float, stream: StreamKey) -> np.ndarray:
        return self.sample_path(np.asarray([float(delta)]), stream)[0]


def mm1_derivative_oracle(params: QueueParams, target: str, delta: float,
                          stream: StreamKey, crn: bool = False) -> float:
    """One central-difference draw of d(transient measure)/d(rate)."""
    oracle = MM1DerivativeOracle(params=params, target=target, crn=crn)
    return float(oracle.sample(delta, stream)[0])


@dataclass(frozen=True, slots=True)
class MM1GradientOracleSP:
    """Simultaneous-perturbation gradient oracle over (arrival, service):
    both rates move +-delta along a random +-1 direction and the same two
    replications feed every gradient component; q1 = 2, q2 = 1."""

    params: QueueParams

    @property
    def dim(self) -> int:
        return 2

    def _checked(self, deltas) -> np.ndarray:
        limit = min(self.params.arrival_rate, self.params.service_rate)
        return _check_deltas(deltas, limit, "smaller rate")

    def draw(self, n: int, stream: StreamKey) -> np.ndarray:
        """The variate block of an n-draw path: one uniform block of shape
        (n, 2 + 4 k), row j feeding draw j.  Its first two columns become
        the +-1 direction h (from the raw uniforms); the rest, the (+)
        replication's arrival and service columns then the (-)
        replication's, become unit-rate exponentials in place."""
        k = self.params.num_customers
        block = stream.generator().random((int(n), 2 + 4 * k))
        block[:, :2] = np.where(block[:, :2] < 0.5, -1.0, 1.0)
        _unit_exponentials(block[:, 2:])
        return block

    def transform(self, deltas, block: np.ndarray) -> np.ndarray:
        """Gradient estimates at ``deltas`` from a block made by `draw`;
        the block is not modified."""
        deltas = self._checked(deltas)
        n = deltas.shape[0]
        k = self.params.num_customers
        _check_block(block, (n, 2 + 4 * k))
        h = block[:, :2]
        e = block[:, 2:].reshape(n, 2, 2, k)
        lam, mu = self.params.arrival_rate, self.params.service_rate
        dh = deltas[:, None] * h
        up = _system_times(e[:, 0, 0] / (lam + dh[:, :1]), e[:, 0, 1] / (mu + dh[:, 1:]))
        down = _system_times(e[:, 1, 0] / (lam - dh[:, :1]), e[:, 1, 1] / (mu - dh[:, 1:]))
        diff = up.mean(axis=-1) - down.mean(axis=-1)
        return diff[:, None] / (2.0 * dh)

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray:
        """Draw j consumes row j of the block described in `draw`; the
        composition of `draw` and `transform`."""
        deltas = self._checked(deltas)
        return self.transform(deltas, self.draw(deltas.shape[0], stream))

    def sample(self, delta: float, stream: StreamKey) -> np.ndarray:
        return self.sample_path(np.asarray([float(delta)]), stream)[0]


def mm1_gradient_oracle_sp(params: QueueParams, delta: float,
                           stream: StreamKey) -> np.ndarray:
    """One simultaneous-perturbation draw of the transient measure's
    gradient with respect to (arrival_rate, service_rate)."""
    return MM1GradientOracleSP(params=params).sample(delta, stream)
