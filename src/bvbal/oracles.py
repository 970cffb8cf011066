"""Simulation oracles that trade bias against noise through one dial.

Every oracle here produces estimates of an unknown target theta whose
error splits into a deterministic bias term growing like delta**q1 and a
noise term blowing up like 1/delta**q2 as the perturbation size delta
shrinks:

    sample(delta) = theta + B * delta**q1 + (higher order)
                    + noise(delta) / delta**q2.

The synthetic oracle exposes (theta, B, noise scale, orders) directly and
is the ground truth for everything downstream.  The finite-difference and
simultaneous-perturbation oracles realize the same structure on top of
black-box noisy function evaluations: central differences carry q1 = 2
(third-derivative bias), one-sided differences carry q1 = 1, and all of
them carry q2 = 1.

Randomness is purely functional.  Sampling operations take a `StreamKey`,
an immutable address into a seeded tree of generators; calling twice with
the same key is bit-identical, and distinct keys yield independent
streams.  Multi-evaluation oracles split their key into fixed child slots
(documented per function) so that common-random-number coupling is a
matter of handing two evaluations the same slot.

Path oracles (the synthetic model here, the queue oracles in
`bvbal.queueing`) split ``sample_path`` into ``draw``, which turns a
stream into a variate block, and ``transform``, a deterministic map from
(deltas, block) to samples that leaves the block unchanged.  Paired
experiments draw a block once and replay it through every schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "StreamKey",
    "BiasOrder",
    "SyntheticOracleSpec",
    "NoisyFunction",
    "SampleOracle",
    "synthetic_sample",
    "cfd_sample",
    "ffd_sample",
    "bfd_sample",
    "sp_sample",
]

_MAX_SEED = 2**64


@dataclass(frozen=True, slots=True)
class StreamKey:
    """Immutable address of one random stream in a seeded tree.

    Parameters
    ----------
    seed : int
        Root entropy, a non-negative integer below 2**64.
    path : tuple of int, optional
        Position in the tree; ``child(i)`` appends ``i``.  Two keys with
        the same seed but different paths produce independent generators,
        and the mapping key -> generator is stable across processes.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))
        if any(i < 0 for i in self.path):
            raise ValueError(f"path entries must be non-negative, got {self.path}")

    def child(self, *indices: int) -> "StreamKey":
        """Key for the sub-stream at ``path + indices``."""
        return StreamKey(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True, slots=True)
class BiasOrder:
    """Pair of positive exponents (q1, q2): bias O(delta**q1), noise
    O(1/delta**q2) per sample.

    Derived read-only properties give the two constants used everywhere:
    ``alpha`` is the perturbation-decay exponent 1 / (2 (q1 + q2)) that
    balances squared bias against variance under an averaged budget of n
    samples, and ``mse_exponent`` is the resulting optimal mean squared
    error decay rate q1 / (q1 + q2).
    """

    q1: float
    q2: float

    def __post_init__(self) -> None:
        if not (self.q1 > 0 and math.isfinite(self.q1)):
            raise ValueError(f"q1 must be positive and finite, got {self.q1}")
        if not (self.q2 > 0 and math.isfinite(self.q2)):
            raise ValueError(f"q2 must be positive and finite, got {self.q2}")

    @property
    def alpha(self) -> float:
        """Balanced perturbation-decay exponent 1 / (2 (q1 + q2))."""
        return 1.0 / (2.0 * (self.q1 + self.q2))

    @property
    def mse_exponent(self) -> float:
        """Optimal MSE decay exponent q1 / (q1 + q2)."""
        return self.q1 / (self.q1 + self.q2)


def _positive_deltas(deltas) -> np.ndarray:
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise ValueError(f"deltas must be 1-d, got shape {deltas.shape}")
    if not np.all(deltas > 0):
        raise ValueError("all deltas must be strictly positive")
    return deltas


def _check_block(block: np.ndarray, shape: tuple[int, ...]) -> None:
    if block.shape != shape:
        raise ValueError(f"variate block has shape {block.shape}, expected {shape}")


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class SyntheticOracleSpec:
    """Fully specified synthetic oracle: every constant of the model is
    explicit, so closed-form risk predictions are exact for it.

    A draw at perturbation size delta > 0 is

        theta + B * delta**q1 + h * delta**(q1 + 1) + noise_scale * Z / delta**q2

    componentwise, with Z standard normal and h the optional
    ``higher_order_bias`` coefficient (zero when omitted).

    The calibration theory assumes B has a nonzero coordinate and the
    noise scale is not identically zero; degenerate specs (used by tests
    and flagged by the experiment harness) are constructible on purpose,
    see ``degenerate``.
    """

    theta: np.ndarray
    B: np.ndarray
    noise_scale: np.ndarray
    order: BiasOrder
    higher_order_bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        theta = _as_vector(self.theta, "theta")
        B = _as_vector(self.B, "B")
        noise = _as_vector(self.noise_scale, "noise_scale")
        if not (theta.shape == B.shape == noise.shape):
            raise ValueError(
                "theta, B and noise_scale must share one shape, got "
                f"{theta.shape}, {B.shape}, {noise.shape}"
            )
        if np.any(noise < 0):
            raise ValueError(f"noise_scale must be non-negative, got {noise}")
        hob = self.higher_order_bias
        if hob is not None:
            hob = _as_vector(hob, "higher_order_bias")
            if hob.shape != theta.shape:
                raise ValueError(
                    f"higher_order_bias shape {hob.shape} != theta shape {theta.shape}"
                )
            hob.setflags(write=False)
        for name, arr in (("theta", theta), ("B", B), ("noise_scale", noise)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "higher_order_bias", hob)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @property
    def degenerate(self) -> bool:
        """True when the model violates the theory's standing assumptions
        (all-zero bias coefficient or all-zero noise scale)."""
        return bool(np.all(self.B == 0.0) or np.all(self.noise_scale == 0.0))

    def mean(self, delta: float) -> np.ndarray:
        """Exact mean of a draw at perturbation size delta."""
        delta = float(delta)
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return self._means(np.array([[delta]]))[0]

    def _means(self, d: np.ndarray) -> np.ndarray:
        """Means at the perturbation sizes of column ``d``, shape (n, 1);
        the one expression behind both `mean` and `transform`, so a
        noiseless draw equals its mean bit-for-bit."""
        q1 = self.order.q1
        m = self.theta + self.B * d**q1
        if self.higher_order_bias is not None:
            m = m + self.higher_order_bias * d ** (q1 + 1.0)
        return m

    def draw(self, n: int, stream: StreamKey) -> np.ndarray:
        """The variate block of an n-draw path: standard normals of shape
        (n, dim), row j feeding draw j."""
        return stream.generator().standard_normal((int(n), self.dim))

    def transform(self, deltas, z: np.ndarray) -> np.ndarray:
        """Samples at ``deltas`` from a variate block ``z`` made by
        `draw`; ``z`` is not modified, so one block can be replayed
        through several schedules."""
        deltas = _positive_deltas(deltas)
        _check_block(z, (deltas.shape[0], self.dim))
        d = deltas[:, None]
        return self._means(d) + (self.noise_scale * z) / d**self.order.q2

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray:
        """Draw one sample per entry of ``deltas`` from a single stream;
        the composition of `draw` and `transform`.

        Parameters
        ----------
        deltas : array_like of float, shape (n,)
            Perturbation sizes, all strictly positive.
        stream : StreamKey
            Stream for the whole path; draw j consumes the j-th row of
            standard normals from it, so prefixes of a path are themselves
            reproducible.

        Returns
        -------
        ndarray, shape (n, dim)
        """
        deltas = _positive_deltas(deltas)
        return self.transform(deltas, self.draw(deltas.shape[0], stream))

    def sample(self, delta: float, stream: StreamKey) -> np.ndarray:
        """Single draw at perturbation size delta."""
        return self.sample_path(np.asarray([float(delta)]), stream)[0]


@runtime_checkable
class SampleOracle(Protocol):
    """What the estimators need: a dimension and path sampling."""

    @property
    def dim(self) -> int: ...

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray: ...


def synthetic_sample(spec: SyntheticOracleSpec, delta: float, stream: StreamKey) -> np.ndarray:
    """One draw from a synthetic oracle; see ``SyntheticOracleSpec.sample``."""
    return spec.sample(delta, stream)


@dataclass(frozen=True, slots=True)
class NoisyFunction:
    """A black-box noisy evaluation x -> real, driven by a StreamKey.

    ``fn(x, stream)`` must be deterministic given (x, stream) and should
    consume randomness only through the stream.  ``mean_description`` is a
    human note on what the evaluation estimates (its mean function).
    """

    fn: Callable[[np.ndarray, StreamKey], float]
    mean_description: str = ""

    def __call__(self, x, stream: StreamKey) -> float:
        return float(self.fn(np.asarray(x, dtype=float), stream))


def _check_point(x, coord: int, delta: float) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"x must be a scalar or 1-d point, got shape {x.shape}")
    if not 0 <= coord < x.shape[0]:
        raise ValueError(f"coord {coord} out of range for dimension {x.shape[0]}")
    if not float(delta) > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return x


def cfd_sample(
    f: NoisyFunction, x, coord: int, delta: float, stream: StreamKey, crn: bool = False
) -> float:
    """Central finite difference of a noisy function along one coordinate.

    Returns (f(x + delta e) - f(x - delta e)) / (2 delta) with e the
    ``coord`` unit vector.  Bias order q1 = 2 whenever the mean has a
    nonvanishing third derivative; noise order q2 = 1.

    The upper evaluation uses ``stream.child(0)``; the lower uses
    ``stream.child(1)``, or the same child(0) when ``crn`` is true so both
    evaluations share their random numbers.
    """
    x = _check_point(x, coord, delta)
    e = np.zeros_like(x)
    e[coord] = float(delta)
    up = f(x + e, stream.child(0))
    down = f(x - e, stream.child(0) if crn else stream.child(1))
    return (up - down) / (2.0 * float(delta))


def ffd_sample(
    f: NoisyFunction, x, coord: int, delta: float, stream: StreamKey, crn: bool = False
) -> float:
    """Forward difference (f(x + delta e) - f(x)) / delta; q1 = 1, q2 = 1.

    Child slots as in ``cfd_sample``: perturbed point on child(0), anchor
    point on child(1) (or shared child(0) under ``crn``).
    """
    x = _check_point(x, coord, delta)
    e = np.zeros_like(x)
    e[coord] = float(delta)
    up = f(x + e, stream.child(0))
    anchor = f(x, stream.child(0) if crn else stream.child(1))
    return (up - anchor) / float(delta)


def bfd_sample(
    f: NoisyFunction, x, coord: int, delta: float, stream: StreamKey, crn: bool = False
) -> float:
    """Backward difference (f(x) - f(x - delta e)) / delta; q1 = 1, q2 = 1.

    Anchor point on child(0), lower point on child(1) (or shared child(0)
    under ``crn``).
    """
    x = _check_point(x, coord, delta)
    e = np.zeros_like(x)
    e[coord] = float(delta)
    anchor = f(x, stream.child(0))
    down = f(x - e, stream.child(0) if crn else stream.child(1))
    return (anchor - down) / float(delta)


def sp_sample(
    f: NoisyFunction, x, delta: float, stream: StreamKey, h: np.ndarray | None = None
) -> np.ndarray:
    """Simultaneous-perturbation gradient estimate from two evaluations.

    Draws a Rademacher direction h (independent +-1 coordinates) from
    ``stream.child(0)``, evaluates f at x + delta h on ``stream.child(1)``
    and at x - delta h on ``stream.child(2)``, and returns the vector with
    component i equal to (f(x + delta h) - f(x - delta h)) / (2 delta h_i).
    Bias order q1 = 2, noise order q2 = 1.

    Parameters
    ----------
    h : ndarray of +-1, optional
        Overrides the drawn direction (every coordinate must be +1 or -1);
        intended for exhaustive enumeration in tests.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"x must be a scalar or 1-d point, got shape {x.shape}")
    delta = float(delta)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if h is None:
        u = stream.child(0).generator().random(x.shape[0])
        h = np.where(u < 0.5, -1.0, 1.0)
    else:
        h = np.asarray(h, dtype=float)
        if h.shape != x.shape or not np.all(np.abs(h) == 1.0):
            raise ValueError("h must match x in shape with every entry +1 or -1")
    up = f(x + delta * h, stream.child(1))
    down = f(x - delta * h, stream.child(2))
    return (up - down) / (2.0 * delta * h)
