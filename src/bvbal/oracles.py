"""Simulation oracles that trade bias against noise through one dial.

Every oracle here produces estimates of an unknown target theta whose
error splits into a deterministic bias term growing like delta**q1 and a
noise term blowing up like 1/delta**q2 as the perturbation size delta
shrinks:

    sample(delta) = theta + B * delta**q1 + (higher order)
                    + noise(delta) / delta**q2.

The synthetic oracle exposes (theta, B, noise scale, orders) directly and
is the ground truth for everything downstream.  `FiniteDifferenceOracle`
realizes the same structure on top of a black-box noisy function
evaluated in batches (`BatchedFunction`): central differences and
simultaneous perturbation carry q1 = 2 (third-derivative bias),
one-sided differences carry q1 = 1, and all of them carry q2 = 1.  The
M/M/1 derivative oracles in `bvbal.queueing` are this oracle over the
queue's transient measure.

Randomness is purely functional.  Sampling operations take a `StreamKey`,
an immutable address into a seeded tree of generators; calling twice with
the same key is bit-identical, and distinct keys yield independent
streams.

Every oracle splits ``sample_path`` into ``draw``, which turns a stream
into a variate block, and a deterministic map from (deltas, block) to
samples that leaves the block unchanged.  ``prepare(deltas)`` checks a
schedule once and returns that map; ``transform`` and ``sample_path``
go through it.  Paired experiments draw a block once and replay it
through every prepared schedule, into buffers they reuse.  A
finite-difference block has a fixed layout: row j feeds draw j and holds
the sp direction uniforms (if any), then one variate block per
evaluation slot, slot 0 for the first-named evaluation.  Common random
numbers are a matter of both evaluations reading slot 0.
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
    "SampleOracle",
    "BatchedFunction",
    "FiniteDifferenceOracle",
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


def _power(d: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """``d**q`` written into ``out``: the in-place ``**=`` takes the same
    scalar-power route (square, sqrt, reciprocal or pow) as ``d**q``, so
    the bits are the same."""
    np.copyto(out, d)
    out **= q
    return out


class _Prepared:
    """An oracle's map from variate blocks to samples at one checked
    ``deltas`` vector, made by the oracle's ``prepare``."""

    __slots__ = ("oracle", "deltas")

    def __init__(self, oracle, deltas: np.ndarray) -> None:
        self.oracle = oracle
        self.deltas = deltas

    def transform(self, block: np.ndarray, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
        """The (n, dim) samples from a block made by the oracle's
        ``draw``, written into ``out`` (any memory layout) when given.
        ``scratch``, a 1-d buffer of at least n dim floats, may be
        overwritten; either buffer is allocated when omitted.  The block
        is not modified."""
        return self.oracle._map(self.deltas, block, out, scratch)


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
        return self._means(np.array([[delta]]), np.empty((1, 1)))[0]

    def _means(self, d: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Means at the perturbation sizes of column ``d``, shape (n, 1),
        as (n, dim); the one expression behind both `mean` and
        `transform`, so a noiseless draw equals its mean bit for bit.
        ``col``, an (n, 1) buffer, is overwritten; with one coordinate and
        no higher-order term it holds the result."""
        q1 = self.order.q1
        m = np.multiply(self.B, _power(d, q1, col), out=col if self.dim == 1 else None)
        m += self.theta
        if self.higher_order_bias is not None:
            m += self.higher_order_bias * d ** (q1 + 1.0)
        return m

    def draw(self, n: int, stream: StreamKey) -> np.ndarray:
        """The variate block of an n-draw path: standard normals of shape
        (n, dim), row j feeding draw j."""
        return stream.generator().standard_normal((int(n), self.dim))

    def prepare(self, deltas) -> _Prepared:
        """The map from variate blocks to samples at ``deltas``, checked
        once (all strictly positive, 1-d)."""
        return _Prepared(self, _positive_deltas(deltas))

    def _map(self, deltas, z, out, scratch) -> np.ndarray:
        """``means + (noise_scale * z) / delta**q2`` into ``out``, one
        rounding per operation of that expression, as the out-of-place
        form rounds; the powers of delta go to ``scratch``."""
        d = deltas[:, None]
        n = d.shape[0]
        _check_block(z, (n, self.dim))
        out = np.empty(z.shape) if out is None else out
        col = np.empty((n, 1)) if scratch is None else scratch[:n, None]
        np.multiply(self.noise_scale, z, out=out)
        out /= _power(d, self.order.q2, col)
        out += self._means(d, col)
        return out

    def transform(self, deltas, z: np.ndarray) -> np.ndarray:
        """Samples at ``deltas`` from a variate block ``z`` made by
        `draw`; ``z`` is not modified, so one block can be replayed
        through several schedules."""
        return self.prepare(deltas).transform(z)

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
        prepared = self.prepare(deltas)
        return prepared.transform(self.draw(prepared.deltas.shape[0], stream))

    def sample(self, delta: float, stream: StreamKey) -> np.ndarray:
        """Single draw at perturbation size delta."""
        return self.sample_path(np.asarray([float(delta)]), stream)[0]


@runtime_checkable
class SampleOracle(Protocol):
    """What the estimators and the paired harness call.

    The single-run estimators call ``sample_path``, and one-off callers
    ``transform(deltas, block)``; both go through ``prepare``.  The
    harness calls ``prepare`` once per schedule, draws a variate block
    once per (replication, budget) cell with ``draw``, and maps it
    through every prepared schedule with ``prepared.transform(block,
    out, scratch)``, which writes the (n, dim) samples into ``out`` (any
    memory layout) and may overwrite ``scratch``, a 1-d buffer of at
    least n dim floats; either may be omitted, and is then allocated.
    ``sample_path(deltas, stream)`` equals
    ``transform(deltas, draw(len(deltas), stream))`` and
    ``prepare(deltas).transform(block)`` equals
    ``transform(deltas, block)``, bit for bit; no map modifies the
    block.  ``prepare`` raises the deltas' validation errors, and the
    map raises those of the block.
    """

    @property
    def dim(self) -> int: ...

    def draw(self, n: int, stream: StreamKey) -> np.ndarray: ...

    def prepare(self, deltas): ...

    def transform(self, deltas, block: np.ndarray) -> np.ndarray: ...

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray: ...


@dataclass(frozen=True)
class BatchedFunction:
    """A noisy function evaluated at many points at once, one row of
    variates per evaluation.

    ``fn(points, variates)`` returns shape (n,).  ``variates`` has shape
    (n, *shape), row j driving evaluation j.  ``points`` holds one entry
    per coordinate of the base point ``x``: the coordinate itself as a
    float, or an (n, 1) column where an oracle perturbs it row by row.
    ``prepare``, if given, turns a block of uniforms on [0, 1) into the
    variates ``fn`` reads, in place (inverse-transform sampling, say); it
    runs once per draw, however many schedules the block then serves.
    ``positive`` declares that every coordinate of an evaluated point
    must stay strictly positive (rates, scales).
    """

    x: tuple[float, ...]
    shape: tuple[int, ...]
    fn: Callable[[list, np.ndarray], np.ndarray]
    prepare: Callable[[np.ndarray], object] | None = None
    positive: bool = False

    def __post_init__(self) -> None:
        x = _as_vector(self.x, "x")
        if self.positive and not np.all(x > 0):
            raise ValueError(f"x must be positive, got {x}")
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if not all(s >= 1 for s in shape):
            raise ValueError(f"variate shape must be positive, got {shape}")
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "shape", shape)


# scheme -> (sign of evaluation 0, sign of evaluation 1, bias order): draw
# j evaluates at x + sign * delta_j * v for a coordinate direction v
# (or the drawn +-1 direction under sp).  The symmetric schemes cancel
# the second-derivative Taylor term, leaving O(delta**2) bias; one-sided
# differences keep it, so their bias is O(delta)
_SCHEMES = {
    "cfd": (1.0, -1.0, BiasOrder(2.0, 1.0)),
    "ffd": (1.0, 0.0, BiasOrder(1.0, 1.0)),
    "bfd": (0.0, -1.0, BiasOrder(1.0, 1.0)),
    "sp": (1.0, -1.0, BiasOrder(2.0, 1.0)),
}


@dataclass(frozen=True)
class FiniteDifferenceOracle:
    """Finite-difference oracle over a batched noisy function.

    Draw j evaluates ``function`` twice, at x + s0 delta_j v and at
    x + s1 delta_j v, and returns (f_0 - f_1) / ((s0 - s1) delta_j v):

    * cfd: (f(x + delta e) - f(x - delta e)) / (2 delta), q1 = 2;
    * ffd: (f(x + delta e) - f(x)) / delta, q1 = 1;
    * bfd: (f(x) - f(x - delta e)) / delta, q1 = 1;
    * sp: (f(x + delta h) - f(x - delta h)) / (2 delta h_i) for every
      coordinate i at once, with h a drawn +-1 direction, q1 = 2;

    with e the ``coord`` unit vector (ignored under sp) and noise order
    q2 = 1 throughout.  Under ``crn`` both evaluations read the variates
    of slot 0, so their noise is common; by default they are
    independent.

    A draw row holds, in order: p direction uniforms (sp only, with p the
    dimension of x, turned into +-1 by u < 0.5 -> -1), then one variate
    block of ``function.shape`` per evaluation slot, slot 0 feeding the
    first-named evaluation.  The sp block is (n, p + 2 m) with m the size
    of one variate block; the others are (n, 2, *shape).
    """

    function: BatchedFunction
    scheme: str = "cfd"
    coord: int = 0
    crn: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(_SCHEMES)}, got {self.scheme!r}")
        if not 0 <= self.coord < len(self.function.x):
            raise ValueError(
                f"coord {self.coord} out of range for dimension {len(self.function.x)}"
            )

    @property
    def order(self) -> BiasOrder:
        return _SCHEMES[self.scheme][2]

    @property
    def dim(self) -> int:
        return len(self.function.x) if self.scheme == "sp" else 1

    @property
    def _moved(self) -> tuple[int, ...]:
        """The coordinates a draw perturbs, in output order."""
        return tuple(range(self.dim)) if self.scheme == "sp" else (self.coord,)

    @property
    def _directions(self) -> int:
        return self.dim if self.scheme == "sp" else 0

    def _block_shape(self, n: int) -> tuple[int, ...]:
        p, shape = self._directions, self.function.shape
        return (n, p + 2 * math.prod(shape)) if p else (n, 2, *shape)

    def _checked(self, deltas) -> np.ndarray:
        deltas = _positive_deltas(deltas)
        s0, s1, _ = _SCHEMES[self.scheme]
        if self.function.positive and min(s0, s1) < 0:
            limit = min(self.function.x[i] for i in self._moved)
            if not np.all(deltas < limit):
                raise ValueError(
                    f"delta must stay below {limit!r}; a perturbed coordinate "
                    "would not be positive"
                )
        return deltas

    def draw(self, n: int, stream: StreamKey) -> np.ndarray:
        """The variate block of an n-draw path, laid out as described in
        the class docstring; row j feeds draw j."""
        p = self._directions
        block = stream.generator().random(self._block_shape(int(n)))
        if p:
            block[:, :p] = np.where(block[:, :p] < 0.5, -1.0, 1.0)
        if self.function.prepare is not None:
            self.function.prepare(block[:, p:])
        return block

    def prepare(self, deltas) -> _Prepared:
        """The map from variate blocks to differences at ``deltas``,
        checked once (all strictly positive, 1-d, and below the moved
        coordinates of a positive function when a scheme steps down)."""
        return _Prepared(self, self._checked(deltas))

    def _evaluate(self, sign: float, step: np.ndarray, moved: np.ndarray,
                  variates: np.ndarray) -> np.ndarray:
        """``function`` at x + sign * step: column k of ``step`` moves
        coordinate ``_moved[k]``, written as an (n, 1) column into row k
        of ``moved``."""
        x = list(self.function.x)
        if sign:
            shift = np.add if sign > 0 else np.subtract
            for k, i in enumerate(self._moved):
                x[i] = shift(x[i], step[:, k:k + 1], out=moved[k, :, None])
        return self.function.fn(x, variates)

    def _map(self, deltas, block, out, scratch) -> np.ndarray:
        """(f_0 - f_1) / ((s0 - s1) step) into ``out``, with step the
        deltas column (times the block's directions under sp).  The
        difference is formed in column 0 of ``out``; ``scratch`` holds
        the moved coordinates of one evaluation point at a time, then
        the divisor."""
        n, p = deltas.shape[0], self._directions
        _check_block(block, self._block_shape(n))
        slots = block[:, p:].reshape(n, 2, *self.function.shape)
        step = deltas[:, None]
        if p:
            h = block[:, :p]
            if not np.all(np.abs(h) == 1.0):
                raise ValueError("direction columns must hold +1 or -1")
            step = step * h
        m = step.shape[1]
        out = np.empty((n, m)) if out is None else out
        moved = (np.empty(m * n) if scratch is None else scratch[:m * n]).reshape(m, n)
        s0, s1, _ = _SCHEMES[self.scheme]
        diff = out[:, 0]
        diff[...] = self._evaluate(s0, step, moved, slots[:, 0])
        diff -= self._evaluate(s1, step, moved, slots[:, 0 if self.crn else 1])
        divisor = np.multiply(s0 - s1, step, out=moved.T)
        # under sp the difference is read from the output's own column 0,
        # an overlap numpy resolves by buffering the input
        return np.divide(diff[:, None], divisor, out=out)

    def transform(self, deltas, block: np.ndarray) -> np.ndarray:
        """Differences at ``deltas`` from a block made by `draw`, shape
        (n, dim); the block is not modified."""
        return self.prepare(deltas).transform(block)

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray:
        """One difference per delta; draw j consumes row j of the block
        described in the class docstring, so prefixes of a path are
        reproducible.  The composition of `draw` and `transform`."""
        prepared = self.prepare(deltas)
        return prepared.transform(self.draw(prepared.deltas.shape[0], stream))

    def sample(self, delta: float, stream: StreamKey) -> np.ndarray:
        """Single draw at perturbation size delta."""
        return self.sample_path(np.asarray([float(delta)]), stream)[0]
