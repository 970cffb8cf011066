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
streams.  How a stream becomes samples is the `SampleOracle` contract,
which both oracles inherit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import count, positive

__all__ = [
    "StreamKey",
    "BiasOrder",
    "SyntheticOracleSpec",
    "SampleOracle",
    "BatchedFunction",
    "FiniteDifferenceOracle",
]


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
        object.__setattr__(self, "seed",
                           count(self.seed, "seed must lie in [0, 2**64)", 0, 2**64))
        object.__setattr__(self, "path", tuple(
            count(i, "path entries must be non-negative integers") for i in self.path))

    def child(self, *indices: int) -> "StreamKey":
        """Key for the sub-stream at ``path + indices``."""
        return StreamKey(self.seed, self.path + indices)

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
        positive(self.q1, "q1 must be positive and finite")
        positive(self.q2, "q2 must be positive and finite")

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


def _power(d: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """``d**q`` written into ``out``: the in-place ``**=`` takes the same
    scalar-power route (square, sqrt, reciprocal or pow) as ``d**q``, so
    the bits are the same."""
    np.copyto(out, d)
    out **= q
    return out


class _Prepared:
    """An oracle's map from variate blocks to samples at one checked
    ``deltas`` vector, made by the oracle's ``prepare``.  Every schedule
    must be 1-d and strictly positive; the oracle's ``_constants`` then
    checks what its own map needs and computes once from the deltas what
    ``_map`` is passed in their place."""

    __slots__ = ("oracle", "deltas", "constants")

    def __init__(self, oracle, deltas) -> None:
        self.oracle = oracle
        self.deltas = _positive_deltas(deltas)
        self.constants = oracle._constants(self.deltas)

    def transform(self, block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (n, dim) samples from a block made by the oracle's
        ``draw``, written into ``out`` (any memory layout) when given and
        allocated when omitted.  The block is not modified."""
        oracle, n = self.oracle, self.deltas.shape[0]
        shape = oracle._block_shape(n)
        if block.shape != shape:
            raise ValueError(f"variate block has shape {block.shape}, expected {shape}")
        out = np.empty((n, oracle.dim)) if out is None else out
        return oracle._map(self.constants, block, out)


@runtime_checkable
class SampleOracle(Protocol):
    """The sampling contract that the estimators and the paired harness
    call: draw a variate block from a stream, then map it through a
    checked delta schedule.

    ``draw(n, stream)`` returns the variate block of an n-draw path.  Its
    values are a C-order fill of the stream, row j feeding draw j, so a
    path's prefix is reproducible; its memory layout is the oracle's own
    (draw-fastest for a finite-difference oracle), and a map gives the
    same bytes from a C-contiguous copy.  ``prepare(deltas)`` checks a
    schedule once, raising its validation errors, and returns the map:
    ``prepared.transform(block, out)`` raises those of the block and
    writes the (n, dim) samples into ``out`` (any memory layout),
    allocated when omitted; no map modifies the block, and a map that
    needs working memory beyond ``out`` allocates it per call.  The
    harness prepares each schedule once per run, shares the prepared
    maps among its worker threads, draws a block once per (replication,
    budget) cell and replays it through every prepared schedule into one
    samples buffer it reuses; the single-run estimators call
    ``sample_path``.

    An explicit subclass inherits ``prepare``, ``sample_path`` and
    ``sample``, which compose the map bit for bit and check that every
    schedule is 1-d and strictly positive, and defines ``dim``, ``draw``
    and three hooks: ``_block_shape(n)`` returns the shape of an n-draw
    block, ``_constants(deltas)`` raises the oracle's own schedule errors
    and returns what the map needs that depends on the checked schedule
    alone (the deltas themselves, or read-only arrays that ``prepare``
    computes once from them), and ``_map(constants, block, out)`` is the
    map, given those constants in place of the deltas, the output buffer
    and a block of that shape.
    """

    @property
    def dim(self) -> int: ...

    def draw(self, n: int, stream: StreamKey) -> np.ndarray: ...

    def prepare(self, deltas) -> _Prepared:
        """The map from variate blocks to samples at ``deltas``, checked
        once."""
        return _Prepared(self, deltas)

    def sample_path(self, deltas, stream: StreamKey) -> np.ndarray:
        """One sample per entry of ``deltas`` from a single stream, shape
        (n, dim): ``prepare(deltas).transform(draw(len(deltas), stream))``,
        with the schedule checked before anything is drawn."""
        prepared = self.prepare(deltas)
        return prepared.transform(self.draw(prepared.deltas.shape[0], stream))

    def sample(self, delta: float, stream: StreamKey) -> np.ndarray:
        """Single draw at perturbation size delta."""
        return self.sample_path(np.asarray([float(delta)]), stream)[0]


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class SyntheticOracleSpec(SampleOracle):
    """Fully specified synthetic oracle: every constant of the model is
    explicit, so a plan's exact risk on it is known (`LinearPlan.mse`).

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

    def _block_shape(self, n: int) -> tuple[int, int]:
        return (n, self.dim)

    def _constants(self, deltas) -> tuple[np.ndarray, np.ndarray]:
        """The (n, 1) divisor ``delta**q2`` and the (n, dim) means, both
        read-only.  At q2 = 1 the divisor is a view of ``deltas``, since
        ``d**1.0`` is ``d`` bit for bit; this keeps a prepared map to one
        n-vector beyond its schedule in one coordinate."""
        d = deltas[:, None]
        q2 = self.order.q2
        divisor = d if q2 == 1.0 else _power(d, q2, np.empty(d.shape))
        means = self._means(d, np.empty(d.shape))
        for arr in (divisor, means):
            arr.setflags(write=False)
        return divisor, means

    def _map(self, constants, z, out) -> np.ndarray:
        """``means + (noise_scale * z) / delta**q2`` into ``out``, one
        rounding per operation of that expression, as the out-of-place
        form rounds; the divisor and the means come from ``_constants``,
        so nothing else is allocated."""
        divisor, means = constants
        np.multiply(self.noise_scale, z, out=out)
        out /= divisor
        out += means
        return out


@dataclass(frozen=True)
class BatchedFunction:
    """A noisy function evaluated at many points at once, one block of
    variates per evaluation.

    ``fn(points, variates)`` returns shape (e, n), checked: ``variates``
    has shape (e, n, *shape), entry (i, j) driving evaluation i of draw
    j; a finite-difference oracle passes both points of a difference in
    one call, e = 2.  The variates may be strided views (the evaluation
    axis has stride 0 under common random numbers) that ``fn`` must not
    write to.  ``points`` holds one entry per coordinate of ``x``: the
    coordinate as a float, or an (e, n) array where an oracle perturbs
    it per evaluation and draw.  A function written for one evaluation
    reads ``variates[..., i]`` for ``variates[:, i]`` and returns shape
    ``variates.shape[:2]``.
    ``prepare``, if given, turns uniforms on [0, 1) into the variates
    ``fn`` reads, in place and elementwise (inverse-transform sampling,
    say); it runs once per draw, on the slots the oracle reads and in
    the block's memory layout, however many schedules the block serves.
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


# rows of the C-order buffer a finite-difference draw fills its block
# through: a few hundred rows keep it in cache and off the peak RSS
_FILL_ROWS = 256

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
class FiniteDifferenceOracle(SampleOracle):
    """Finite-difference oracle over a batched noisy function.

    Draw j evaluates ``function`` twice, at x + s0 delta_j v and at
    x + s1 delta_j v, and returns (f_0 - f_1) / ((s0 - s1) delta_j v);
    a map makes one ``fn`` call for both evaluations of every draw:

    * cfd: (f(x + delta e) - f(x - delta e)) / (2 delta), q1 = 2;
    * ffd: (f(x + delta e) - f(x)) / delta, q1 = 1;
    * bfd: (f(x) - f(x - delta e)) / delta, q1 = 1;
    * sp: (f(x + delta h) - f(x - delta h)) / (2 delta h_i) for every
      coordinate i at once, with h a drawn +-1 direction, q1 = 2;

    with e the ``coord`` unit vector (ignored under sp) and noise order
    q2 = 1 throughout.  Under ``crn`` both evaluations read the variates
    of slot 0, so their noise is common; by default they are
    independent.  The call's variates are a view of the block with the
    evaluation slot moved first (stride 0 under ``crn``), and its moved
    coordinates are (2, n) arrays: x + step, x - step or a copy of x per
    evaluation, one rounding each, so every sign of zero is kept.

    A draw row holds, in order: p direction uniforms (sp only, with p the
    dimension of x, turned into +-1 by u < 0.5 -> -1), then one variate
    block of ``function.shape`` per evaluation slot, slot 0 feeding the
    first-named evaluation; under ``crn`` slot 1 is never read and keeps
    its uniforms.  The sp block is (n, p + 2 m) with m the size of one
    variate block; the others are (n, 2, *shape).  The block's values
    are ``generator.random(shape)``'s, a C-order fill, so row j feeds
    draw j and a path's prefix is reproducible; its memory layout is
    draw-fastest (the transpose of a C-contiguous array), so the n draws
    of each variate are contiguous for ``function`` to read.
    """

    function: BatchedFunction
    scheme: str = "cfd"
    coord: int = 0
    crn: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(_SCHEMES)}, got {self.scheme!r}")
        if isinstance(self.coord, bool) or not isinstance(self.coord, (int, np.integer)):
            raise ValueError(f"coord must be an integer, got {self.coord!r}")
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

    def _constants(self, deltas) -> np.ndarray:
        """The map reads the checked deltas themselves, which must stay
        below the moved coordinates of a positive function when a scheme
        steps down."""
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
        the class docstring; row j feeds draw j.  The stream fills a small
        C-order row buffer at a time, which is copied into the
        draw-fastest block."""
        n, p = int(n), self._directions
        shape = self._block_shape(n)
        block = np.empty(shape[::-1]).T
        gen = stream.generator()
        chunk = np.empty((min(n, _FILL_ROWS), *shape[1:]))
        for lo in range(0, n, _FILL_ROWS):
            rows = chunk[:n - lo]
            block[lo:lo + rows.shape[0]] = gen.random(out=rows)
        if p:
            block[:, :p] = np.where(block[:, :p] < 0.5, -1.0, 1.0)
        if self.function.prepare is not None:
            # under crn no evaluation reads slot 1, so it keeps its uniforms
            slots = block[:, p:].reshape(n, 2, *self.function.shape)
            self.function.prepare(slots[:, 0] if self.crn else slots)
        return block

    def _map(self, deltas, block, out) -> np.ndarray:
        """(f_0 - f_1) / ((s0 - s1) step) into ``out``, with step the
        deltas column (times the block's directions under sp), from one
        ``fn`` call on both evaluations.  The difference is formed in
        column 0 of ``out``; the (m, 2, n) buffer of the m moved
        coordinates' points then holds the divisor."""
        n, p = deltas.shape[0], self._directions
        slots = block[:, p:].reshape(n, 2, *self.function.shape).swapaxes(0, 1)
        if self.crn:
            slots = np.broadcast_to(slots[:1], slots.shape)
        step = deltas[:, None]
        if p:
            h = block[:, :p]
            if not np.all(np.abs(h) == 1.0):
                raise ValueError("direction columns must hold +1 or -1")
            step = step * h
        s0, s1, _ = _SCHEMES[self.scheme]
        moved = np.empty((step.shape[1], 2, n))
        x = list(self.function.x)
        for k, i in enumerate(self._moved):
            for row, sign in zip(moved[k], (s0, s1)):
                if sign:
                    (np.add if sign > 0 else np.subtract)(x[i], step[:, k], out=row)
                else:
                    row.fill(x[i])
            x[i] = moved[k]
        f = self.function.fn(x, slots)
        if np.shape(f) != slots.shape[:2]:
            raise ValueError(f"fn must return shape {slots.shape[:2]}, got {np.shape(f)}")
        diff = np.subtract(f[0], f[1], out=out[:, 0])
        divisor = np.multiply(s0 - s1, step, out=moved[:, 0].T)
        # under sp the difference is read from the output's own column 0,
        # an overlap numpy resolves by buffering the input
        return np.divide(diff[:, None], divisor, out=out)
