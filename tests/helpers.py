"""Shared test utilities.

The event-driven queue simulator here is the independent cross-check for
the package's waiting-time recursion: it processes an explicit
arrival/departure event heap and deliberately shares no code with
bvbal.queueing beyond the raw variates.
"""

import heapq

import numpy as np

from bvbal import BiasOrder, StreamKey, SyntheticOracleSpec


def unit_spec(q1=2.0, q2=1.0, theta=0.0, B=1.0, sigma=1.0, hob=None) -> SyntheticOracleSpec:
    """One-dimensional synthetic spec with scalar constants."""
    return SyntheticOracleSpec(
        theta=np.array([float(theta)]),
        B=np.array([float(B)]),
        noise_scale=np.array([float(sigma)]),
        order=BiasOrder(q1, q2),
        higher_order_bias=None if hob is None else np.array([float(hob)]),
    )


def queue_variates(key: StreamKey, k: int, arrival_rate: float, service_rate: float):
    """Interarrival and service times exactly as the queueing module draws
    them from this key: one (2, k) uniform block, inverse transform."""
    u = key.generator().random((2, k))
    return -np.log1p(-u[0]) / arrival_rate, -np.log1p(-u[1]) / service_rate


def event_driven_times(arrivals, services) -> np.ndarray:
    """Per-customer system times of a single-server FIFO queue via an
    explicit event loop (no waiting-time recursion).

    ``arrivals`` are interarrival times, ``services`` service times.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    k = arrivals.shape[0]
    arrive = np.cumsum(arrivals)
    events = [(float(arrive[j]), 0, j) for j in range(k)]  # 0 arrival, 1 departure
    heapq.heapify(events)
    waiting: list[int] = []
    in_service = None
    done = np.empty(k)
    while events:
        t, kind, j = heapq.heappop(events)
        if kind == 0:
            waiting.append(j)
        else:
            done[j] = t - arrive[j]
            in_service = None
        if in_service is None and waiting:
            nxt = waiting.pop(0)
            in_service = nxt
            heapq.heappush(events, (t + float(services[nxt]), 1, nxt))
    return done


def synthetic_expression(spec, deltas, z):
    """The synthetic oracle's out-of-place expression, which its prepared
    map must reproduce bit for bit."""
    d = deltas[:, None]
    q1 = spec.order.q1
    m = spec.theta + spec.B * d**q1
    if spec.higher_order_bias is not None:
        m = m + spec.higher_order_bias * d ** (q1 + 1.0)
    return m + (spec.noise_scale * z) / d**spec.order.q2


SIGNS = {"cfd": (1.0, -1.0), "ffd": (1.0, 0.0), "bfd": (0.0, -1.0), "sp": (1.0, -1.0)}


def difference_expression(oracle, deltas, block):
    """A finite-difference oracle's out-of-place difference, which its
    prepared map must reproduce bit for bit."""
    n, s0, s1 = deltas.shape[0], *SIGNS[oracle.scheme]
    x = oracle.function.x
    p = len(x) if oracle.scheme == "sp" else 0
    slots = block[:, p:].reshape(n, 2, *oracle.function.shape)
    step = deltas[:, None] * block[:, :p] if p else deltas[:, None]
    moved = range(p) if p else (oracle.coord,)

    def points(sign):
        pts = list(x)
        for k, i in enumerate(moved):
            if sign:
                col = step[:, k:k + 1]
                pts[i] = pts[i] + col if sign > 0 else pts[i] - col
        return pts

    fn = oracle.function.fn
    diff = fn(points(s0), slots[:, 0]) - fn(points(s1), slots[:, 0 if oracle.crn else 1])
    return diff[:, None] / ((s0 - s1) * step)


def check_prepared(oracle, expression, block, schedules):
    """``prepare(d).transform(block, out, scratch)`` (returning ``out``),
    the allocating map and ``transform(d, block)`` all equal
    ``expression(oracle, d, block)`` bit for bit; buffers reused across
    schedules A, B, then A give A's bits both times; the block is left
    unmodified."""
    before = block.copy()
    # the harness's layout: samples are the transpose of a contiguous
    # (dim, n) buffer, and the scratch holds n * dim floats
    n, dim = block.shape[0], oracle.dim
    out, scratch = np.empty((dim, n)).T, np.empty(n * dim)
    maps = [oracle.prepare(d) for d in schedules]
    for d, prepared in zip(schedules + schedules[:1], maps + maps[:1]):
        want = expression(oracle, d, block).tobytes()
        assert prepared.transform(block, out, scratch) is out
        assert out.tobytes() == want
        assert prepared.transform(block).tobytes() == want
        assert oracle.transform(d, block).tobytes() == want
    assert block.tobytes() == before.tobytes()
