"""Queueing testbed: the Lindley sampler against an independent
event-driven simulation, the derivative oracles' block layouts, and the
reference derivative constants."""

import math
import operator
import pickle
from functools import reduce

import numpy as np
import pytest

from bvbal import (
    MM1DerivativeOracle,
    MM1GradientOracleSP,
    QueueParams,
    StreamKey,
    mm1_transient_sample,
)
from bvbal.oracles import _FILL_ROWS, FiniteDifferenceOracle, SampleOracle
from bvbal.queueing import (
    MM1_TRUE_ARRIVAL_DERIVATIVE,
    MM1_TRUE_SERVICE_DERIVATIVE,
    _mean_system_time,
    _transient_measure,
)

from helpers import check_prepared, difference_expression, event_driven_times, queue_variates

P4 = QueueParams(4.0, 4.0, 10)


# ------------------------------------------------------- transient sampler


def test_lindley_matches_event_driven_simulation():
    # 1000 random configurations, package recursion vs the explicit
    # event-heap simulator on the exact same variates
    rng = np.random.default_rng(7)
    for _ in range(1000):
        lam = float(rng.uniform(0.5, 8.0))
        mu = float(rng.uniform(0.5, 8.0))
        k = int(rng.integers(1, 31))
        key = StreamKey(int(rng.integers(0, 2**32)), (k,))
        arrivals, services = queue_variates(key, k, lam, mu)
        got = mm1_transient_sample(QueueParams(lam, mu, k), key).per_customer_times
        want = event_driven_times(arrivals, services)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def _draw_major_times(rates, e):
    """The Lindley sweep over the last axis of draw-major (..., 2, k)
    arrays, each rate a float or an array of their leading shape, the
    reference the customer-major sweep must reproduce bit for bit."""
    a, s = (e[..., i, :] / np.asarray(rates[i])[..., None] for i in (0, 1))
    times = np.empty_like(s)
    times[..., 0] = s[..., 0]
    wait = np.zeros_like(s[..., 0])
    for j in range(1, a.shape[-1]):
        wait = np.maximum(wait + s[..., j - 1] - a[..., j], 0.0)
        times[..., j] = wait + s[..., j]
    return times


def _in_order_mean(times):
    """Mean over the last axis of draw-major system times, each
    replication summed customer by customer in Python floats, T_1 first."""
    rows = times.reshape(-1, times.shape[-1]).tolist()
    sums = np.array([reduce(operator.add, row) for row in rows]).reshape(times.shape[:-1])
    return sums / times.shape[-1]


def _exponentials(u):
    return -np.log1p(-u)


def _evaluation_views(block):
    """The layouts an (n, 2, 2, k) block reaches the sweep in: both
    evaluation slots as a leading (2, n) axis, and the crn view of slot 0
    with that axis at stride 0."""
    pair = np.moveaxis(block, 1, 0)
    return pair, np.broadcast_to(pair[:1], pair.shape)


@pytest.mark.parametrize("k", [*range(1, 21), 127, 128, 129, 130, 200])
def test_customer_major_sweep_is_the_draw_major_mean_bit_for_bit(k):
    # both evaluation slots of (n, 2, 2, k) cfd blocks and of sp-shaped
    # views of (n, 2 + 4 k) blocks as a leading (2, n) axis, C-order and
    # draw-fastest (as the oracles draw them), and the stride-0 crn view
    # of draw-fastest blocks, at float rates and (2, n) rate arrays on
    # either coordinate; an all-zero block, in C order, draw-fastest and
    # its crn view, pins the sign of zero
    rng = np.random.default_rng(1000 + k)
    for n in (1, 7, 1000):
        cfd = _exponentials(rng.random((n, 2, 2, k)))
        sp_block = _exponentials(rng.random((n, 2 + 4 * k)))
        zero = _exponentials(np.zeros((n, 2, 2, k)))
        fast = np.asfortranarray(cfd)
        views = [np.moveaxis(block, 1, 0) for block in (
            cfd, sp_block[:, 2:].reshape(n, 2, 2, k), zero, fast,
            np.asfortranarray(sp_block)[:, 2:].reshape(n, 2, 2, k))]
        views.append(np.moveaxis(np.asfortranarray(zero), 1, 0))
        views += [_evaluation_views(b)[1] for b in (fast, np.asfortranarray(zero))]
        rate = 4.0 + rng.uniform(-0.5, 0.5, (2, n))
        for rates in ([4.0, 4.0], [rate, 4.0], [3.5, rate], [rate, rate[::-1]]):
            for e in views:
                before = e.copy()
                got = _mean_system_time(rates, e)
                want = _in_order_mean(_draw_major_times(rates, e))
                assert got.shape == e.shape[:2]
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(e, before)


def test_a_replication_mean_does_not_depend_on_the_replication_count():
    # the customers are summed in row order whatever the number of draws
    # or evaluations that share the sweep
    e = _exponentials(np.random.default_rng(10).random((2, 1000, 2, 10)))
    rate = 4.0 + np.random.default_rng(11).uniform(-0.5, 0.5, (2, 1000))
    for rates in ([4.0, 4.0], [3.5, 4.5], [rate, 4.5], [3.5, rate]):
        whole = _mean_system_time(rates, e)
        for part in (np.s_[:1], np.s_[:, :1], np.s_[1:, 999:]):
            at = [r if np.ndim(r) == 0 else r[part] for r in rates]
            assert _mean_system_time(at, e[part]).tobytes() == whole[part].tobytes()


@pytest.mark.parametrize("k", [1, 2, 9, 10, 129])
def test_sweep_reads_a_pre_scaled_process_bit_for_bit(k):
    # a cfd draw divides the process whose rate stays fixed once, in the
    # block; the sweep reads its times (rate None) on either coordinate,
    # from every evaluation view of C-order and draw-fastest blocks, and
    # gives the bits of dividing in every evaluation, per customer and in
    # the mean, without modifying the block
    rng = np.random.default_rng(2000 + k)
    for n in (1, 7, 1000):
        moved_rate = 4.0 + rng.uniform(-0.5, 0.5, (2, n))
        for order in ("C", "F"):
            unit = np.asarray(_exponentials(rng.random((n, 2, 2, k))), order=order)
            for fixed, rate in ((0, 3.5), (1, 4.0)):
                block = unit.copy(order="K")
                np.divide(block[:, :, fixed], rate, out=block[:, :, fixed])
                before = block.copy(order="K")
                for moved in (4.5, moved_rate):
                    for e, ref in zip(_evaluation_views(block), _evaluation_views(unit)):
                        rates, at = [rate, rate], [None, None]
                        rates[1 - fixed] = at[1 - fixed] = moved
                        want = _draw_major_times(rates, ref)
                        times = np.empty((k, 2, n))
                        got = _mean_system_time(at, e, times)
                        assert np.moveaxis(times, 0, -1).tobytes() == want.tobytes()
                        assert got.tobytes() == _in_order_mean(want).tobytes()
                assert block.tobytes() == before.tobytes()


@pytest.mark.parametrize("k", [1, 2, 9, 40])
def test_sweep_keeps_the_bits_at_ties_and_zero_services(k):
    # arrivals equal to the previous customer's system time exactly, so
    # T_{j-1} - A_j is +0.0, and services of exactly zero, so a customer's
    # time can be the maximum's zero itself; power-of-two rates keep the
    # constructed ties exact after the division
    rng = np.random.default_rng(40 + k)
    n = 64
    rate = 2.0 ** rng.integers(-2, 3, (2, n)).astype(float)
    for rates in ([1.0, 1.0], [2.0, 0.5], [rate, 0.25], [0.5, rate]):
        e = rng.exponential(size=(2, n, 2, k))
        e[..., 1, :][rng.random((2, n, k)) < 0.3] = 0.0
        for j in range(1, k):
            tie = rng.random((2, n)) < 0.5
            t = _draw_major_times(rates, e)[..., j - 1]
            e[..., 0, j][tie] = t[tie] * np.broadcast_to(rates[0], (2, n))[tie]
        assert np.any(_draw_major_times(rates, e)[..., 1:] == 0.0) or k == 1
        fast = np.moveaxis(np.asfortranarray(np.moveaxis(e, 0, 1)), 1, 0)
        for block in (e, fast, np.broadcast_to(e[:1], e.shape)):
            want = _draw_major_times(rates, block)
            times = np.empty((k, 2, n))
            got = _mean_system_time(rates, block, times)
            assert np.moveaxis(times, 0, -1).tobytes() == want.tobytes()
            assert got.tobytes() == _in_order_mean(want).tobytes()


@pytest.mark.parametrize("k", [1, 7, 8, 9, 17, 129, 200])
def test_transient_sample_keeps_the_draw_major_bits(k):
    key = StreamKey(808, (k,))
    params = QueueParams(4.0, 3.5, k)
    e = _exponentials(key.generator().random((2, k)))[None]
    want = _draw_major_times([params.arrival_rate, params.service_rate], e)[0]
    sample = mm1_transient_sample(params, key)
    assert sample.per_customer_times.tobytes() == want.tobytes()
    assert sample.avg_system_time.hex() == float(_in_order_mean(want[None])[0]).hex()


def test_transient_sample_frozen_draw():
    sample = mm1_transient_sample(P4, StreamKey(123))
    assert sample.avg_system_time == pytest.approx(0.5828030782253973, rel=1e-12)
    assert sample.per_customer_times.shape == (10,)
    assert sample.avg_system_time == pytest.approx(sample.per_customer_times.mean(), rel=1e-15)


def test_transient_mean_regression():
    # long-run reference 0.616650 (se 1.2e-4), per-draw sd 0.390380
    reps = 20_000
    root = StreamKey(5150)
    vals = np.fromiter(
        (mm1_transient_sample(P4, root.child(r)).avg_system_time for r in range(reps)),
        dtype=float, count=reps,
    )
    band = 4.0 * math.sqrt(0.390380**2 / reps + 1.2e-4**2)
    assert abs(vals.mean() - 0.616650) < band


def test_empty_system_limit():
    # arrivals so sparse every customer finds an idle server
    params = QueueParams(1e-9, 4.0, 25)
    key = StreamKey(9)
    _, services = queue_variates(key, 25, 1e-9, 4.0)
    times = mm1_transient_sample(params, key).per_customer_times
    assert np.array_equal(times, services)


def test_single_customer_time_is_its_service_time():
    key = StreamKey(11)
    _, services = queue_variates(key, 1, 4.0, 4.0)
    sample = mm1_transient_sample(QueueParams(4.0, 4.0, 1), key)
    assert sample.per_customer_times[0] == services[0]


def test_faster_service_cannot_slow_anyone_down():
    # shared uniforms: scaling the service rate up scales every service
    # time down, and system times are monotone in service times
    key = StreamKey(21)
    slow = mm1_transient_sample(QueueParams(4.0, 4.0, 30), key).per_customer_times
    fast = mm1_transient_sample(QueueParams(4.0, 4.5, 30), key).per_customer_times
    assert np.all(fast <= slow + 1e-15)


def test_interarrival_distribution_ks():
    # 1e5 inverse-transform interarrivals against Exp(4), 1% critical value
    n = 100_000
    lam = 4.0
    arrivals, _ = queue_variates(StreamKey(33), n, lam, 4.0)
    x = np.sort(arrivals)
    cdf = -np.expm1(-lam * x)
    i = np.arange(n)
    d = max(float(np.max(cdf - i / n)), float(np.max((i + 1) / n - cdf)))
    assert d < 1.628 / math.sqrt(n)


def test_queue_params_validation():
    with pytest.raises(ValueError):
        QueueParams(0.0, 4.0)
    with pytest.raises(ValueError):
        QueueParams(4.0, -1.0)
    with pytest.raises(ValueError):
        QueueParams(4.0, 4.0, 0)


# ------------------------------------------------------- derivative oracle


def test_derivative_oracle_matches_event_driven_reconstruction():
    # pin the documented block layout (n, 2, 2, k): evaluation slot
    # (+delta first), then (arrivals, services)
    delta, lam, mu, k = 0.1, 4.0, 4.0, 10
    for target in ("arrival", "service"):
        oracle = MM1DerivativeOracle(QueueParams(lam, mu, k), target)
        key = StreamKey(77, (3,))
        got = oracle.sample_path(np.array([delta]), key)[0, 0]
        u = key.generator().random((1, 2, 2, k))
        if target == "arrival":
            rates = ((lam + delta, mu), (lam - delta, mu))
        else:
            rates = ((lam, mu + delta), (lam, mu - delta))
        means = []
        for slot, (a_rate, s_rate) in enumerate(rates):
            arr = -np.log1p(-u[0, slot, 0]) / a_rate
            srv = -np.log1p(-u[0, slot, 1]) / s_rate
            means.append(event_driven_times(arr, srv).mean())
        want = (means[0] - means[1]) / (2.0 * delta)
        assert got == pytest.approx(want, rel=1e-12)


def test_derivative_oracle_crn_shares_the_block():
    delta, k = 0.1, 10
    oracle = MM1DerivativeOracle(P4, "arrival", crn=True)
    key = StreamKey(78)
    got = oracle.sample_path(np.array([delta]), key)[0, 0]
    u = key.generator().random((1, 2, 2, k))
    up = event_driven_times(-np.log1p(-u[0, 0, 0]) / (4.0 + delta),
                            -np.log1p(-u[0, 0, 1]) / 4.0).mean()
    down = event_driven_times(-np.log1p(-u[0, 0, 0]) / (4.0 - delta),
                              -np.log1p(-u[0, 0, 1]) / 4.0).mean()
    assert got == pytest.approx((up - down) / (2.0 * delta), rel=1e-12)


@pytest.mark.parametrize("oracle", [
    MM1DerivativeOracle(P4, "arrival"),
    MM1DerivativeOracle(P4, "arrival", crn=True),
    MM1DerivativeOracle(P4, "service"),
    MM1DerivativeOracle(P4, "service", crn=True),
    MM1GradientOracleSP(QueueParams(4.0, 5.0, 7)),
], ids=["cfd-arrival", "cfd-arrival-crn", "cfd-service", "cfd-service-crn", "sp"])
def test_one_draw_replays_through_any_schedule(oracle):
    # samples mapped from one shared draw equal sample_path's, bit for bit,
    # and mapping leaves the draw untouched
    assert isinstance(oracle, SampleOracle)
    key = StreamKey(61, (2, 0))
    n = 300
    block = oracle.draw(n, key)
    before = block.copy()
    for deltas in (np.full(n, 0.2), np.geomspace(1.5, 0.01, n), 0.5 * np.arange(501, 501 + n) ** -0.1667):
        prepared = oracle.prepare(deltas)
        got = prepared.transform(block)
        assert np.array_equal(got, oracle.sample_path(deltas, key))
        # the map reads values, not memory layout
        assert prepared.transform(np.ascontiguousarray(block)).tobytes() == got.tobytes()
    assert np.array_equal(block, before)
    with pytest.raises(ValueError):
        oracle.prepare(np.full(n + 1, 0.2)).transform(block)


@pytest.mark.parametrize("n", [1, _FILL_ROWS - 1, _FILL_ROWS, _FILL_ROWS + 1, 2 * _FILL_ROWS + 1])
@pytest.mark.parametrize("oracle", [
    MM1DerivativeOracle(P4, "arrival"),
    MM1DerivativeOracle(P4, "service", crn=True),
    MM1GradientOracleSP(QueueParams(4.0, 5.0, 7)),
], ids=["cfd", "cfd-crn", "sp"])
def test_draw_is_the_c_order_fill_laid_out_draw_fastest(oracle, n):
    # the block's values are generator.random(shape)'s, with the sp
    # directions turned into +-1 and the slots the oracle reads turned
    # into exponentials (under crn slot 1 keeps its uniforms); its memory
    # is draw-fastest, the transpose of a C-contiguous array
    key = StreamKey(66, (n,))
    block = oracle.draw(n, key)
    k, p = oracle.params.num_customers, oracle.dim if oracle.scheme == "sp" else 0
    want = key.generator().random(block.shape)
    assert want.shape == ((n, 2 + 4 * k) if p else (n, 2, 2, k))
    want[:, :p] = np.where(want[:, :p] < 0.5, -1.0, 1.0)
    slots = want[:, p:].reshape(n, 2, 2, k)
    for slot in (0,) if oracle.crn else (0, 1):
        slots[:, slot] = _exponentials(slots[:, slot])
        if not p:  # a cfd draw holds the unmoved process at its fixed rate
            params = oracle.params
            fixed, rate = ((1, params.service_rate) if oracle.target == "arrival"
                           else (0, params.arrival_rate))
            slots[:, slot, fixed] /= rate
    assert np.array_equal(block, want)
    assert block.tobytes() == want.tobytes()
    assert block.T.flags.c_contiguous
    # a prefix of the path is the path's prefix
    assert oracle.draw(n // 2, key).tobytes() == block[:n // 2].tobytes()


@pytest.mark.parametrize("n", [1, _FILL_ROWS - 1, _FILL_ROWS, _FILL_ROWS + 1, 1000])
@pytest.mark.parametrize("crn", [False, True], ids=["ind", "crn"])
@pytest.mark.parametrize("target", ["arrival", "service"])
def test_fixed_rate_divided_once_per_draw_keeps_the_bits(target, crn, n):
    # the derivative oracle divides its fixed rate once per draw; the
    # two-rate function (the sp oracle's) divides both rates in every evaluation,
    # and the paths agree byte for byte (unequal rates would show a swap)
    key = StreamKey(67, (n,))
    deltas = 0.5 * np.arange(501, 501 + n) ** -0.1667
    coord = ("arrival", "service").index(target)
    for params in (P4, QueueParams(3.5, 5.0, 7)):
        oracle = MM1DerivativeOracle(params, target, crn)
        two_rate = FiniteDifferenceOracle(_transient_measure(params), "cfd", coord, crn)
        assert oracle.function.x == (two_rate.function.x[coord],) and oracle.coord == 0
        got = oracle.sample_path(deltas, key)
        assert got.tobytes() == two_rate.sample_path(deltas, key).tobytes()
        # still a value: equal to its twin, and it pickles
        assert pickle.loads(pickle.dumps(oracle)) == MM1DerivativeOracle(params, target, crn)


@pytest.mark.parametrize("target", ["arrival", "service"])
def test_crn_path_is_the_independent_path_with_slot_one_replaced(target):
    # a crn path reads only slot 0: it equals the independent oracle's
    # transform of the same draw with slot 1 overwritten by slot 0
    key = StreamKey(64, (1, 3))
    n = 200
    deltas = 0.5 * np.arange(501, 501 + n) ** -0.1667
    crn = MM1DerivativeOracle(P4, target, crn=True)
    plain = MM1DerivativeOracle(P4, target)
    block = plain.draw(n, key)
    assert np.array_equal(crn.draw(n, key)[:, 0], block[:, 0])
    block[:, 1] = block[:, 0]
    assert np.array_equal(crn.sample_path(deltas, key), plain.prepare(deltas).transform(block))


def test_crn_slashes_the_variance():
    delta, n = 0.05, 4000
    deltas = np.full(n, delta)
    ind = MM1DerivativeOracle(P4, "arrival").sample_path(deltas, StreamKey(90))[:, 0]
    crn = MM1DerivativeOracle(P4, "arrival", crn=True).sample_path(deltas, StreamKey(90))[:, 0]
    assert crn.var(ddof=1) < 0.01 * ind.var(ddof=1)


def test_derivative_oracle_determinism_and_prefix():
    oracle = MM1DerivativeOracle(P4, "service")
    deltas = np.geomspace(0.5, 0.05, 40)
    key = StreamKey(91)
    a = oracle.sample_path(deltas, key)
    b = oracle.sample_path(deltas, key)
    head = oracle.sample_path(deltas[:15], key)
    assert np.array_equal(a, b)
    assert np.array_equal(a[:15], head)
    assert oracle.dim == 1 and a.shape == (40, 1)


def test_derivative_oracle_short_run_mean():
    # 2e5 draws at delta = 0.05: sample mean within 4 se of the constant
    n = 200_000
    draws = MM1DerivativeOracle(P4, "arrival").sample_path(
        np.full(n, 0.05), StreamKey(314)
    )[:, 0]
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - MM1_TRUE_ARRIVAL_DERIVATIVE) < 4.0 * se


def test_derivative_oracle_validation():
    oracle = MM1DerivativeOracle(P4, "arrival")
    with pytest.raises(ValueError):
        oracle.sample_path(np.array([4.0]), StreamKey(0))  # delta == rate
    with pytest.raises(ValueError):
        oracle.sample_path(np.array([-0.1]), StreamKey(0))
    with pytest.raises(ValueError):
        oracle.sample_path(np.eye(2), StreamKey(0))
    with pytest.raises(ValueError):
        MM1DerivativeOracle(P4, "rate")


# ------------------------------------------- simultaneous perturbation


def test_sp_oracle_block_layout_and_shared_difference():
    delta, lam, mu, k = 0.1, 4.0, 4.0, 10
    oracle = MM1GradientOracleSP(QueueParams(lam, mu, k))
    key = StreamKey(55)
    got = oracle.sample_path(np.array([delta]), key)[0]
    block = key.generator().random((1, 2 + 4 * k))
    h = np.where(block[0, :2] < 0.5, -1.0, 1.0)
    u = block[:, 2:].reshape(1, 2, 2, k)
    up = event_driven_times(-np.log1p(-u[0, 0, 0]) / (lam + delta * h[0]),
                            -np.log1p(-u[0, 0, 1]) / (mu + delta * h[1])).mean()
    down = event_driven_times(-np.log1p(-u[0, 1, 0]) / (lam - delta * h[0]),
                              -np.log1p(-u[0, 1, 1]) / (mu - delta * h[1])).mean()
    want = (up - down) / (2.0 * delta * h)
    assert np.allclose(got, want, rtol=1e-12)
    # both components divide one shared difference
    assert got[0] * h[0] == pytest.approx(got[1] * h[1], rel=1e-14)


def test_sp_oracle_shapes_and_validation():
    oracle = MM1GradientOracleSP(QueueParams(4.0, 5.0, 10))
    out = oracle.sample_path(np.array([0.3, 0.2]), StreamKey(1))
    assert out.shape == (2, 2) and oracle.dim == 2
    with pytest.raises(ValueError):
        # the smaller rate caps delta
        oracle.sample_path(np.array([4.0]), StreamKey(1))


def test_reference_constants_agree_with_a_crn_run():
    # common-random-number central differences at delta = 0.02 pin the
    # frozen constants well inside their Monte Carlo uncertainty
    n = 200_000
    deltas = np.full(n, 0.02)
    arr = MM1DerivativeOracle(P4, "arrival", crn=True).sample_path(deltas, StreamKey(61))[:, 0]
    srv = MM1DerivativeOracle(P4, "service", crn=True).sample_path(deltas, StreamKey(62))[:, 0]
    for draws, ref in ((arr, MM1_TRUE_ARRIVAL_DERIVATIVE),
                       (srv, MM1_TRUE_SERVICE_DERIVATIVE)):
        se = draws.std(ddof=1) / math.sqrt(n)
        # 4 sigma plus the curvature bias headroom at this delta
        assert abs(draws.mean() - ref) < 4.0 * se + 2e-3


@pytest.mark.parametrize("oracle", [
    MM1DerivativeOracle(P4, "service"),
    MM1DerivativeOracle(P4, "service", crn=True),
    MM1GradientOracleSP(QueueParams(4.0, 5.0, 7)),
], ids=["cfd", "cfd-crn", "sp"])
def test_prepared_transform_is_the_expression_bit_for_bit(oracle):
    n = 300
    schedules = [np.geomspace(1.5, 0.01, n), 0.5 * np.arange(501, 501 + n) ** -0.1667]
    check_prepared(oracle, difference_expression, oracle.draw(n, StreamKey(65, (1,))), schedules)
    with pytest.raises(ValueError):  # the rate cap: 4 - delta must stay positive
        oracle.prepare(np.full(n, 4.0))
