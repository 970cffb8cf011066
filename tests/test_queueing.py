"""Queueing testbed: the Lindley sampler against an independent
event-driven simulation, the derivative oracles' block layouts, and the
reference derivative constants."""

import math

import numpy as np
import pytest

from bvbal import (
    MM1DerivativeOracle,
    MM1GradientOracleSP,
    QueueParams,
    StreamKey,
    mm1_transient_sample,
)
from bvbal.oracles import SampleOracle
from bvbal.queueing import (
    MM1_TRUE_ARRIVAL_DERIVATIVE,
    MM1_TRUE_SERVICE_DERIVATIVE,
    _mean_system_time,
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
    """The Lindley sweep over the last axis of (n, k) draw-major arrays,
    the reference the customer-major sweep must reproduce bit for bit."""
    a, s = e[:, 0] / rates[0], e[:, 1] / rates[1]
    times = np.empty_like(s)
    times[:, 0] = s[:, 0]
    wait = np.zeros_like(s[:, 0])
    for j in range(1, a.shape[-1]):
        wait = np.maximum(wait + s[:, j - 1] - a[:, j], 0.0)
        times[:, j] = wait + s[:, j]
    return times


def _exponentials(u):
    return -np.log1p(-u)


@pytest.mark.parametrize("k", [*range(1, 21), 127, 128, 129, 130, 200])
def test_customer_major_sweep_is_the_draw_major_mean_bit_for_bit(k):
    # cfd slot views of an (n, 2, 2, k) block and sp-shaped views of an
    # (n, 2 + 4 k) block, at float rates and (n, 1) rate columns on either
    # coordinate; an all-zero block pins the sign of zero
    rng = np.random.default_rng(1000 + k)
    for n in (1, 7, 1000):
        cfd = _exponentials(rng.random((n, 2, 2, k)))
        sp = _exponentials(rng.random((n, 2 + 4 * k)))[:, 2:].reshape(n, 2, 2, k)
        zero = _exponentials(np.zeros((n, 2, 2, k)))
        views = (cfd[:, 0], cfd[:, 1], sp[:, 0], sp[:, 1], zero[:, 0])
        column = 4.0 + rng.uniform(-0.5, 0.5, (n, 1))
        for rates in ([4.0, 4.0], [column, 4.0], [3.5, column], [column, column[::-1]]):
            for e in views:
                before = e.copy()
                got = _mean_system_time(rates, e)
                want = _draw_major_times(rates, e).mean(axis=-1)
                assert got.shape == (n,)
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(e, before)


@pytest.mark.parametrize("k", [1, 7, 8, 9, 17, 129, 200])
def test_transient_sample_keeps_the_draw_major_bits(k):
    key = StreamKey(808, (k,))
    params = QueueParams(4.0, 3.5, k)
    e = _exponentials(key.generator().random((2, k)))[None]
    want = _draw_major_times([params.arrival_rate, params.service_rate], e)[0]
    sample = mm1_transient_sample(params, key)
    assert sample.per_customer_times.tobytes() == want.tobytes()
    assert sample.avg_system_time.hex() == float(want.mean()).hex()


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
        assert np.array_equal(oracle.transform(deltas, block), oracle.sample_path(deltas, key))
    assert np.array_equal(block, before)
    with pytest.raises(ValueError):
        oracle.transform(np.full(n + 1, 0.2), block)


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
    assert np.array_equal(crn.sample_path(deltas, key), plain.transform(deltas, block))


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
