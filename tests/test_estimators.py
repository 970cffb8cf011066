"""Estimator layer: schedules, the coefficient algebra of the recursive
and averaged schemes, the shared combination kernel, the leading-order
risk predictions, and the comparison recursion."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvbal import (
    BiasOrder,
    ConfigurationError,
    DeltaSchedule,
    LinearPlan,
    RecursiveParams,
    StreamKey,
    averaged_estimate,
    baseline_estimate,
    chung_recursion_check,
    predict_mse_leading,
    recursive_estimate,
    weighted_estimate,
)
from bvbal.estimators import averaged_coefficients, recursion_coefficients

from helpers import unit_spec

Q21 = BiasOrder(2.0, 1.0)


# -------------------------------------------------------------- schedules


def test_delta_schedule_values():
    s = DeltaSchedule(scale=2.0, alpha=0.25, n0=3)
    assert s.delta(1) == 2.0 * 4.0**-0.25
    assert np.allclose(s.deltas(3), 2.0 * np.array([4.0, 5.0, 6.0]) ** -0.25, rtol=1e-15)
    assert s.terminal(3) == 2.0 * 6.0**-0.25
    b = DeltaSchedule.balanced(Q21, scale=1.5)
    assert b.alpha == Q21.alpha and b.scale == 1.5 and b.n0 == 0
    flat = DeltaSchedule(scale=0.7, alpha=0.0)
    assert np.all(flat.deltas(5) == 0.7)


def test_delta_schedule_validation():
    with pytest.raises(ValueError):
        DeltaSchedule(scale=0.0, alpha=0.1)
    with pytest.raises(ValueError):
        DeltaSchedule(scale=1.0, alpha=-0.1)
    with pytest.raises(ValueError):
        DeltaSchedule(scale=1.0, alpha=0.1, n0=-1)
    with pytest.raises(ValueError):
        DeltaSchedule(scale=1.0, alpha=0.1).delta(0)
    with pytest.raises(ValueError):
        DeltaSchedule(scale=1.0, alpha=0.1).deltas(0)


# ------------------------------------------------------------ coefficients


def test_recursion_coefficients_hand_literal():
    # c = 0.8, beta = 1, n = 3: gammas 0.8, 0.4, 4/15
    u, t0 = recursion_coefficients(0.8, 1.0, 3)
    assert np.allclose(u, [0.352, 0.8 * 11.0 / 30.0, 4.0 / 15.0], rtol=1e-14)
    assert t0 == pytest.approx(0.088, rel=1e-14)
    assert math.fsum(u) + t0 == pytest.approx(1.0, abs=1e-15)


def test_running_mean_closed_form_is_exact():
    for n, n0 in ((7, 0), (64, 0), (10, 4)):
        u, t0 = recursion_coefficients(1.0, 1.0, n, n0)
        assert np.all(u == 1.0 / (n + n0))
        assert t0 == n0 / (n + n0)


@given(
    c=st.floats(0.05, 3.0),
    beta=st.floats(0.1, 1.0),
    n=st.integers(1, 300),
    n0=st.integers(0, 10),
)
def test_recursion_coefficients_sum_to_one(c, beta, n, n0):
    try:
        u, t0 = recursion_coefficients(c, beta, n, n0)
    except ConfigurationError:
        assume(False)
    assert math.fsum(u) + t0 == pytest.approx(1.0, abs=1e-12)


@given(
    c=st.floats(0.05, 3.0),
    beta=st.floats(0.1, 0.95),
    n=st.integers(1, 300),
    n0=st.integers(0, 10),
)
def test_averaged_coefficients_sum_to_one(c, beta, n, n0):
    try:
        ubar, t0bar = averaged_coefficients(c, beta, n, n0)
    except ConfigurationError:
        assume(False)
    assert math.fsum(ubar) + t0bar == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "c, beta, n, n0",
    [(1.0, 0.5, 100_000, 0), (1.0, 0.5, 10_000, 500), (8.0, 0.5, 3 * 2**14 + 5, 5),
     (0.3, 0.9, 50_000, 0), (2.0, 0.3, 200_000, 4)],
)
def test_averaged_t0bar_is_the_fsum_of_the_products(c, beta, n, n0):
    # t0bar = (sum_m prod_{k <= m} (1 - gamma_k)) / n, exactly rounded
    gam = np.minimum(c * (np.arange(1, n + 1, dtype=float) + n0) ** (-beta), 1.0)
    t0bar = averaged_coefficients(c, beta, n, n0)[1]
    assert t0bar.hex() == (math.fsum(np.cumprod(1.0 - gam)) / n).hex()


def test_oversized_step_without_offset_is_an_error():
    with pytest.raises(ConfigurationError):
        recursion_coefficients(2.0, 1.0, 10, 0)


def test_oversized_step_with_offset_clamps_and_warns(caplog):
    # c = 8, n0 = 5: gammas 8/6, 8/7 clamp to 1; gamma_3 = 1 exactly
    with caplog.at_level(logging.WARNING, logger="bvbal.estimators"):
        u, t0 = recursion_coefficients(8.0, 1.0, 6, 5)
    assert any("clamping" in r.message for r in caplog.records)
    assert math.fsum(u) + t0 == pytest.approx(1.0, abs=1e-14)
    assert u[0] == 0.0 and u[1] == 0.0  # killed by the gamma_3 = 1 factor
    assert t0 == 0.0


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
def test_each_clamping_run_warns_exactly_once(caplog, trace):
    # c = 8, n0 = 5 clamps early steps: every run says so once, traced or
    # not, including a repeated averaged run on cached coefficients
    spec = unit_spec(sigma=0.5)
    sched = DeltaSchedule(1.0, 1.0 / 6.0, n0=5)
    averaged = (averaged_estimate, RecursiveParams(8.0, 0.5),
                "clamping 6 recursive step(s) above 1 (c=8, beta=0.5, n0=5)")
    runs = (
        (recursive_estimate, RecursiveParams(8.0, 1.0),
         "clamping 2 recursive step(s) above 1 (c=8, beta=1, n0=5)"),
        averaged,
        averaged,
    )
    for estimate, params, message in runs:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="bvbal.estimators"):
            estimate(spec, 6, sched, params, StreamKey(3), trace=trace)
        assert [r.getMessage() for r in caplog.records] == [message]


def test_averaged_hand_literal_n2():
    c, beta = 0.5, 0.5
    g1, g2 = 0.5, 0.5 / math.sqrt(2.0)
    ubar, t0bar = averaged_coefficients(c, beta, 2)
    assert ubar[0] == pytest.approx(g1 * (2.0 - g2) / 2.0, rel=1e-14)
    assert ubar[1] == pytest.approx(g2 / 2.0, rel=1e-15)
    assert t0bar == pytest.approx((1.0 - g1) * (2.0 - g2) / 2.0, rel=1e-14)


def test_averaged_n1_equals_recursive():
    u, t0 = recursion_coefficients(0.7, 0.5, 1)
    ubar, t0bar = averaged_coefficients(0.7, 0.5, 1)
    assert np.array_equal(u, ubar) and t0 == t0bar


# ------------------------------------------------------------- estimators


def test_baseline_noiseless_frozen_value():
    # q1 = 2, B = 1, d = 1, alpha = 1/6, n = 64: terminal delta is exactly
    # 1/2, so the estimate is theta + 2**-2
    spec = unit_spec(sigma=0.0)
    run = baseline_estimate(spec, 64, DeltaSchedule.balanced(Q21), StreamKey(0))
    assert run.estimate[0] == 0.25
    assert run.n == 64


def test_all_estimators_recover_a_constant_target():
    spec = unit_spec(theta=2.5, B=0.0, sigma=0.0)
    sched = DeltaSchedule.balanced(Q21)
    key = StreamKey(1)
    assert baseline_estimate(spec, 20, sched, key).estimate[0] == 2.5
    run = recursive_estimate(spec, 20, sched, RecursiveParams(1.0, 1.0), key)
    assert run.estimate[0] == pytest.approx(2.5, rel=1e-14)
    run = averaged_estimate(spec, 20, sched, RecursiveParams(1.0, 0.4), key)
    assert run.estimate[0] == pytest.approx(2.5, rel=1e-12)
    run = weighted_estimate(spec, 20, sched, np.full(20, 0.05), key)
    assert run.estimate[0] == pytest.approx(2.5, rel=1e-14)


def test_averaged_with_matching_init_reproduces_constant():
    spec = unit_spec(theta=2.5, B=0.0, sigma=0.0)
    params = RecursiveParams(0.7, 0.4, init=np.array([2.5]))
    run = averaged_estimate(spec, 9, DeltaSchedule.balanced(Q21), params, StreamKey(1))
    assert run.estimate[0] == pytest.approx(2.5, rel=1e-12)


def test_unit_first_step_wipes_the_init():
    spec = unit_spec()
    sched = DeltaSchedule.balanced(Q21)
    a = recursive_estimate(spec, 30, sched, RecursiveParams(1.0, 1.0), StreamKey(3))
    b = recursive_estimate(spec, 30, sched,
                           RecursiveParams(1.0, 1.0, init=np.array([999.0])), StreamKey(3))
    assert np.array_equal(a.estimate, b.estimate)


def test_running_mean_equivalence_is_bitwise():
    # constant schedule so all three estimators see identical draws
    spec = unit_spec()
    sched = DeltaSchedule(scale=0.5, alpha=0.0)
    key = StreamKey(42)
    n = 50
    base = baseline_estimate(spec, n, sched, key).estimate
    rec = recursive_estimate(spec, n, sched, RecursiveParams(1.0, 1.0), key).estimate
    wtd = weighted_estimate(spec, n, sched, np.full(n, 1.0 / n), key).estimate
    assert np.array_equal(base, rec)
    assert np.array_equal(base, wtd)


@pytest.mark.parametrize("p", [1, 2])
def test_combination_kernel_agrees_with_fsum(p):
    # the pairwise kernel against the correctly rounded sum of the same
    # products: |error| <= 1e-14 * sum |c_j x_j| per coordinate
    rng = np.random.default_rng(100 + p)
    n = 100_000
    samples = rng.normal(0.5, 7.0, size=(n, p))
    coeffs = rng.normal(size=n) / n
    got = LinearPlan(np.ones(n), coeffs).reduce(samples)
    assert got.shape == (p,)
    for k in range(p):
        terms = samples[:, k] * coeffs
        ref = math.fsum(terms)
        assert abs(got[k] - ref) <= 1e-14 * math.fsum(np.abs(terms))


def test_combination_kernel_ignores_buffer_offset():
    # the same data reduced from views at different element offsets into
    # larger buffers (so at different alignments) gives identical bits
    rng = np.random.default_rng(7)
    n, p = 10_007, 2
    samples = rng.normal(size=(n, p))
    coeffs = rng.normal(size=n)
    init = np.array([1.0, -3.0])
    want = LinearPlan(np.ones(n), coeffs, 0.25).reduce(samples, init)
    for offset in (1, 2, 3):
        sbuf = np.zeros(n * p + offset)
        sbuf[offset:] = samples.ravel()
        cbuf = np.zeros(n + offset)
        cbuf[offset:] = coeffs
        got = LinearPlan(np.ones(n), cbuf[offset:], 0.25).reduce(sbuf[offset:].reshape(n, p), init)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [1, 3])
def test_combination_kernel_forms_terms_in_a_given_buffer(p):
    # terms formed in the samples' own storage (the transpose of a
    # contiguous (p, n) buffer) or in a separate buffer give the bits of
    # the allocating route; the parent's expression is written out here
    rng = np.random.default_rng(11 + p)
    n = 5_003
    samples = rng.normal(size=(n, p))
    coeffs = rng.normal(size=n)
    init = rng.normal(size=p)
    plan = LinearPlan(np.ones(n), coeffs, 0.25)
    want = np.add.reduce(np.ascontiguousarray((coeffs[:, None] * samples).T), axis=1) + 0.25 * init
    assert plan.reduce(samples, init).tobytes() == want.tobytes()
    assert plan.reduce(samples, init, terms=np.empty((p, n))).tobytes() == want.tobytes()
    own = np.empty((p, n))
    own.T[...] = samples
    assert plan.reduce(own.T, init, terms=own).tobytes() == want.tobytes()


def test_one_hot_weights_pick_one_draw():
    spec = unit_spec()
    sched = DeltaSchedule.balanced(Q21)
    key = StreamKey(8)
    samples = spec.sample_path(sched.deltas(12), key)
    w = np.zeros(12)
    w[5] = 1.0
    run = weighted_estimate(spec, 12, sched, w, key)
    assert np.array_equal(run.estimate, samples[5])


def test_weighted_combination_is_linear():
    spec = unit_spec()
    sched = DeltaSchedule.balanced(Q21)
    key = StreamKey(9)
    rng = np.random.default_rng(0)
    w1, w2 = rng.normal(size=20), rng.normal(size=20)
    e1 = weighted_estimate(spec, 20, sched, w1, key).estimate
    e2 = weighted_estimate(spec, 20, sched, w2, key).estimate
    e = weighted_estimate(spec, 20, sched, 0.3 * w1 + 0.7 * w2, key).estimate
    assert np.allclose(e, 0.3 * e1 + 0.7 * e2, rtol=1e-12, atol=1e-12)


def test_weighted_length_mismatch():
    with pytest.raises(ConfigurationError):
        weighted_estimate(unit_spec(), 10, DeltaSchedule.balanced(Q21),
                          np.full(9, 1.0 / 9.0), StreamKey(0))


def test_averaged_requires_beta_below_one():
    with pytest.raises(ConfigurationError):
        averaged_estimate(unit_spec(), 10, DeltaSchedule.balanced(Q21),
                          RecursiveParams(1.0, 1.0), StreamKey(0))


def test_traces():
    spec = unit_spec()
    sched = DeltaSchedule.balanced(Q21)
    key = StreamKey(31)
    n = 40
    samples = spec.sample_path(sched.deltas(n), key)

    run = baseline_estimate(spec, n, DeltaSchedule(scale=sched.terminal(n), alpha=0.0),
                            key, trace=True)
    flat = spec.sample_path(np.full(n, sched.terminal(n)), key)
    assert np.allclose(run.trace, np.cumsum(flat, axis=0) / np.arange(1, n + 1)[:, None],
                       rtol=1e-12)

    run = recursive_estimate(spec, n, sched, RecursiveParams(0.9, 1.0), key, trace=True)
    assert run.trace.shape == (n, 1)
    assert np.allclose(run.trace[-1], run.estimate, rtol=1e-9)
    # the trace is the literal iterate sequence
    cur, gam = 0.0, lambda j: 0.9 / j
    for j in range(1, 6):
        cur = (1.0 - gam(j)) * cur + gam(j) * samples[j - 1, 0]
        assert run.trace[j - 1, 0] == pytest.approx(cur, rel=1e-12)

    run = averaged_estimate(spec, n, sched, RecursiveParams(0.9, 0.5), key, trace=True)
    assert np.allclose(run.trace[-1], run.estimate, rtol=1e-9)

    run = weighted_estimate(spec, n, sched, np.full(n, 1.0 / n), key, trace=True)
    assert np.allclose(run.trace[-1], run.estimate, rtol=1e-12)


def test_estimate_array_is_read_only():
    run = baseline_estimate(unit_spec(), 5, DeltaSchedule.balanced(Q21), StreamKey(0))
    with pytest.raises(ValueError):
        run.estimate[0] = 0.0


# ------------------------------------------------------- risk predictions


def test_predicted_mse_baseline_frozen():
    got = predict_mse_leading("baseline", Q21, d=1.0, B2=1.0, sigma2=1.0, n=10**6)
    assert got == pytest.approx(2e-4, rel=1e-12)


def test_predicted_mse_recursive_tied_constant():
    # c = 7/3 at beta = 1: bias and variance terms are each (7/6)**2
    n = 10**5
    got = predict_mse_leading("recursive", Q21, d=1.0, B2=1.0, sigma2=1.0, n=n,
                              c=7.0 / 3.0, beta=1.0)
    assert got == pytest.approx((49.0 / 18.0) * n ** (-2.0 / 3.0), rel=1e-13)


def test_predicted_mse_averaged_matches_unit_recursive():
    # averaging with beta < 1 reproduces the c = 1, beta = 1 constant
    n = 10**4
    avg = predict_mse_leading("averaged", Q21, d=0.8, B2=2.0, sigma2=1.5, n=n,
                              c=5.0, beta=0.5)
    rec = predict_mse_leading("recursive", Q21, d=0.8, B2=2.0, sigma2=1.5, n=n,
                              c=1.0, beta=1.0)
    assert avg == pytest.approx(rec, rel=1e-14)


def test_predicted_mse_regime_errors():
    with pytest.raises(ValueError):
        predict_mse_leading("baseline", Q21, 1.0, 1.0, 1.0, 100, alpha=0.5)
    with pytest.raises(ValueError):
        predict_mse_leading("recursive", Q21, 1.0, 1.0, 1.0, 100, c=1.0, beta=1.0,
                            alpha=0.2)
    with pytest.raises(ValueError):
        predict_mse_leading("recursive", Q21, 1.0, 1.0, 1.0, 100, c=1.0 / 3.0, beta=1.0)
    with pytest.raises(ValueError):
        predict_mse_leading("recursive", Q21, 1.0, 1.0, 1.0, 100, c=1.0, beta=0.9,
                            alpha=0.5)
    with pytest.raises(ValueError):
        predict_mse_leading("recursive", Q21, 1.0, 1.0, 1.0, 100)
    with pytest.raises(ValueError):
        predict_mse_leading("averaged", Q21, 1.0, 1.0, 1.0, 100, beta=1.0)
    with pytest.raises(ValueError):
        predict_mse_leading("oracle", Q21, 1.0, 1.0, 1.0, 100)
    with pytest.raises(ValueError):
        predict_mse_leading("baseline", Q21, -1.0, 1.0, 1.0, 100)


# ------------------------------------------------- Monte Carlo invariants


def _mc_mse(c, beta, alpha, n, reps, seed):
    spec = unit_spec()
    sched = DeltaSchedule(scale=1.0, alpha=alpha)
    params = RecursiveParams(c, beta)
    root = StreamKey(seed)
    sq = np.empty(reps)
    for r in range(reps):
        est = recursive_estimate(spec, n, sched, params, root.child(r)).estimate[0]
        sq[r] = est * est  # theta = 0
    return sq


def _exact_mse(c, beta, alpha, n):
    u, _ = recursion_coefficients(c, beta, n)
    delta = np.arange(1, n + 1, dtype=float) ** (-alpha)
    bias = math.fsum(u * delta**2)
    return bias * bias + math.fsum(u * u / delta**2)


def test_small_step_constant_diverges_from_optimal_rate():
    # c = 0.2 < q1/(2(q1+q2)) = 1/3 at beta = 1: the n**(2/3)-scaled MSE
    # grows without bound instead of stabilizing
    reps = 2000
    scaled, exact_scaled = [], []
    for i, n in enumerate((1000, 10_000, 100_000)):
        sq = _mc_mse(0.2, 1.0, 1.0 / 6.0, n, reps, seed=100 + i)
        mse = float(sq.mean())
        exact = _exact_mse(0.2, 1.0, 1.0 / 6.0, n)
        assert abs(mse - exact) < 5.0 * sq.std(ddof=1) / math.sqrt(reps)
        scaled.append(n ** (2.0 / 3.0) * mse)
        exact_scaled.append(n ** (2.0 / 3.0) * exact)
    assert scaled[0] < scaled[1] < scaled[2]
    assert exact_scaled[0] < exact_scaled[1] < exact_scaled[2]


def test_interior_regime_is_l2_consistent():
    # beta = 0.9, alpha = 0.2 < beta/(2 q2): MSE at n = 1e5 is far below
    # MSE at n = 1e3
    reps = 2000
    mse = {}
    for i, n in enumerate((1000, 100_000)):
        sq = _mc_mse(1.0, 0.9, 0.2, n, reps, seed=200 + i)
        mse[n] = float(sq.mean())
        exact = _exact_mse(1.0, 0.9, 0.2, n)
        assert abs(mse[n] - exact) < 5.0 * sq.std(ddof=1) / math.sqrt(reps)
    assert mse[100_000] < mse[1000]


# ---------------------------------------------------- comparison recursion


def test_comparison_recursion_limits():
    # b = 0 decays to zero; constant b converges to b / c
    assert abs(chung_recursion_check(0.5, 0.0, 1.0, 4000, v0=3.0)) < 0.1
    assert chung_recursion_check(2.0, 4.0, 1.0, 100_000) == pytest.approx(2.0, rel=1e-3)


def test_comparison_recursion_divergence():
    # b_n = n**0.3 -> infinity drives the iterate to infinity, tracking
    # b_n / c from below
    vals = [chung_recursion_check(2.0, lambda m: m**0.3, 1.0, steps)
            for steps in (500, 5000, 50_000)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 5.0


def test_comparison_recursion_callable_and_scalar_agree():
    a = chung_recursion_check(lambda m: 2.0, lambda m: 4.0, 1.0, 1000)
    b = chung_recursion_check(2.0, 4.0, 1.0, 1000)
    assert a == b


def test_comparison_recursion_validation():
    with pytest.raises(ValueError):
        chung_recursion_check(2.0, 4.0, 0.0, 100)
    with pytest.raises(ValueError):
        chung_recursion_check(2.0, 4.0, 1.5, 100)
    with pytest.raises(ValueError):
        chung_recursion_check(2.0, 4.0, 1.0, 0)
