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
    SyntheticOracleSpec,
    averaged_estimate,
    baseline_estimate,
    chung_recursion_check,
    optimal_weights,
    predict_mse_leading,
    recursive_estimate,
    weighted_estimate,
)
import bvbal.estimators as estimators
from bvbal.estimators import _memo, _steps, averaged_coefficients, recursion_coefficients

from helpers import unit_spec

Q21 = BiasOrder(2.0, 1.0)


# -------------------------------------------------------------- schedules


def test_delta_schedule_values():
    s = DeltaSchedule(scale=2.0, alpha=0.25, n0=3)
    assert s.delta(1) == 2.0 * 4.0**-0.25
    assert np.allclose(s.deltas(3), 2.0 * np.array([4.0, 5.0, 6.0]) ** -0.25, rtol=1e-15)
    assert s.terminal(3) == 2.0 * 6.0**-0.25
    b = DeltaSchedule(1.5, Q21.alpha)
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
    # nan gave nan and inf gave 0.0, neither a positive size, and 1.5 a
    # size for a draw that does not exist
    for j in (0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="draw index must be an integer >= 1"):
            DeltaSchedule(scale=1.0, alpha=0.1).delta(j)
    with pytest.raises(ValueError):
        DeltaSchedule(scale=1.0, alpha=0.1).deltas(0)


@pytest.mark.parametrize("c, beta", [(1.0, 1.5), (-1.0, 0.5), (1.0, 0.0), (math.nan, 0.5)])
def test_recursive_params_validation(c, beta):
    # c finite and > 0, 0 < beta <= 1
    with pytest.raises(ConfigurationError):
        RecursiveParams(c, beta)


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


def test_running_mean_closed_form_builds_no_steps(monkeypatch):
    # at c = beta = 1 every step 1 / (j + n0) is at most 1, so the closed
    # form is returned before any step is made
    def no_steps(*args):
        raise AssertionError("steps built")

    monkeypatch.setattr("bvbal.estimators._steps", no_steps)
    u, t0 = recursion_coefficients(1.0, 1.0, 100_000, 3)
    assert u.tobytes() == np.full(100_000, 1.0 / 100_003).tobytes()
    assert t0 == 3 / 100_003
    with pytest.raises(AssertionError, match="steps built"):
        recursion_coefficients(0.9, 1.0, 10)


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


@pytest.mark.parametrize("c, beta, n, n0", [(1.0, 0.5, 5_000, 0), (2.0, 0.3, 3_000, 20),
                                          (8.0, 0.5, 2**14 + 3, 5)])
def test_averaged_recurrence_keeps_its_bits(c, beta, n, n0):
    # the backward recurrence R_j = 1 + (1 - gamma_{j+1}) R_{j+1}, run as
    # it was over numpy scalars
    gam = np.minimum(c * (np.arange(1, n + 1, dtype=float) + n0) ** (-beta), 1.0)
    q = 1.0 - gam
    R = np.empty(n)
    R[-1] = 1.0
    for i in range(n - 2, -1, -1):
        R[i] = 1.0 + q[i + 1] * R[i + 1]
    assert averaged_coefficients(c, beta, n, n0)[0].tobytes() == (gam * R / n).tobytes()


def test_oversized_step_without_offset_is_an_error():
    with pytest.raises(ConfigurationError):
        recursion_coefficients(2.0, 1.0, 10, 0)


def test_an_oversized_step_is_printed_as_a_float():
    # the message printed the numpy repr np.float64(2.0)
    with pytest.raises(ConfigurationError) as exc:
        recursion_coefficients(2.0, 0.5, 10, 0)
    assert str(exc.value) == ("step size c (j + n0)**(-beta) = 2.0 exceeds 1 at j=1 "
                              "with n0=0; increase n0 or reduce c")


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


# ------------------------------------------------------------- plan memo


def test_single_runs_build_their_coefficients_once(monkeypatch):
    # two runs of each kind at one (c, beta, n, n0) make one step build
    # per kind, and the estimates keep the bits of runs on cold builds
    spec, sched = unit_spec(sigma=0.5), DeltaSchedule(0.8, 0.2, n0=3)
    params = RecursiveParams(0.6, 0.8)
    runs = ((recursive_estimate, StreamKey(1)), (recursive_estimate, StreamKey(2)),
            (averaged_estimate, StreamKey(1)), (averaged_estimate, StreamKey(2)))
    cold = []
    for estimate, key in runs:
        _memo.clear()
        cold.append(estimate(spec, 2000, sched, params, key).estimate.tobytes())
    _memo.clear()
    steps = []
    monkeypatch.setattr(estimators, "_steps", lambda *args: steps.append(args) or _steps(*args))
    warm = [estimate(spec, 2000, sched, params, key).estimate.tobytes() for estimate, key in runs]
    assert warm == cold
    assert steps == [(0.6, 0.8, 2000, 3)] * 2
    assert sched.deltas(2000) is sched.deltas(2000)


def test_a_part_larger_than_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(estimators, "_MEMO_BYTES", 100_000)
    _memo.clear()
    sched = DeltaSchedule(1.0, 0.25)
    small, big = sched.deltas(1000), sched.deltas(20_000)  # 8 kB and 160 kB
    assert big.tobytes() == (np.arange(1.0, 20_001.0) ** -0.25).tobytes()
    assert list(_memo.parts) == [("deltas", 1.0, 0.25, 0, 1000)]
    assert sched.deltas(1000) is small and sched.deltas(20_000) is not big


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
    run = baseline_estimate(spec, 64, DeltaSchedule(1.0, Q21.alpha), StreamKey(0))
    assert run.estimate[0] == 0.25
    assert run.n == 64


def test_all_estimators_recover_a_constant_target():
    spec = unit_spec(theta=2.5, B=0.0, sigma=0.0)
    sched = DeltaSchedule(1.0, Q21.alpha)
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
    run = averaged_estimate(spec, 9, DeltaSchedule(1.0, Q21.alpha), params, StreamKey(1))
    assert run.estimate[0] == pytest.approx(2.5, rel=1e-12)


def test_unit_first_step_wipes_the_init():
    spec = unit_spec()
    sched = DeltaSchedule(1.0, Q21.alpha)
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
    sched = DeltaSchedule(1.0, Q21.alpha)
    key = StreamKey(8)
    samples = spec.sample_path(sched.deltas(12), key)
    w = np.zeros(12)
    w[5] = 1.0
    run = weighted_estimate(spec, 12, sched, w, key)
    assert np.array_equal(run.estimate, samples[5])


def test_weighted_combination_is_linear():
    spec = unit_spec()
    sched = DeltaSchedule(1.0, Q21.alpha)
    key = StreamKey(9)
    rng = np.random.default_rng(0)
    w1, w2 = rng.normal(size=20), rng.normal(size=20)
    e1 = weighted_estimate(spec, 20, sched, w1, key).estimate
    e2 = weighted_estimate(spec, 20, sched, w2, key).estimate
    e = weighted_estimate(spec, 20, sched, 0.3 * w1 + 0.7 * w2, key).estimate
    assert np.allclose(e, 0.3 * e1 + 0.7 * e2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("deltas, coeffs", [
    (np.full(5, 0.1), np.array([0.2])),
    (np.full(1, 0.1), np.full(5, 0.2)),
    (np.full((5, 1), 0.1), np.full((5, 1), 0.2)),
    (np.array(0.1), np.array(0.2)),
    (np.empty(0), np.empty(0)),
], ids=["one-coeff", "one-delta", "2-d", "0-d", "empty"])
def test_plan_rejects_deltas_and_coeffs_that_do_not_match(deltas, coeffs):
    # a one-coefficient plan over five deltas would report the risk of a
    # one-draw plan while reduce broadcast its coefficient over five samples
    with pytest.raises(ConfigurationError, match="one length"):
        LinearPlan(deltas, coeffs)


def test_weighted_length_mismatch():
    with pytest.raises(ConfigurationError):
        weighted_estimate(unit_spec(), 10, DeltaSchedule(1.0, Q21.alpha),
                          np.full(9, 1.0 / 9.0), StreamKey(0))


def test_averaged_requires_beta_below_one():
    with pytest.raises(ConfigurationError):
        averaged_estimate(unit_spec(), 10, DeltaSchedule(1.0, Q21.alpha),
                          RecursiveParams(1.0, 1.0), StreamKey(0))


def test_traces():
    spec = unit_spec()
    sched = DeltaSchedule(1.0, Q21.alpha)
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
    run = baseline_estimate(unit_spec(), 5, DeltaSchedule(1.0, Q21.alpha), StreamKey(0))
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


@pytest.mark.parametrize("kind, beta, alpha, ratios", [
    ("recursive", 0.8, None, (1.059, 1.032, 1.018)),
    ("averaged", 0.5, 0.25, (1.054, 1.017, 1.005)),
], ids=["recursive-beta-below-one", "averaged-alpha-above-balance"])
def test_leading_prediction_approaches_the_exact_risk(kind, beta, alpha, ratios):
    # the recursive beta < 1 formula, and the averaged variance-only return
    # for a schedule decaying faster than the balancing exponent
    spec = unit_spec()
    schedule = DeltaSchedule(1.0, Q21.alpha if alpha is None else alpha)
    build = LinearPlan.recursive if kind == "recursive" else LinearPlan.averaged
    got = []
    for n in (10**4, 10**5, 10**6):
        exact = build(n, schedule, RecursiveParams(1.0, beta)).mse(spec)
        lead = predict_mse_leading(kind, Q21, 1.0, 1.0, 1.0, n, c=1.0, beta=beta, alpha=alpha)
        got.append(exact / lead)
    assert got == pytest.approx(ratios, abs=1e-3)
    assert got[0] > got[1] > got[2] > 1.0


@pytest.mark.parametrize("B2, sigma2", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
    (1.0, -1.0),
])
def test_predicted_mse_needs_finite_non_negative_bias_and_noise(B2, sigma2):
    # nan and inf came back as nan and inf
    with pytest.raises(ValueError, match="B2 and sigma2 must be finite and non-negative"):
        predict_mse_leading("baseline", Q21, 1.0, B2, sigma2, 100)


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
    """Squared errors of the recursive estimate over reps streams, and the
    plan's exact MSE."""
    spec = unit_spec()
    sched = DeltaSchedule(scale=1.0, alpha=alpha)
    params = RecursiveParams(c, beta)
    root = StreamKey(seed)
    sq = np.empty(reps)
    for r in range(reps):
        est = recursive_estimate(spec, n, sched, params, root.child(r)).estimate[0]
        sq[r] = est * est  # theta = 0
    return sq, LinearPlan.recursive(n, sched, params).mse(spec)


def test_small_step_constant_diverges_from_optimal_rate():
    # c = 0.2 < q1/(2(q1+q2)) = 1/3 at beta = 1: the n**(2/3)-scaled MSE
    # grows without bound instead of stabilizing
    reps = 2000
    scaled, exact_scaled = [], []
    for i, n in enumerate((1000, 10_000, 100_000)):
        sq, exact = _mc_mse(0.2, 1.0, 1.0 / 6.0, n, reps, seed=100 + i)
        mse = float(sq.mean())
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
        sq, exact = _mc_mse(1.0, 0.9, 0.2, n, reps, seed=200 + i)
        mse[n] = float(sq.mean())
        assert abs(mse[n] - exact) < 5.0 * sq.std(ddof=1) / math.sqrt(reps)
    assert mse[100_000] < mse[1000]


# -------------------------------------------------------------- plan risk

# dim 2, theta != 0, a higher-order bias, and an init away from theta
RISK_SPEC = SyntheticOracleSpec(
    theta=np.array([0.7, -1.2]), B=np.array([1.5, -0.5]),
    noise_scale=np.array([0.8, 0.3]), order=Q21,
    higher_order_bias=np.array([2.0, -1.0]),
)
RISK_INIT = np.array([3.0, -2.0])
RISK_KINDS = ("baseline", "recursive", "averaged", "weighted")


def _risk_case(kind, n):
    """The plan of one kind at budget n and the public estimator that
    runs it, as a function of the stream."""
    sched = DeltaSchedule(0.7, Q21.alpha, n0=3)
    params = RecursiveParams(0.6, 0.8, RISK_INIT)
    if kind == "baseline":
        return LinearPlan.baseline(n, sched), lambda key: baseline_estimate(
            RISK_SPEC, n, sched, key)
    if kind == "recursive":
        return LinearPlan.recursive(n, sched, params), lambda key: recursive_estimate(
            RISK_SPEC, n, sched, params, key)
    if kind == "averaged":
        return LinearPlan.averaged(n, sched, params), lambda key: averaged_estimate(
            RISK_SPEC, n, sched, params, key)
    scheme = optimal_weights(n, 3, Q21, 1.5)
    wsched = DeltaSchedule(scheme.eta_star * 0.7, Q21.alpha, n0=3)
    return LinearPlan.weighted(n, wsched, scheme), lambda key: weighted_estimate(
        RISK_SPEC, n, wsched, scheme, key)


@pytest.mark.parametrize("kind", RISK_KINDS)
def test_plan_mse_matches_an_independent_fsum_route(kind):
    plan, _ = _risk_case(kind, 300)
    # the recursive two weigh the init, which sits away from theta
    assert (plan.init_coeff > 0.0) == (kind in ("recursive", "averaged"))
    # per coordinate: the fsum of the coefficient-weighted draw means,
    # minus theta, squared, plus that coordinate's weighted variance
    c, d = plan.coeffs, plan.deltas
    want = 0.0
    for i in range(RISK_SPEC.dim):
        means = (RISK_SPEC.theta[i] + RISK_SPEC.B[i] * d**2
                 + RISK_SPEC.higher_order_bias[i] * d**3)
        bias = math.fsum(c * means) + plan.init_coeff * RISK_INIT[i] - RISK_SPEC.theta[i]
        want += bias * bias + RISK_SPEC.noise_scale[i] ** 2 * math.fsum(c * c / d**2)
    assert plan.mse(RISK_SPEC, RISK_INIT) == pytest.approx(want, rel=1e-12)


def _unstreamed_mse(plan, spec, init):
    """`LinearPlan.mse` as it was before streaming, over n-length terms."""
    terms = plan.deltas ** spec.order.q1
    terms *= plan.coeffs
    bias = spec.theta * (math.fsum(plan.coeffs) - 1.0) + plan.init_coeff * init
    bias += spec.B * math.fsum(terms)
    if spec.higher_order_bias is not None:
        terms *= plan.deltas
        bias += spec.higher_order_bias * math.fsum(terms)
    np.power(plan.deltas, -spec.order.q2, out=terms)
    terms *= plan.coeffs
    terms *= terms
    noise2 = math.fsum(spec.noise_scale * spec.noise_scale)
    return math.fsum(bias * bias) + noise2 * math.fsum(terms)


@pytest.mark.parametrize("n", [2**14 - 1, 2 * 2**14 + 1])
@pytest.mark.parametrize("kind", RISK_KINDS)
def test_plan_mse_streamed_keeps_its_bits(kind, n):
    plan, _ = _risk_case(kind, n)
    for spec, init in [(RISK_SPEC, RISK_INIT), (unit_spec(q1=1.0, q2=0.5), np.zeros(1)),
                       (unit_spec(B=0.0, sigma=0.0), np.zeros(1))]:
        assert plan.mse(spec, init).hex() == _unstreamed_mse(plan, spec, init).hex()


def test_plan_mse_agrees_with_monte_carlo():
    n, reps = 100, 2000
    for i, kind in enumerate(RISK_KINDS):
        plan, run = _risk_case(kind, n)
        root = StreamKey(300 + i)
        sq = np.empty(reps)
        for r in range(reps):
            err = run(root.child(r)).estimate - RISK_SPEC.theta
            sq[r] = err @ err
        z = (sq.mean() - plan.mse(RISK_SPEC, RISK_INIT)) / (sq.std(ddof=1) / math.sqrt(reps))
        assert abs(z) <= 4.0, (kind, z)


@pytest.mark.parametrize("n, n0, K, lo, hi", [
    (100_000, 0, 1.0, 0.8413, 0.8413),  # boundary regime: bias and
    (100_000, 0, 2.0, 0.2995, 0.2995),  # variance ratios coincide
    (10_000, 500, 1.0, 1.0159, 1.0667),  # interior regime
])
def test_weighted_to_baseline_risk_ratio_is_monotone_in_t(n, n0, K, lo, hi):
    # MSE = B**2 b**2 + sigma**2 v for each plan, so the ratio is the
    # Moebius map (t b_w**2 + v_w) / (t b_b**2 + v_b) of t = B**2 / sigma**2:
    # monotone, with its range spanned by the ratios at t = 0 and t = inf
    scheme = optimal_weights(n, n0, Q21, K)
    plans = (LinearPlan.weighted(n, DeltaSchedule(scheme.eta_star, Q21.alpha, n0), scheme),
             LinearPlan.baseline(n, DeltaSchedule(1.0, Q21.alpha, n0)))
    b2w, b2b = (p.mse(unit_spec(sigma=0.0)) for p in plans)
    vw, vb = (p.mse(unit_spec(B=0.0)) for p in plans)
    ends = sorted((vw / vb, b2w / b2b))
    assert (round(ends[0], 4), round(ends[1], 4)) == (lo, hi)
    if lo == hi:
        assert ends[0] == pytest.approx(ends[1], rel=1e-12)
    cells = []
    for B in np.geomspace(0.1, 10.0, 5):
        for sigma in np.geomspace(0.1, 10.0, 5):
            spec = unit_spec(B=B, sigma=sigma)
            ratio = plans[0].mse(spec) / plans[1].mse(spec)
            t = B * B / (sigma * sigma)
            assert ratio == pytest.approx((t * b2w + vw) / (t * b2b + vb), rel=1e-12)
            assert ends[0] * (1 - 1e-12) <= ratio <= ends[1] * (1 + 1e-12)
            cells.append((t, ratio))
    steps = np.diff([ratio for _, ratio in sorted(cells)])
    slack = 1e-12 * ends[1]
    assert np.all(steps >= -slack) or np.all(steps <= slack)


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
