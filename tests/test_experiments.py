"""Experiment harness: pairing discipline, report determinism, the exact
weighted-risk prediction, and the reference-table builders."""

import hashlib
import math
import sys

import numpy as np
import pytest

from bvbal import (
    BiasOrder,
    ConfigurationError,
    DeltaSchedule,
    EstimatorSetting,
    ExperimentConfig,
    QueueParams,
    QueueSetting,
    RecursiveParams,
    StreamKey,
    adversarial_risk_grid,
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    averaged_estimate,
    baseline_estimate,
    emit_weight_distribution,
    optimal_weights,
    paired_risk_ratio,
    recursive_estimate,
    reproduce_table,
    run_experiment,
    weighted_estimate,
)
from bvbal.calibration import xi_matrix, ztilde_squared
from bvbal.experiments import CSV_HEADER, MM1_BUDGETS_FULL, weight_distribution_csv

from helpers import unit_spec

Q21 = BiasOrder(2.0, 1.0)


def small_config(**kw):
    defaults = dict(
        model=unit_spec(),
        estimators=(
            EstimatorSetting("baseline"),
            EstimatorSetting("recursive"),
            EstimatorSetting("averaged"),
            EstimatorSetting("weighted"),
        ),
        budgets=(64, 128),
        K=1.0,
        replications=40,
        seed=17,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --------------------------------------------------------------- reports


def crn_queue_config():
    return ExperimentConfig(
        model=QueueSetting(QueueParams(4.0, 4.0, 10), mode="cfd", target="service", crn=True),
        estimators=(EstimatorSetting("baseline"), EstimatorSetting("recursive"),
                    EstimatorSetting("averaged"), EstimatorSetting("weighted", K=2.0)),
        budgets=(200, 500), n0=50, replications=12, seed=5,
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make, digest", [
    (small_config, "b477666c2e46c9eedc4dba66f8ad3e4511cf334dc752d9c400295d9e4a692eb0"),
    (crn_queue_config, "761818d6b295224840e47974493b7bb3d64e9b3c15b338d795ea7c5c2765e70d"),
], ids=["synthetic", "crn-queue"])
def test_report_bytes_are_pinned(make, digest, workers):
    # sha256 of the JSON report: samples, reductions and aggregation keep
    # their bits at any worker count
    text = run_experiment(make(), workers=workers).json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_threads_share_no_state():
    # more worker threads than cores, switching as often as the
    # interpreter allows: each slice owns its buffers, so the bytes hold
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (4, 7):
            text = run_experiment(crn_queue_config(), workers=workers).json_text()
            assert hashlib.sha256(text.encode()).hexdigest() == (
                "761818d6b295224840e47974493b7bb3d64e9b3c15b338d795ea7c5c2765e70d")
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_does_not_change_the_bytes():
    config = small_config()
    one = run_experiment(config, workers=1)
    two = run_experiment(config, workers=2)
    assert one.json_text() == two.json_text()
    assert one.csv_text() == two.csv_text()


def test_rerun_is_byte_identical(tmp_path):
    config = small_config()
    a, b = run_experiment(config), run_experiment(config)
    assert a.json_text() == b.json_text()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_csv_header_and_shape():
    report = run_experiment(small_config())
    text = report.csv_text().splitlines()
    assert text[0] == CSV_HEADER == "estimator,n,mse,se,ratio,theory"
    assert len(text) == 1 + 4 * 2  # four estimators, two budgets
    assert len(report.rows) == 8


def test_replication_streams_are_addressable():
    # replication r at budget index bidx draws from StreamKey(seed, (r, bidx)),
    # and its squared error is exactly that of the public single-run
    # estimate on that stream, with the harness's schedule and parameters
    alpha, d_scale = Q21.alpha, amrr_recursive_free(Q21).d_scale
    queue = QueueSetting(crn=True)
    # (model, n0, budgets, K); K = 1 is infeasible at n = 100, n0 = 500
    cases = ((unit_spec(), 0, (64, 128), 1.0), (queue, 500, (100,), 2.0))
    for model, n0, budgets, K in cases:
        config = small_config(model=model, n0=n0, budgets=budgets, K=K)
        report = run_experiment(config)
        if model is queue:
            oracle, theta = queue.make_oracle(), queue.true_value()
        else:
            oracle, theta = model, model.theta
        for bidx, n in enumerate(config.budgets):
            scheme = optimal_weights(n, n0, Q21, K)
            shrinking = DeltaSchedule(d_scale, alpha, n0)
            for r in (0, 7, 39):
                key = StreamKey(17, (r, bidx))
                runs = {
                    "baseline": baseline_estimate(oracle, n, DeltaSchedule(1.0, alpha, n0), key),
                    "recursive": recursive_estimate(oracle, n, shrinking,
                                                    RecursiveParams(1.0, 1.0), key),
                    "averaged": averaged_estimate(oracle, n, shrinking,
                                                  RecursiveParams(1.0, 0.5), key),
                    f"weighted-K{K:g}": weighted_estimate(
                        oracle, n, DeltaSchedule(scheme.eta_star, alpha, n0), scheme, key),
                }
                for label, run in runs.items():
                    diff = run.estimate - theta
                    assert report.errors(label, n)[r] == float(diff @ diff), (label, n, r)


def test_each_cell_draws_its_stream_once(monkeypatch):
    # every plan of a (replication, budget) cell replays one draw
    calls = []
    original = StreamKey.generator

    def counting(self):
        calls.append(self.path)
        return original(self)

    monkeypatch.setattr(StreamKey, "generator", counting)
    config = small_config()
    run_experiment(config)
    cells = [(r, b) for r in range(config.replications) for b in range(len(config.budgets))]
    assert sorted(calls) == cells


def test_mse_and_se_definitions():
    report = run_experiment(small_config())
    for row in report.rows:
        e = report.errors(row.estimator, row.n)
        assert row.mse == pytest.approx(math.fsum(e) / e.shape[0], rel=1e-15)
        assert row.se == pytest.approx(float(np.std(e, ddof=1) / math.sqrt(e.shape[0])), rel=1e-12)
        if row.estimator == "baseline":
            assert row.ratio == 1.0


def test_row_and_error_lookup():
    report = run_experiment(small_config())
    assert report.row("recursive", 64).n == 64
    with pytest.raises(KeyError):
        report.row("median", 64)
    with pytest.raises(KeyError):
        report.errors("baseline", 999)


def test_ratio_is_none_without_a_baseline():
    config = small_config(estimators=(EstimatorSetting("recursive"),))
    report = run_experiment(config)
    assert all(r.ratio is None for r in report.rows)
    # empty ratio/theory fields serialize as empty cells
    line = report.csv_text().splitlines()[1]
    assert line.split(",")[4] == ""


def test_degenerate_model_reports_unit_ratio():
    config = small_config(model=unit_spec(B=0.0, sigma=0.0), budgets=(32,))
    report = run_experiment(config)
    assert report.degenerate
    assert all(r.mse == 0.0 and r.ratio == 1.0 for r in report.rows)
    rr = paired_risk_ratio(report, "weighted-K1", 32)
    assert rr == (1.0, 0.0, True)


def test_paired_risk_ratio_properties():
    report = run_experiment(small_config())
    rr = paired_risk_ratio(report, "baseline", 64)
    assert rr == (1.0, 0.0, False)
    rr = paired_risk_ratio(report, "weighted-K1", 128)
    e = report.errors("weighted-K1", 128)
    b = report.errors("baseline", 128)
    assert rr.ratio == pytest.approx(math.fsum(e) / math.fsum(b), rel=1e-15)
    assert rr.halfwidth > 0.0 and not rr.degenerate
    assert rr.ratio == report.row("weighted-K1", 128).ratio


def test_weighted_theory_is_the_exact_finite_n_risk():
    d, K, n = 0.8, 1.5, 256
    spec = unit_spec(B=2.0, sigma=0.5)
    config = small_config(model=spec, budgets=(n,), K=K, baseline_d=d)
    report = run_experiment(config)
    theory = report.row(f"weighted-K{K:g}", n).theory
    scheme = optimal_weights(n, 0, Q21, K)
    # direct route: weighted bias and variance from the raw weights
    deltas = scheme.deltas(d)
    bias = math.fsum(scheme.weights * 2.0 * deltas**2)
    var = 0.25 * math.fsum(scheme.weights**2 / deltas**2)
    assert theory == pytest.approx(bias * bias + var, rel=1e-10)
    # quadratic-form route
    xi = xi_matrix(Q21, n)
    d_eff = scheme.eta_star * d
    quad = (4.0 * d_eff**4 * scheme.a_star**2
            + 0.25 * ztilde_squared(scheme.a_star, xi) / d_eff**2)
    assert theory == pytest.approx(quad, rel=1e-10)


def test_weighted_mc_agrees_with_exact_theory():
    n, reps = 2000, 800
    config = small_config(
        estimators=(EstimatorSetting("baseline"), EstimatorSetting("weighted")),
        budgets=(n,), replications=reps, seed=99,
    )
    report = run_experiment(config)
    row = report.row("weighted-K1", n)
    assert row.mse == pytest.approx(row.theory, rel=0.2)


def test_weighted_ratio_drifts_down_toward_the_limit():
    # measured ratios stabilize from above as the budget grows; the
    # drift must be non-increasing up to replication noise
    config = small_config(
        estimators=(EstimatorSetting("baseline"), EstimatorSetting("weighted")),
        budgets=(10_000, 30_000, 100_000),
        replications=250,
        seed=2026,
    )
    report = run_experiment(config)
    limit = amrr_general(Q21, 1.0)
    rows = [paired_risk_ratio(report, "weighted-K1", n) for n in config.budgets]
    for near, far in zip(rows, rows[1:]):
        assert far.ratio <= near.ratio + near.halfwidth + far.halfwidth
    assert all(r.ratio > limit for r in rows)
    drift = rows[0].ratio - rows[-1].ratio
    assert drift + rows[0].halfwidth + rows[-1].halfwidth > 0.0


def test_recursive_and_averaged_defaults_resolve_to_calibrated_values():
    # defaults: recursive c=1 beta=1, averaged beta=1/2, both at the
    # re-optimized scale; theory columns must follow those choices
    n = 512
    config = small_config(budgets=(n,))
    report = run_experiment(config)
    from bvbal import predict_mse_leading

    d_scale = amrr_recursive_free(Q21).d_scale
    want = predict_mse_leading("recursive", Q21, d_scale, 1.0, 1.0, n, c=1.0, beta=1.0)
    assert report.row("recursive", n).theory == pytest.approx(want, rel=1e-14)
    want = predict_mse_leading("averaged", Q21, d_scale, 1.0, 1.0, n, c=1.0, beta=0.5)
    assert report.row("averaged", n).theory == pytest.approx(want, rel=1e-14)


def test_queue_model_runs_without_theory():
    config = ExperimentConfig(
        model=QueueSetting(),
        estimators=(EstimatorSetting("baseline"), EstimatorSetting("recursive")),
        budgets=(200,),
        n0=500,
        replications=10,
        seed=3,
    )
    report = run_experiment(config)
    assert all(r.theory is None for r in report.rows)
    assert report.row("recursive", 200).ratio is not None


# ---------------------------------------------------------- configuration


def test_estimator_setting_validation():
    with pytest.raises(ConfigurationError):
        EstimatorSetting("median")
    with pytest.raises(ConfigurationError):
        EstimatorSetting("baseline", label="a,b")
    with pytest.raises(ConfigurationError):
        EstimatorSetting("baseline", label="a|b")
    # a field the kind ignores is an error, not a silent no-op
    ignored = {
        "baseline": ("c", "beta", "d_scale", "K"),
        "recursive": ("K",),
        "averaged": ("K",),
        "weighted": ("c", "beta", "d_scale"),
    }
    for kind, fields in ignored.items():
        for field in fields:
            with pytest.raises(ConfigurationError, match="take none of"):
                EstimatorSetting(kind, **{field: 0.5})
    EstimatorSetting("recursive", c=0.5, beta=0.5, d_scale=0.5)
    EstimatorSetting("averaged", c=0.5, beta=0.5, d_scale=0.5)
    EstimatorSetting("weighted", K=2.0)


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(estimators=())
    with pytest.raises(ConfigurationError):
        small_config(replications=1)
    with pytest.raises(ConfigurationError):
        small_config(budgets=())
    with pytest.raises(ConfigurationError):
        small_config(budgets=(0,))
    with pytest.raises(ConfigurationError):
        small_config(K=0.0)
    with pytest.raises(ConfigurationError):
        small_config(seed=-1)
    with pytest.raises(ConfigurationError):
        small_config(n0=-1)
    with pytest.raises(ConfigurationError):
        small_config(baseline_d=0.0)


@pytest.mark.parametrize("setting", [
    EstimatorSetting("recursive", c=-1.0),
    EstimatorSetting("recursive", beta=2.0),
    EstimatorSetting("recursive", c=math.nan),
    EstimatorSetting("averaged", beta=1.0),
], ids=["recursive-c-negative", "recursive-beta-2", "recursive-c-nan", "averaged-beta-1"])
def test_harness_rejects_what_the_single_run_estimators_reject(setting):
    config = small_config(estimators=(EstimatorSetting("baseline"), setting))
    with pytest.raises(ConfigurationError):
        run_experiment(config)


def test_duplicate_labels_are_rejected():
    config = small_config(
        estimators=(EstimatorSetting("baseline"), EstimatorSetting("baseline")),
    )
    with pytest.raises(ConfigurationError, match="unique"):
        run_experiment(config)


def test_negative_cap_is_rejected_at_resolution():
    config = small_config(
        estimators=(EstimatorSetting("weighted", K=-1.0),),
    )
    with pytest.raises(ConfigurationError, match="K must be positive"):
        run_experiment(config)


def test_config_hash_tracks_content():
    assert small_config().hash() == small_config().hash()
    assert small_config().hash() != small_config(seed=18).hash()
    assert small_config().hash() != small_config(budgets=(64,)).hash()
    report = run_experiment(small_config())
    assert report.config_hash == small_config().hash()


def test_queue_setting_validation_and_mapping():
    with pytest.raises(ValueError):
        QueueSetting(mode="fd")
    with pytest.raises(ValueError):
        QueueSetting(target="rate")
    s = QueueSetting()
    assert s.order == Q21 and s.dim == 1
    assert s.true_value().shape == (1,)
    assert QueueSetting(mode="sp").dim == 2
    assert QueueSetting(mode="sp").true_value().shape == (2,)
    assert QueueSetting(target="service").true_value()[0] < 0
    from bvbal import MM1DerivativeOracle, MM1GradientOracleSP

    assert isinstance(s.make_oracle(), MM1DerivativeOracle)
    assert isinstance(QueueSetting(mode="sp").make_oracle(), MM1GradientOracleSP)


# ------------------------------------------------------- weight emission


def test_weight_distribution_rows():
    budgets = (100, 300, 1000, 2000)
    rows = emit_weight_distribution(budgets, Q21, 1.0)
    assert len(rows) == sum(budgets)
    by_n = {n: np.array([w for m, _, w in rows if m == n]) for n in budgets}
    for n in budgets:
        assert math.fsum(by_n[n]) == pytest.approx(1.0, abs=1e-10)
    # the negative head and positive tail at the reference budget
    assert by_n[1000][0] < 0.0 < by_n[1000][-1]
    # the largest magnitude shrinks with the budget once the head has
    # formed (n = 100 is still pre-asymptotic)
    peaks = [np.abs(by_n[n]).max() for n in (300, 1000, 2000)]
    assert peaks[0] > peaks[1] > peaks[2]
    text = weight_distribution_csv(rows).splitlines()
    assert text[0] == "n,j,weight"
    assert len(text) == 1 + sum(budgets)


# ------------------------------------------------------ adversarial sweep


def test_adversarial_grid_smoke():
    result = adversarial_risk_grid(
        Q21, 1.0, 400, replications=50, seed=5,
        B_values=(0.5, 2.0), sigma_values=(1.0,),
    )
    assert len(result.cells) == 2
    assert result.worst == max(result.cells, key=lambda c: c.ratio)
    assert result.amrr == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert all(0.0 < c.ratio < 3.0 for c in result.cells)
    again = adversarial_risk_grid(
        Q21, 1.0, 400, replications=50, seed=5,
        B_values=(0.5, 2.0), sigma_values=(1.0,),
    )
    assert [c.ratio for c in again.cells] == [c.ratio for c in result.cells]


# ------------------------------------------------------- reference tables


def test_closed_form_tables_match_the_limits():
    t1 = reproduce_table(1)
    assert t1.kind == "closed-form"
    assert t1.rows[0][1] == pytest.approx(49.0 / 36.0, rel=1e-15)
    assert "c=2.333" in t1.rows[0][2]
    assert t1.rows[1][1] == t1.rows[2][1] == pytest.approx(amrr_recursive_free(Q21).ratio)
    assert "d_scale=0.8327" in t1.rows[1][2]

    t2 = reproduce_table(2)
    tied = amrr_recursive_tied(BiasOrder(1.0, 1.0))
    free = amrr_recursive_free(BiasOrder(1.0, 1.0))
    # printed two-decimal precision of the reference row
    assert round(t2.rows[0][1], 2) == 1.27 and round(tied.c_opt, 2) == 2.25
    assert round(t2.rows[1][1], 2) == 1.09
    assert round(t2.rows[2][1], 2) == 1.09
    assert round(free.d_scale, 2) == 0.78

    for table_id, order in ((3, Q21), (4, BiasOrder(1.0, 1.0))):
        t = reproduce_table(table_id)
        assert t.headers == ("K", "amrr")
        assert len(t.rows) == 16
        for K, val in t.rows:
            assert val == amrr_general(order, K)
        assert t.rows[0][0] == 0.5 and t.rows[-1][0] == 2.0

    with pytest.raises(ValueError):
        reproduce_table(9)
    with pytest.raises(ValueError):
        reproduce_table(0)


def test_table_rendering():
    t = reproduce_table(3)
    text = t.render().splitlines()
    assert text[0].split() == ["K", "amrr"]
    assert len(text) == 17
    csv = t.csv_text().splitlines()
    assert csv[0] == "K,amrr" and len(csv) == 17
    assert '"table_id": 3' in t.json_text()


def test_monte_carlo_table_smoke():
    t = reproduce_table(5, scale=0.1, replications=20, seed=11, max_budget=1000)
    assert t.kind == "monte-carlo"
    assert t.headers[:2] == ("n", "baseline_mse")
    assert t.headers[2] == "ratio_recursive"
    assert "ratio_weighted-K1" in t.headers and "ratio_weighted-K4" in t.headers
    assert [r[0] for r in t.rows] == [1000]
    assert all(math.isfinite(v) and v > 0 for v in t.rows[0][1:])
    assert t.report is not None and t.report.replications == 20
    again = reproduce_table(5, scale=0.1, replications=20, seed=11, max_budget=1000)
    assert again.csv_text() == t.csv_text()


def test_table_budget_guards():
    # scaled minimum below 1e3
    with pytest.raises(ValueError, match="below 1e3"):
        reproduce_table(5, scale=0.05, replications=10)
    # everything above the cap without the opt-in flag
    with pytest.raises(ValueError, match="allow_large"):
        reproduce_table(5, scale=1.0, replications=10, max_budget=5000)
    assert MM1_BUDGETS_FULL == (10_000, 20_000, 30_000, 50_000, 80_000, 100_000)
