"""Experiment harness: pairing discipline, report determinism, the exact
weighted-risk prediction, and the reference-table builders."""

import dataclasses
import gc
import hashlib
import logging
import math
import re
import statistics
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import bvbal.calibration as calibration
import bvbal.experiments as experiments
from bvbal import (
    BiasOrder,
    ConfigurationError,
    DeltaSchedule,
    EstimatorSetting,
    ExperimentConfig,
    InfeasibleError,
    QueueParams,
    QueueSetting,
    RecursiveParams,
    StreamKey,
    SyntheticOracleSpec,
    adversarial_risk_grid,
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    averaged_estimate,
    baseline_estimate,
    optimal_weights,
    paired_risk_ratio,
    recursive_estimate,
    reproduce_table,
    run_experiment,
    weighted_estimate,
)
from bvbal.calibration import _memo, phi_sum, xi_matrix, ztilde_squared
from bvbal.experiments import CSV_HEADER, MAX_WORKERS, MM1_BUDGETS_FULL

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
    (small_config, "67b2a09260b6405978fa1d79bada3bff37fbfcc03e7f70e3075f67a29389a484"),
    (crn_queue_config, "bcdd41c8ce612c575b7d4d4047cf1d326cb16620ea2e9d353b9c2bddf383300a"),
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
                "bcdd41c8ce612c575b7d4d4047cf1d326cb16620ea2e9d353b9c2bddf383300a")
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_does_not_change_the_bytes():
    config = small_config()
    one = run_experiment(config, workers=1)
    two = run_experiment(config, workers=2)
    assert one.json_text() == two.json_text()
    assert one.csv_text() == two.csv_text()


_DRAWS = []  # (thread, replication) of every draw of a _Recording model


class _Recording(SyntheticOracleSpec):
    """A synthetic model that records which thread draws each replication."""

    def draw(self, n, stream):
        _DRAWS.append((threading.get_ident(), stream.path[0]))
        return super().draw(n, stream)


def test_the_calling_thread_runs_the_first_slice():
    # w workers split the replications into w index slices: the calling
    # thread runs the first, so one worker starts no thread, and the pool
    # runs the others, one slice per thread
    config = small_config(model=_Recording(theta=[0.0], B=[1.0], noise_scale=[1.0],
                                           order=Q21), replications=10)
    here, texts = threading.get_ident(), set()
    for workers, first in ((1, 10), (2, 5), (3, 3)):
        _DRAWS.clear()
        texts.add(run_experiment(config, workers=workers).json_text())
        mine = sorted({r for thread, r in _DRAWS if thread == here})
        pool = {thread for thread, _ in _DRAWS} - {here}
        assert mine == list(range(first))
        assert sorted({r for thread, r in _DRAWS if thread != here}) == list(range(first, 10))
        assert not pool if workers == 1 else 0 < len(pool) <= workers - 1
    assert len(texts) == 1


@pytest.mark.parametrize("q", [(2.0, 1.0), (1.5, 0.5)])
def test_threads_share_the_prepared_maps_off_the_unit_model(monkeypatch, q):
    # every worker replays the same read-only maps, prepared once per
    # distinct (schedule, budget) and run, here with the divisor reused
    # (q2 = 1) or stored, three coordinates and a higher-order bias term;
    # the recursive and averaged entries share one schedule, so each
    # budget prepares three maps for its four plans
    spec = SyntheticOracleSpec(theta=[0.5, -1.0, 2.0], B=[1.0, 0.3, -2.0],
                               noise_scale=[1.0, 0.5, 2.0], order=BiasOrder(*q),
                               higher_order_bias=[0.7, -0.2, 1.5])
    config = small_config(model=spec, replications=9)
    prepared = []
    original = SyntheticOracleSpec._constants

    def counting(self, deltas):
        prepared.append(deltas.shape[0])
        return original(self, deltas)

    monkeypatch.setattr(SyntheticOracleSpec, "_constants", counting)
    texts = set()
    for workers in (1, 2, 3):
        prepared.clear()
        texts.add(run_experiment(config, workers=workers).json_text())
        assert sorted(prepared) == sorted(n for n in config.budgets for _ in range(3))
    assert len(texts) == 1


@pytest.mark.parametrize("workers", [0, -3, MAX_WORKERS + 1, 2.5, True, math.inf, math.nan])
def test_bad_worker_counts_are_rejected(workers):
    # rejected before any plan is built or any thread is started
    with pytest.raises(ConfigurationError, match="workers must be an integer"):
        run_experiment(small_config(), workers=workers)


def test_rerun_is_byte_identical():
    config = small_config()
    a, b = run_experiment(config), run_experiment(config)
    assert a.json_text() == b.json_text()
    assert a.csv_text() == b.csv_text()


# ------------------------------------------------------------- plan memo

@pytest.fixture
def solves(monkeypatch):
    """Empty the plan memo, and record every weight solve a run makes."""
    _memo.clear()
    calls = []
    original = experiments.optimal_weights

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(experiments, "optimal_weights", counting)
    return calls


@pytest.mark.parametrize("make", [small_config, crn_queue_config], ids=["synthetic", "crn-queue"])
def test_a_memo_hit_is_byte_identical_to_a_cold_run(make, solves):
    # a plan part depends on neither the seed nor the replication count,
    # so a rerun at either, or at another worker count, solves nothing
    for seed, reps, workers in ((3, 20, 1), (4, 9, 2), (make().seed, 13, 3)):
        config = dataclasses.replace(make(), seed=seed, replications=reps)
        run_experiment(make())
        solves.clear()
        hit = run_experiment(config, workers=workers).json_text()
        assert solves == []
        _memo.clear()
        assert run_experiment(config, workers=workers).json_text() == hit
        assert solves


@pytest.mark.parametrize("change, solved", [
    (dict(K=2.0), True), (dict(n0=3), True), (dict(budgets=(64,)), False),
    (dict(baseline_d=0.5), False), (dict(model=unit_spec(q1=1.0)), True),
    (dict(estimators=(EstimatorSetting("baseline", label="flat"),
                      EstimatorSetting("weighted"))), False),
], ids=["K", "n0", "budgets", "baseline_d", "bias-order", "label"])
def test_a_hit_solves_nothing_and_a_plan_field_rebuilds(change, solved, solves):
    # a weight scheme is keyed by (n, n0, q1, q2, K): a change to one of
    # those solves again, and any other change rebuilds the plans from
    # the memo's scheme; either way the bytes are a cold run's
    base = small_config(estimators=(EstimatorSetting("baseline"), EstimatorSetting("weighted")))
    run_experiment(base)
    solves.clear()
    run_experiment(dataclasses.replace(base, seed=99, replications=7), workers=2)
    assert solves == []
    config = dataclasses.replace(base, seed=99, replications=7, **change)
    text = run_experiment(config).json_text()
    assert bool(solves) == solved
    _memo.clear()
    assert run_experiment(config).json_text() == text


def test_new_model_constants_reuse_the_plans_and_recompute_the_theory(solves):
    # B, sigma, theta and the higher-order bias set the samples and the
    # theory column, never a plan; the bias order is checked above
    first = small_config(model=unit_spec(B=2.0, sigma=0.5))
    before = run_experiment(first)
    for spec in (unit_spec(B=0.1, sigma=7.0), unit_spec(theta=1.5, hob=0.3)):
        config = dataclasses.replace(first, model=spec)
        solves.clear()
        hit = run_experiment(config)
        assert solves == []
        _memo.clear()
        cold = run_experiment(config)
        assert solves and hit.json_text() == cold.json_text()
        assert [r.theory for r in hit.rows] != [r.theory for r in before.rows]


def test_the_adversarial_grid_builds_its_plans_once(solves):
    # its 25 cells change only B and sigma, so 24 of them are memo hits
    grid = adversarial_risk_grid(Q21, 1.0, 64, replications=4, seed=3)
    assert len(grid.cells) == 25 and len(solves) == 1


def test_the_memo_keeps_every_configuration_that_fits(solves):
    # two budgets with one weighted entry: two solves, and none when
    # either configuration comes back
    counts = []
    for config in (small_config(), small_config(K=2.0), small_config(), small_config(K=2.0)):
        solves.clear()
        run_experiment(config)
        counts.append(len(solves))
    assert counts == [2, 2, 0, 0]


def test_an_infeasible_entry_raises_on_every_call(solves):
    run_experiment(small_config())
    config = small_config(estimators=(EstimatorSetting("baseline"),
                                      EstimatorSetting("weighted", K=0.5)), budgets=(1000,))
    solves.clear()
    for _ in range(2):
        with pytest.raises(InfeasibleError, match="no feasible weight scheme at n=1000, K=0.5"):
            run_experiment(config)
    assert len(solves) == 2  # the failed solve is not kept


def test_memo_parts_are_read_only(solves):
    # per budget: the running mean's coefficients (the baseline's and the
    # recursive entry's), the averaged ones, three deltas arrays (the
    # baseline's constant one, the one the recursive and averaged entries
    # share, the weighted one), the weight scheme, its risk sums, and the
    # solver's Gram matrix, the one part without an array
    run_experiment(small_config())
    arrays = {"recursive": lambda v: v[0], "averaged": lambda v: v[0], "deltas": lambda v: v,
              "weights": lambda v: v.weights, "risk sums": lambda v: v, "gram": lambda v: None}
    parts = [(key[0], arrays[key[0]](value)) for key, (value, _) in _memo.parts.items()]
    assert sorted(kind for kind, _ in parts) == sorted(
        ["recursive", "averaged", "deltas", "deltas", "deltas", "weights", "risk sums",
         "gram"] * 2)
    assert all(charge == calibration._ENTRY_BYTES
               for key, (_, charge) in _memo.parts.items() if key[0] == "gram")
    for _, array in (part for part in parts if part[0] != "gram"):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_every_run_of_a_clamping_plan_warns_once(caplog, solves):
    # c = 8, beta = 0.5, n0 = 5: steps 8 (j + 5)**-0.5 exceed 1 for j <= 58;
    # the second run is a memo hit and still says so
    config = small_config(estimators=(EstimatorSetting("baseline"),
                                      EstimatorSetting("recursive", c=8.0, beta=0.5)),
                          budgets=(100,), n0=5)
    coeffs = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="bvbal.estimators"):
            run_experiment(config)
        assert [r.getMessage() for r in caplog.records] == [
            "clamping 58 recursive step(s) above 1 (c=8, beta=0.5, n0=5)"]
        coeffs.append(_memo.parts[("recursive", 8.0, 0.5, 100, 5)][0][0])
    assert coeffs[0] is coeffs[1]


def test_the_memo_retains_at_most_its_bound(monkeypatch, solves):
    # at a 1 MiB bound, a configuration whose parts take about 5 MB, then
    # a small one: the memo keeps the most recent parts within the bound,
    # and the memory still held after both runs is about that much
    bound = 2**20
    monkeypatch.setattr(calibration, "_MEMO_BYTES", bound)
    large = small_config(budgets=(40_000, 60_000), replications=2)
    run_experiment(small_config(budgets=(7,)))  # lazy imports are not the memo's
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run_experiment(large)
        assert _memo.nbytes <= bound
        run_experiment(small_config())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert _memo.nbytes <= bound
    assert ("recursive", 1.0, 1.0, 64, 0) in _memo.parts
    assert held <= bound + 2**16, held


def test_a_warm_synthetic_run_allocates_only_its_maps_buffers_and_one_draw(solves):
    # a warm run takes its plans, the baseline's parts among them, and a
    # weighted plan's risk sums from the memo, so what it allocates at
    # budget n is the means of its three prepared maps (one per distinct
    # schedule), the slice's path buffer and one draw block at a time;
    # the baseline's own two n-length arrays would exceed it
    n = 20_000
    config = small_config(budgets=(n,), replications=4)
    run_experiment(config)
    gc.collect()
    tracemalloc.start()
    try:
        run_experiment(dataclasses.replace(config, seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n * config.model.dim + 2**16, peak


def test_threads_running_two_configurations_keep_their_bytes():
    # four threads alternate two configurations, switching as often as the
    # interpreter allows, so a run may find either one's parts in the memo
    # or build them while another thread does; every report keeps the
    # bytes of a run alone, which test_report_bytes_are_pinned pins
    makes = (small_config, crn_queue_config)
    alone = {make: run_experiment(make()).json_text() for make in makes}
    got, errors = [], []

    def work(first):
        try:
            for i in range(4):
                make = makes[(first + i) % 2]
                got.append((alone[make], run_experiment(make()).json_text()))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 16 and all(want == text for want, text in got)


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


def test_a_queue_run_makes_one_oracle(monkeypatch):
    # every plan takes the bias order from the run's oracle: reading it
    # off the setting built an oracle per plan, 7 for table 5's six plans
    calls = []
    original = QueueSetting.make_oracle

    def counting(self):
        calls.append(self.mode)
        return original(self)

    monkeypatch.setattr(QueueSetting, "make_oracle", counting)
    reproduce_table(5, replications=2, seed=1)
    assert calls == ["cfd"]


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
    assert report.row("recursive", 64.0) is report.row("recursive", 64)
    with pytest.raises(KeyError):
        report.row("median", 64)
    with pytest.raises(KeyError):
        report.errors("baseline", 999)
    # n = 64.9 used to find the n = 64 row, and nan to raise a bare
    # "cannot convert float NaN to integer"
    for n in (64.9, 100.9, math.nan, math.inf):
        for lookup in (report.row, report.errors,
                       lambda label, n: paired_risk_ratio(report, label, n)):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                lookup("recursive", n)


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


def test_paired_risk_ratio_is_the_row_ratio_bit_for_bit():
    # the ratio was fsum(e) / fsum(b) while the row divides the two MSEs,
    # and 13 of these 60 rows differed in the last bit
    for seed in range(10):
        report = run_experiment(small_config(replications=50, seed=seed))
        for row in report.rows:
            if row.estimator != report.baseline:
                rr = paired_risk_ratio(report, row.estimator, row.n)
                assert rr.ratio == row.ratio and not rr.degenerate, (seed, row)


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


def test_a_finite_mse_has_a_finite_se():
    # at d = 1e-80 the squared errors reach about 1e158, and np.std squared
    # their deviations past the float range: every row printed se=inf
    config = small_config(budgets=(1000,), baseline_d=1e-80, replications=10, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_experiment(config)
    for row in report.rows:
        e = report.errors(row.estimator, 1000)
        assert row.mse > 1e150 and math.isfinite(row.se)
        assert row.se == pytest.approx(statistics.stdev(e) / math.sqrt(10), rel=1e-12)


def test_an_entry_scale_past_the_float_range_is_rejected():
    # d_scale * baseline_d = 2e77 puts d**4 past the float range; fsum of
    # the squared errors overflowed
    config = small_config(estimators=(EstimatorSetting("baseline"),
                                      EstimatorSetting("recursive", d_scale=2.0)),
                          budgets=(1000,), baseline_d=1e77, replications=10)
    with pytest.raises(ConfigurationError) as exc:
        run_experiment(config)
    assert str(exc.value) == (
        "the scale of entry 'recursive' must lie in about (1.491e-81, 1.158e+77), where "
        "d**(2 q1) and d**(-2 q2) are finite and non-zero, got 2e+77")


def test_a_theory_past_the_float_range_is_none():
    # at scale 1e77 the rows are finite, but the recursive entry's
    # leading-order bias (c d**2 / (c - 1/3))**2 overflows
    config = small_config(estimators=(EstimatorSetting("baseline"),
                                      EstimatorSetting("recursive", d_scale=1.0)),
                          budgets=(1000,), baseline_d=1e77, replications=10)
    report = run_experiment(config)
    assert all(math.isfinite(r.mse) and math.isfinite(r.se) for r in report.rows)
    assert report.row("baseline", 1000).theory is not None
    assert report.row("recursive", 1000).theory is None


@pytest.mark.parametrize("constant, name", [
    ("B", r"\|B\| s\*\*q1"), ("hob", r"\|h\| s\*\*\(q1 \+ 1\)"), ("sigma", r"sigma s\*\*-q2"),
])
def test_a_model_constant_past_the_float_range_is_rejected(constant, name):
    # at 1e155 the baseline's term in that constant reaches 2**512 at its
    # scale d = 1, and its square overflows: B = 1e155 reported mse=inf and
    # se=nan on both rows; at 1e153 every row is finite
    config = small_config(estimators=(EstimatorSetting("baseline"), EstimatorSetting("weighted")),
                          budgets=(100,), replications=100, seed=1)
    with pytest.raises(ConfigurationError, match=rf"of entry 'baseline', {name} is 1e\+155"):
        run_experiment(dataclasses.replace(config, model=unit_spec(**{constant: 1e155})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_experiment(dataclasses.replace(config, model=unit_spec(**{constant: 1e153})))
    for row in report.rows:
        assert all(math.isfinite(v) for v in (row.mse, row.se, row.ratio, row.theory)), row


METAMORPHIC_ENTRIES = (EstimatorSetting("baseline"), EstimatorSetting("recursive"),
                       EstimatorSetting("averaged"), EstimatorSetting("weighted", K=1.0),
                       EstimatorSetting("weighted", K=2.0))


@pytest.mark.parametrize("lam", [2.0, 0.5, 2.0**-20])
def test_units_of_delta_leave_every_mse_bit_identical(lam, solves):
    # (d, B, sigma) -> (lam d, B lam**-q1, sigma lam**q2) draws the same
    # samples, so every row keeps its bits, the weighted rows' exact theory
    # too; the scaled run follows the first, so a memo part served to the
    # wrong model or scale would move them
    q1, q2 = 2.0, 1.0
    base = small_config(model=unit_spec(q1, q2, B=1.5, sigma=0.75), baseline_d=0.5,
                        estimators=METAMORPHIC_ENTRIES, replications=20)
    scaled = dataclasses.replace(base, model=unit_spec(q1, q2, B=1.5 * lam**-q1,
                                                       sigma=0.75 * lam**q2),
                                 baseline_d=0.5 * lam)
    one, two = run_experiment(base), run_experiment(scaled)
    for a, b in zip(one.rows, two.rows, strict=True):
        assert (b.mse, b.se, b.ratio) == (a.mse, a.se, a.ratio)
        assert b.theory == (a.theory if a.estimator.startswith("weighted")
                            else pytest.approx(a.theory, rel=1e-14))
    assert two.squared_errors.keys() == one.squared_errors.keys()
    for key, e in one.squared_errors.items():
        assert two.squared_errors[key].tobytes() == e.tobytes()


@pytest.mark.parametrize("c", [2.0, 0.5, 2.0**30])
def test_units_of_x_scale_every_mse_by_c_squared(c, solves):
    # (B, sigma) -> (c B, c sigma), here with the higher-order bias too,
    # scales every sample by c, so every squared error, MSE, se and theory
    # by c**2 exactly and no ratio moves; the scaled run follows the
    # first, so a memo part served to the wrong model would not scale
    base = small_config(model=unit_spec(B=1.5, sigma=0.75, hob=0.3),
                        estimators=METAMORPHIC_ENTRIES, replications=20)
    scaled = dataclasses.replace(base, model=unit_spec(B=1.5 * c, sigma=0.75 * c, hob=0.3 * c))
    one, two = run_experiment(base), run_experiment(scaled)
    for a, b in zip(one.rows, two.rows, strict=True):
        assert (b.mse, b.se, b.theory) == (a.mse * c * c, a.se * c * c, a.theory * c * c)
        assert b.ratio == a.ratio
    for key, e in one.squared_errors.items():
        assert two.squared_errors[key].tobytes() == (e * (c * c)).tobytes()


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


@pytest.mark.parametrize("kind", ["recursive", "averaged"])
@pytest.mark.parametrize("d_scale", [0.0, -1.0, math.nan, math.inf])
def test_a_bad_d_scale_is_named(kind, d_scale):
    # it reached DeltaSchedule and raised a bare "scale must be positive"
    config = small_config(estimators=(EstimatorSetting("baseline"),
                                      EstimatorSetting(kind, d_scale=d_scale)))
    with pytest.raises(ConfigurationError, match=f"d_scale must be positive, got {d_scale}"):
        run_experiment(config)


@pytest.mark.parametrize("label", ["", "a\nb", "a\rb", 5], ids=["empty", "newline", "return", "int"])
def test_labels_that_break_a_report_row_are_rejected(label):
    # "" wrote a row with no estimator name, "a\nb" split a csv_text() row
    # in two, and 5 raised a TypeError
    with pytest.raises(ConfigurationError, match="label must be a non-empty str"):
        EstimatorSetting("baseline", label=label)


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


def test_config_rejects_an_offset_past_exact_doubles():
    # past max(budgets) + n0 = 2**53 the schedules' j + n0 are not exact
    # doubles; a weighted entry's ValueError came only from run_experiment
    top = 2**53 - 128
    assert small_config(n0=top).n0 == top
    message = f"n + n0 must be at most 2**53, got n=128, n0={top + 1}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        small_config(n0=top + 1)


@pytest.mark.parametrize("field, value, message", [
    ("estimators", ("baseline",), "estimators entries must be EstimatorSetting, got 'baseline'"),
    ("estimators", (EstimatorSetting("baseline"), None),
     "estimators entries must be EstimatorSetting, got None"),
    ("model", "x", "model must be a SyntheticOracleSpec or a QueueSetting, got 'x'"),
    ("model", QueueParams(4.0, 4.0, 10), "model must be a SyntheticOracleSpec or a QueueSetting"),
], ids=["str-entry", "none-entry", "str-model", "queue-params-model"])
def test_config_rejects_an_entry_or_a_model_of_another_type(field, value, message):
    # they were accepted; run_experiment then raised AttributeError ('str'
    # object has no attribute 'label' / 'make_oracle') and hash() TypeError
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        small_config(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("budgets", 64), ("budgets", "64"), ("estimators", EstimatorSetting("baseline")),
], ids=["int-budgets", "str-budgets", "bare-estimator"])
def test_config_rejects_a_field_that_is_not_a_sequence(field, value):
    # each raised a plain TypeError that named no field: "... object is
    # not iterable", or for "64" a str compared with an int
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{field} must be a sequence of entries, got {value!r}")):
        small_config(**{field: value})


def test_config_takes_iterators_of_valid_entries():
    entries = (EstimatorSetting("baseline"), EstimatorSetting("weighted"))
    config = small_config(budgets=iter([64, 128]), estimators=iter(entries))
    assert config.budgets == (64, 128) and config.estimators == entries
    with pytest.raises(ConfigurationError, match="at least one estimator entry"):
        small_config(estimators=iter(()))


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


def test_ratio_denominator_is_the_baseline_kind_entry():
    # "baseline" names the baseline kind only, and a relabelled baseline
    # is still every ratio's denominator
    with pytest.raises(ConfigurationError, match="baseline"):
        EstimatorSetting("recursive", label="baseline")
    plain = run_experiment(small_config(
        estimators=(EstimatorSetting("recursive"), EstimatorSetting("baseline"))))
    flat = run_experiment(small_config(
        estimators=(EstimatorSetting("recursive"), EstimatorSetting("baseline", label="flat"))))
    for n in (64, 128):
        assert flat.row("flat", n).ratio == 1.0
        assert flat.row("flat", n).mse == plain.row("baseline", n).mse
        assert flat.row("recursive", n) == plain.row("recursive", n)


def test_paired_risk_ratio_compares_against_a_relabelled_baseline():
    report = run_experiment(small_config(
        estimators=(EstimatorSetting("baseline", label="flat"), EstimatorSetting("weighted")),
        budgets=(64,), replications=20, seed=1))
    assert report.baseline == "flat"
    rr = paired_risk_ratio(report, "weighted-K1", 64)
    assert rr.ratio == pytest.approx(report.row("weighted-K1", 64).ratio, rel=1e-12)
    assert paired_risk_ratio(report, "weighted-K1", 64, baseline="flat") == rr


def test_paired_risk_ratio_without_a_baseline_entry_needs_one_named():
    report = run_experiment(small_config(
        estimators=(EstimatorSetting("recursive"), EstimatorSetting("averaged")), budgets=(64,)))
    assert report.baseline is None
    with pytest.raises(ConfigurationError, match="no baseline"):
        paired_risk_ratio(report, "averaged", 64)
    assert paired_risk_ratio(report, "averaged", 64, baseline="averaged") == (1.0, 0.0, False)


@pytest.mark.parametrize("budgets", [(64.7,), (64, 64), (128, 64.0, 64), (math.inf,), (math.nan,)])
def test_config_rejects_fractional_and_repeated_budgets(budgets):
    # a fractional budget used to run at int(n), inf and nan escaped as
    # OverflowError and a bare ValueError, and a repeated budget reported two
    # rows under one squared-errors key; a budget that is no count gets the
    # budget rule's message, a repeated one the distinctness check's
    message = "budgets must be distinct" if len(budgets) > 1 else "n must be an integer >= 1, got"
    with pytest.raises(ConfigurationError, match=message):
        small_config(budgets=budgets)
    assert small_config(budgets=(64.0, 128)).budgets == (64, 128)


_COUNTS = {
    "phi_sum n": (lambda x: phi_sum(1.0, x), "n must be an integer >= 1"),
    "phi_sum n0": (lambda x: phi_sum(1.0, 5, x), "n0 must be a non-negative integer"),
    "DeltaSchedule n0": (lambda x: DeltaSchedule(1.0, 0.25, x), "n0 must be a non-negative"),
    "config n0": (lambda x: small_config(n0=x), "n0 must be a non-negative integer"),
    "config replications": (lambda x: small_config(replications=x), "replications must be"),
    "config seed": (lambda x: small_config(seed=x), "seed must lie in"),
    "QueueParams": (lambda x: QueueParams(1.0, 2.0, x), "num_customers must be"),
    "StreamKey seed": (lambda x: StreamKey(x), "seed must lie in"),
    "StreamKey path": (lambda x: StreamKey(0, (1, x)), "path entries must be"),
    "StreamKey child": (lambda x: StreamKey(0).child(x), "path entries must be"),
    "grid seed": (lambda x: adversarial_risk_grid(Q21, 2.0, 64, seed=x), "seed must lie in"),
}


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1.5])
@pytest.mark.parametrize("count", list(_COUNTS))
def test_non_finite_counts_raise_their_documented_error(count, x):
    # int(x) != x used to raise OverflowError on inf (and a bare ValueError
    # on nan) before the check could name the field
    build, message = _COUNTS[count]
    with pytest.raises(ValueError, match=message):
        build(x)


@pytest.mark.parametrize("K", [-1.0, math.inf])
def test_negative_cap_is_rejected_at_resolution(K):
    config = small_config(
        estimators=(EstimatorSetting("weighted", K=K),),
    )
    with pytest.raises(ConfigurationError, match="K must be positive"):
        run_experiment(config)


def test_integral_float_counts_run_and_hash_as_ints():
    # counts are stored as the ints they name: 40.0 replications and seed
    # 17.0 used to be kept as floats and fail inside the run
    floats = small_config(replications=40.0, seed=17.0, n0=500.0, K=2.0)
    ints = small_config(replications=40, seed=17, n0=500, K=2.0)
    assert (floats.replications, floats.seed, floats.n0) == (40, 17, 500)
    assert floats.hash() == ints.hash()
    assert run_experiment(floats).json_text() == run_experiment(ints).json_text()


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
    # sp moves both rates with independent runs: a target or crn it would
    # ignore, while the config hash recorded it, is refused
    for kw in (dict(crn=True), dict(target="service"), dict(target="service", crn=True)):
        with pytest.raises(ValueError, match="mode 'sp'"):
            QueueSetting(mode="sp", **kw)
    s = QueueSetting()
    assert s.make_oracle().order == Q21 and s.make_oracle().dim == 1
    assert s.true_value().shape == (1,)
    assert QueueSetting(mode="sp").make_oracle().dim == 2
    assert QueueSetting(mode="sp").true_value().shape == (2,)
    assert QueueSetting(target="service").true_value()[0] < 0
    from bvbal import MM1DerivativeOracle, MM1GradientOracleSP

    assert isinstance(s.make_oracle(), MM1DerivativeOracle)
    assert isinstance(QueueSetting(mode="sp").make_oracle(), MM1GradientOracleSP)
    # true_value() is the (4, 4, 10) derivative whatever the params: at
    # (4, 4, 20) it scored against 0.0946 where the exact value is 0.2210
    for params in (QueueParams(4.0, 4.0, 20), QueueParams(2.0, 4.0, 10)):
        with pytest.raises(ValueError, match=r"known only at QueueParams\(arrival_rate=4.0"):
            QueueSetting(params=params)
    assert QueueSetting(params=QueueParams(4, 4, 10)) == s


# ------------------------------------------------------ adversarial sweep


def test_adversarial_grid_rejects_a_fractional_budget():
    # int(n) used to run n = 64.7 at 64
    with pytest.raises(ConfigurationError, match="n must be an integer >= 1, got 64.7"):
        adversarial_risk_grid(Q21, 1.0, 64.7, replications=4,
                              B_values=(1.0,), sigma_values=(1.0,))


@pytest.mark.parametrize("grid", [dict(B_values=()), dict(sigma_values=[]), dict(B_values=1.0)])
def test_adversarial_grid_rejects_an_empty_grid(grid):
    # an empty axis used to end in "max() arg is an empty sequence", and a
    # scalar one in "iteration over a 0-d array"
    with pytest.raises(ConfigurationError, match="must be non-empty 1-d sequences"):
        adversarial_risk_grid(Q21, 1.0, 64, replications=4, **grid)


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
    # every scaled budget above the cap
    with pytest.raises(ValueError, match="exceed max_budget=5000; raise max_budget"):
        reproduce_table(5, scale=1.0, replications=10, max_budget=5000)
    # a non-finite scale has no budgets to round to
    with pytest.raises(ValueError, match="scale must be positive"):
        reproduce_table(5, scale=math.inf, replications=10)
    assert MM1_BUDGETS_FULL == (10_000, 20_000, 30_000, 50_000, 80_000, 100_000)
