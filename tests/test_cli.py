"""End-to-end checks of the console entry point.

Everything goes through ``main(argv)`` so exit codes and stdout/stderr are
exercised exactly as a shell user would see them.
"""

import hashlib
import json
import math
import re
import tracemalloc

import pytest

from bvbal import BiasOrder, amrr_general, experiments, optimal_weights
from bvbal.calibration import _memo
from bvbal.cli import main

Q21 = BiasOrder(2.0, 1.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- amrr


def test_amrr_default_prints_general_ratio(capsys):
    code, out, err = run(capsys, "amrr")
    assert code == 0
    assert err == ""
    assert "scheme: general  q1: 2  q2: 1  K: 1" in out
    assert "amrr: 0.6667" in out


def test_amrr_recursive_tied_reports_constant(capsys):
    code, out, _ = run(capsys, "amrr", "--scheme", "recursive-tied")
    assert code == 0
    assert "amrr: 1.361" in out
    assert "c: 2.333" in out


def test_amrr_recursive_free_q11(capsys):
    code, out, _ = run(capsys, "amrr", "--scheme", "recursive-free",
                       "--q1", "1", "--q2", "1")
    assert code == 0
    assert "amrr: 1.089" in out
    assert "d_scale: 0.7825" in out
    assert "c: 1" in out.splitlines()


def test_amrr_averaged_leaves_step_size_free(capsys):
    code, out, _ = run(capsys, "amrr", "--scheme", "averaged")
    assert code == 0
    assert "amrr: 1.082" in out
    assert "c: any positive, 0 < beta < 1" in out


def test_amrr_rejects_nonpositive_cap(capsys):
    code, out, err = run(capsys, "amrr", "--K", "0")
    assert code == 2
    assert "K must be positive" in err


@pytest.mark.parametrize("argv", [
    ("weights", "--n", "100", "--K", "1e60"),
    ("run-synthetic", "--n", "1000", "--reps", "2", "--K", "1e60", "--seed", "1"),
], ids=["weights", "run-synthetic"])
def test_a_cap_past_the_overflow_bound_exits_2(capsys, argv):
    # K**6 overflowed and ended in a traceback; the message names the bound
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "K must be below 2.376e+51, where K**(2 (q1 + q2)) overflows, got 1e+60\n"


@pytest.mark.parametrize("d", ["1e78", "1e-200", "1e-160"])
def test_a_synthetic_d_out_of_range_exits_2(capsys, d):
    # 1e78 and 1e-200 ended in OverflowError and ZeroDivisionError
    # tracebacks, and 1e-160 printed mse=inf se=nan ratio=nan
    code, out, err = run(capsys, "run-synthetic", "--n", "1000", "--reps", "2",
                         "--seed", "1", "--d", d)
    assert (code, out) == (2, "")
    assert err == ("baseline_d must lie in about (1.491e-81, 1.158e+77), where d**(2 q1) "
                   f"and d**(-2 q2) are finite and non-zero, got {float(d)}\n")


def test_amrr_of_a_huge_cap_rounds_to_zero(capsys):
    code, out, err = run(capsys, "amrr", "--K", "1e200")
    assert (code, err) == (0, "")
    assert "amrr: 0\n" in out


def test_options_a_command_would_ignore_are_rejected(capsys, tmp_path, monkeypatch):
    # amrr writes no file and draws nothing, and weights draws nothing: an
    # --out or --seed there used to be accepted and silently ignored
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "amrr", "--out", "f")
    assert code == 2
    assert "--out" in err
    assert list(tmp_path.iterdir()) == []
    code, _, err = run(capsys, "weights", "--n", "20", "--seed", "1")
    assert code == 2
    assert "--seed" in err


# ---------------------------------------------------------------- weights


def test_weights_singular_budget_exits_3(capsys):
    code, _, err = run(capsys, "weights", "--n", "1")
    assert code == 3
    assert "singular" in err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_weights_budget_below_one_exits_2(capsys, n):
    # a budget that is no count is a usage error, as in run-synthetic, not
    # the singular system that a budget of one draw is
    code, _, err = run(capsys, "weights", "--n", n)
    assert code == 2
    assert err == f"n must be an integer >= 1, got {n}\n"


def test_weights_budget_past_2_53_exits_2(capsys):
    code, _, err = run(capsys, "weights", "--n", "10", "--n0", str(2**53 - 9))
    assert code == 2
    assert "n + n0 must be at most 2**53" in err


def test_run_offset_past_2_53_exits_2(capsys):
    code, out, err = run(capsys, "run-synthetic", "--n0", "9007199254740993", "--seed", "1")
    assert code == 2
    assert "n + n0 must be at most 2**53" in err
    assert out == ""


def test_weights_infeasible_cap_reports_threshold(capsys):
    code, _, err = run(capsys, "weights", "--n", "1000", "--K", "0.5")
    assert code == 3
    assert "n=1000" in err
    k_min = math.fsum(1.0 / j for j in range(1, 1001)) ** (-1.0 / 6.0)
    assert f"(needs K >= {k_min!r})" in err


def test_weights_cap_rejected_by_the_post_check_reports_threshold(capsys):
    # a cap just below k_min that rounding leaves one feasible point for:
    # the solver's post-check rejects it, and names the cap too
    code, out, err = run(capsys, "weights", "--n", "10", "--n0", "1000000",
                         "--K", "10", "--q1", "0.5", "--q2", "2")
    assert code == 3
    assert err == ("solver returned an infeasible bias-sum level at n=10, "
                   "K=10.0 (needs K >= 10.0000109999593)\n")
    assert out == ""


def test_weights_csv_export_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "w.csv"
    code, out, _ = run(capsys, "weights", "--n", "200", "--K", "1",
                       "--out", str(out_path))
    assert code == 0
    assert f"wrote {out_path}" in out

    scheme = optimal_weights(200, 0, Q21, 1.0)
    assert f"scaled_s_star: {scheme.scaled_s_star:.4g}" in out

    text = out_path.read_text()
    lines = text.splitlines()
    assert all(line.startswith("# ") for line in lines[:9])
    assert lines[9] == "j,weight"
    data = lines[10:]
    assert len(data) == 200
    for j, line in enumerate(data):
        assert line == f"{j + 1},{float(scheme.weights[j])!r}"
    weights = [float(line.split(",")[1]) for line in data]
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-10)

    # reruns must not disturb a single byte
    run(capsys, "weights", "--n", "200", "--K", "1", "--out", str(out_path))
    assert out_path.read_text() == text


def test_weights_json_export(capsys, tmp_path):
    out_path = tmp_path / "w.json"
    code, _, _ = run(capsys, "weights", "--n", "50", "--K", "2",
                     "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    scheme = optimal_weights(50, 0, Q21, 2.0)
    assert payload["n"] == 50
    assert payload["K"] == 2.0
    assert payload["weights"] == scheme.weights.tolist()
    assert payload["a_star"] == scheme.a_star


def test_weights_format_flag_overrides_extension(capsys, tmp_path):
    out_path = tmp_path / "w.txt"
    code, _, _ = run(capsys, "weights", "--n", "20", "--out", str(out_path),
                     "--format", "json")
    assert code == 0
    assert json.loads(out_path.read_text())["n"] == 20


@pytest.mark.parametrize("argv, fmt, digest", [
    (("--n", "1000"), "csv", "435cfd01c8644979c630c5fe73911a2cc3587950bdb4b6d3764156945698d360"),
    (("--n", "1000"), "json", "eb54696e2ae65343da67693a377c4cc6f8b99ee351b0f1b08b23b5fe352ce78d"),
    (("--n", "4099", "--n0", "500", "--K", "2"), "csv",
     "5b8c0e5ff52b1bc52c64574626613e94006b6ceb338a854822ff31224ddb323b"),
    (("--n", "4099", "--n0", "500", "--K", "2"), "json",
     "fb1e3dbf0e6fbfe5b7e2ce42879ef8752e29e6251537b8b18304adb5e2ac4f09"),
    (("--n", "300", "--K", "1.5", "--q1", "1"), "csv",
     "10f0bccafe4d8fe28d09924340a6d106a51308b49992ea3e4a933411cc92078a"),
    (("--n", "300", "--K", "1.5", "--q1", "1"), "json",
     "993b25eb48dd4dea69b834035ea13e1370e76d8d23a6dad960ba449abac1d11d"),
])
def test_weights_file_bytes_are_pinned(capsys, tmp_path, argv, fmt, digest):
    # sha256 of the exported files: the CSV and JSON bytes are part of
    # the command's contract, whichever format a run renders
    out_path = tmp_path / f"w.{fmt}"
    code, _, _ = run(capsys, "weights", *argv, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def _whole_text(n, n0, K, order, fmt):
    """The exported file as one string of the whole document, rendered
    from `optimal_weights`: the reference for the streamed bytes."""
    s = optimal_weights(n, n0, order, K)
    fields = {"lambda1": s.lambda1, "lambda2": s.lambda2, "a_star": s.a_star,
              "eta_star": s.eta_star, "s_star": s.s_star,
              "K": K, "n0": n0, "q1": order.q1, "q2": order.q2}
    if fmt == "csv":
        lines = [f"# {key}={value!r}" for key, value in fields.items()] + ["j,weight"]
        lines += [f"{j},{w!r}" for j, w in enumerate(s.weights.tolist(), 1)]
        return "\n".join(lines) + "\n"
    return json.dumps({"n": n, **fields, "weights": s.weights.tolist()}, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n, n0, K", [(4095, 0, 1.0), (4096, 7, 2.0), (4097, 500, 1.5),
                                      (8193, 0, 2.0)])
def test_streamed_file_is_the_whole_text(capsys, tmp_path, n, n0, K, fmt):
    # rows go out in blocks of 4096: one short block, one full block, a
    # row past it, and a row past two
    out_path = tmp_path / f"w.{fmt}"
    code, _, _ = run(capsys, "weights", "--n", str(n), "--n0", str(n0), "--K", f"{K:g}",
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == _whole_text(n, n0, K, Q21, fmt).encode()


def _traced_peak(capsys, *argv):
    _memo.clear()  # a cold solve
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak, capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weights_file_is_written_in_bounded_memory(capsys, tmp_path, fmt):
    # the weights (8n bytes) and one block of rows: no text of n rows
    n = 200_000
    out_path = tmp_path / f"w.{fmt}"
    run(capsys, "weights", "--n", "1000", "--out", str(out_path))  # first-call imports
    code, peak, _ = _traced_peak(capsys, "weights", "--n", str(n), "--K", "2",
                                 "--out", str(out_path))
    assert code == 0
    assert peak < 8 * n + 2**20


def test_printing_a_solution_builds_no_weights(capsys):
    # without --out nothing n-long is made: the 8 MB weight vector of
    # n = 1e6 never exists
    run(capsys, "weights", "--n", "1000")
    code, peak, out = _traced_peak(capsys, "weights", "--n", "1000000", "--K", "2")
    assert code == 0
    assert peak < 2 * 2**20
    assert "scaled_s_star: 0.2679" in out
    assert "wrote" not in out


@pytest.mark.parametrize("argv, regime, k_min", [
    (("--n", "1000", "--K", "2"), "boundary", "0.7149848057696866"),
    (("--n", "10000", "--n0", "500", "--K", "1"), "interior", "0.8306845026572379"),
])
def test_weights_prints_the_regime_and_smallest_cap(capsys, tmp_path, argv, regime, k_min):
    out_path = tmp_path / "w.csv"
    code, out, _ = run(capsys, "weights", *argv, "--out", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert f"regime: {regime}" in lines
    assert f"k_min: {k_min}" in lines
    text = out_path.read_text()
    assert "regime" not in text and "k_min" not in text


# ---------------------------------------------------------------- run-*


def test_run_synthetic_generates_and_prints_seed(capsys):
    code, out, _ = run(capsys, "run-synthetic", "--n", "64", "--reps", "3",
                       "--estimators", "baseline")
    assert code == 0
    match = re.search(r"^seed: (\d+)$", out, re.MULTILINE)
    assert match is not None
    assert 0 <= int(match.group(1)) < 2**48


def test_run_synthetic_explicit_seed_suppresses_seed_line(capsys):
    code, out, _ = run(capsys, "run-synthetic", "--n", "64", "--reps", "3",
                       "--estimators", "baseline", "--seed", "7")
    assert code == 0
    assert "seed:" not in out


def test_run_synthetic_output_reproducible(capsys, tmp_path):
    argv = ("run-synthetic", "--n", "64", "--reps", "5", "--seed", "11",
            "--estimators", "baseline,recursive")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    _, out_a, _ = run(capsys, *argv, "--out", str(first))
    _, out_b, _ = run(capsys, *argv, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()
    assert out_a.replace(str(first), "") == out_b.replace(str(second), "")


@pytest.mark.parametrize("argv", [
    ("run-synthetic", "--n", "64", "--reps", "5", "--seed", "11"),
    ("reproduce-table", "--id", "5", "--scale", "0.1", "--reps", "4",
     "--max-budget", "1000", "--seed", "1"),
])
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_the_default_worker_count_writes_the_bytes_of_one_worker(capsys, tmp_path, monkeypatch,
                                                                 argv, suffix):
    # without --workers a run takes the usable cores (here three), at most
    # --reps, and splits its replications that many ways; the files and
    # the printed lines are those of --workers 1
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 3)
    counts, run_spans = [], experiments._run_spans
    monkeypatch.setattr(experiments, "_run_spans",
                        lambda run, spans: counts.append(len(spans)) or run_spans(run, spans))
    texts = []
    for flags in ((), ("--workers", "1")):
        path = tmp_path / f"{len(texts)}{suffix}"
        code, out, _ = run(capsys, *argv, *flags, "--out", str(path))
        assert code == 0
        texts.append((path.read_bytes(), out.replace(str(path), "")))
    assert counts == [3, 1]
    assert texts[0] == texts[1]


def test_run_synthetic_rejects_unknown_estimator(capsys):
    code, _, err = run(capsys, "run-synthetic", "--n", "64", "--reps", "2",
                       "--seed", "1", "--estimators", "baseline,bogus")
    assert code == 2
    assert err != ""


def test_run_mm1_smoke(capsys):
    code, out, _ = run(capsys, "run-mm1", "--n", "1000", "--reps", "3",
                       "--estimators", "baseline,weighted", "--K", "1",
                       "--seed", "5")
    assert code == 0
    assert "weighted-K1" in out


def test_run_mm1_small_budget_cannot_meet_cap(capsys):
    # with the queueing default n0=500 the late-start schedule leaves too
    # little bias-sum headroom at n=300 for K=1
    code, _, err = run(capsys, "run-mm1", "--n", "300", "--reps", "3",
                       "--estimators", "weighted", "--K", "1", "--seed", "5")
    assert code == 3
    assert "needs K >=" in err


def test_run_mm1_sp_rejects_a_target(capsys):
    # sp moves both rates, so a central-difference target is refused
    # before anything runs rather than dropped from the run
    code, out, err = run(capsys, "run-mm1", "--n", "1000", "--reps", "3",
                         "--mode", "sp", "--target", "service", "--seed", "5")
    assert code == 2
    assert out == ""
    assert "mode 'sp'" in err


def test_negative_seed_rejected(capsys):
    code, _, err = run(capsys, "run-synthetic", "--n", "64", "--reps", "2",
                       "--estimators", "baseline", "--seed", "-1")
    assert code == 2
    assert "seed must lie" in err


@pytest.mark.parametrize("command", [("run-synthetic", "--n", "64"), ("run-mm1", "--n", "64"),
                                     ("reproduce-table", "--id", "5")])
@pytest.mark.parametrize("workers", ["0", "-3", str(10**9), "2.5"])
def test_bad_worker_count_exits_2(capsys, command, workers):
    # argparse rejects the value before anything runs
    code, out, err = run(capsys, *command, "--reps", "2", "--seed", "1", "--workers", workers)
    assert code == 2
    assert out == ""
    assert "--workers" in err


# ---------------------------------------------------------------- config file


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# cap sweep\nK = 2\n")
    code, out, _ = run(capsys, "amrr", "--config", str(cfg))
    assert code == 0
    assert "K: 2" in out
    assert "amrr: 0.1667" in out


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 2\n")
    code, out, _ = run(capsys, "amrr", "--config", str(cfg), "--K", "1")
    assert code == 0
    assert "amrr: 0.6667" in out


def test_config_unknown_key_exits_2(capsys, tmp_path):
    # c, beta and d_scale are estimator fields, not options of any command
    for key in ("frobnicate", "c", "beta", "d_scale"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 3\n")
        code, _, err = run(capsys, "amrr", "--config", str(cfg))
        assert code == 2, key
        assert "unknown key" in err
        assert f"{cfg}:1" in err


def test_config_key_of_another_command_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = bogus\nK = 2\n")
    code, out, _ = run(capsys, "amrr", "--config", str(cfg))
    assert code == 0
    assert "amrr: 0.1667" in out


@pytest.mark.parametrize("command, line", [
    (("amrr",), "K = abc"),
    (("amrr",), "K = 0"),
    (("weights", "--n", "20"), "format = xml"),
    (("run-mm1",), "mode = bogus"),
    (("run-synthetic",), "seed = -1"),
    (("reproduce-table", "--id", "3"), "max_budget = lots"),
    (("reproduce-table", "--id", "3"), "id = 9"),
])
def test_config_bad_value_exits_2(capsys, tmp_path, command, line):
    # a value the flag would reject is rejected from the file too, before
    # anything runs, and the message names the file and line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# header\n{line}\n")
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 2
    assert f"{cfg}:2" in err
    assert out == ""


def test_config_budgets_and_flag_replacement(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 64\nreps = 3\nseed = 7\nestimators = baseline\n")
    code, out, _ = run(capsys, "run-synthetic", "--config", str(cfg))
    assert code == 0
    assert re.findall(r"n=\s*(\d+)", out) == ["64"]
    # flags replace the file's budgets rather than adding to them
    code, out, _ = run(capsys, "run-synthetic", "--config", str(cfg),
                       "--n", "32", "--n", "48")
    assert code == 0
    assert re.findall(r"n=\s*(\d+)", out) == ["32", "48"]


def test_config_table_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_budget = 10000\nscale = 0.1\nreps = 4\nseed = 1\n")
    code, out, _ = run(capsys, "reproduce-table", "--id", "5", "--config", str(cfg))
    assert code == 0
    # max_budget covers the largest scaled budget: all six rows run
    assert [line.split()[0] for line in out.splitlines()[1:]] == [
        "1000", "2000", "3000", "5000", "8000", "10000"]


def test_config_allow_large_is_an_unknown_key(capsys, tmp_path):
    # max_budget is the one budget cap; the old switch is not a key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("allow_large = true\n")
    code, out, err = run(capsys, "reproduce-table", "--id", "5", "--config", str(cfg))
    assert code == 2
    assert f"{cfg}:1" in err and "unknown key" in err
    assert out == ""


def test_config_malformed_line_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K\n")
    code, _, err = run(capsys, "amrr", "--config", str(cfg))
    assert code == 2
    assert "expected key=value" in err


def test_config_missing_file_exits_4(capsys, tmp_path):
    code, _, err = run(capsys, "amrr", "--config", str(tmp_path / "nope.cfg"))
    assert code == 4
    assert err != ""


def test_config_that_is_not_utf8_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"K = 2\n# \xff\xfe\n")
    code, out, err = run(capsys, "amrr", "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"{cfg}: ") and "can't decode byte 0xff" in err
    assert out == ""


def test_repeated_budget_exits_2(capsys):
    code, _, err = run(capsys, "run-synthetic", "--n", "100", "--n", "100")
    assert code == 2
    assert "distinct" in err


def test_out_unwritable_path_exits_4(capsys, tmp_path):
    target = tmp_path / "missing" / "w.csv"
    code, _, err = run(capsys, "weights", "--n", "20", "--out", str(target))
    assert code == 4
    assert err != ""


# ---------------------------------------------------------------- tables


def test_reproduce_table_closed_form(capsys):
    code, out, _ = run(capsys, "reproduce-table", "--id", "3")
    assert code == 0
    assert "1.2" in out
    assert f"{amrr_general(Q21, 0.5):.4g}" in out


def test_reproduce_table_bad_id(capsys):
    code, _, err = run(capsys, "reproduce-table", "--id", "9")
    assert code == 2
    assert "--id" in err and "invalid choice" in err


def test_reproduce_table_allow_large_is_a_usage_error(capsys):
    # --max-budget is the one budget cap; no switch lifts it
    code, out, err = run(capsys, "reproduce-table", "--id", "5", "--allow-large")
    assert code == 2
    assert "unrecognized arguments: --allow-large" in err
    assert out == ""


def test_reproduce_table_mc_smoke(capsys, tmp_path):
    out_path = tmp_path / "t5.csv"
    code, out, _ = run(capsys, "reproduce-table", "--id", "5",
                       "--scale", "0.1", "--reps", "4",
                       "--max-budget", "1000", "--seed", "1",
                       "--out", str(out_path))
    assert code == 0
    assert "1000" in out
    csv_text = out_path.read_text()
    assert csv_text.splitlines()[0].startswith("n,baseline_mse,ratio_")


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert "command" in captured.err
