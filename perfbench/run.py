"""bvbal benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload synth-n1e5 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Runs from the root of a source checkout; bvbal is imported from ./src.
With --trace 0 the run times operations with tracing off and reports the
end-to-end metrics; with --trace 1 it runs untraced and traced phases at
one worker and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.

Every operation's output is checked outside the timed region; a raise or
a failed check counts as a failed operation, and any failure, a broken
determinism gate, a golden-row mismatch or a failed pooled check makes
the run incorrect.  Scratch files and the spans file go to
./.perfbench_out.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy loads, so that worker
# processes x BLAS threads stays within nproc at two workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MIN_OPS = 11  # the tail needs ten samples beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "calibration.xi_matrix_s": "s",
    "calibration.solve_a_star_s": "s",
    "calibration.materialise_s": "s",
    "calibration.calls": "count",
    "calibration.weight_bytes": "bytes",
    "estimators.reduce_s": "s",
    "estimators.reduce_bytes": "bytes",
    "estimators.coeff_build_s": "s",
    "estimators.schedule_s": "s",
    "oracles.sample_s": "s",
    "oracles.generators": "count",
    "oracles.variates": "count",
    "queueing.sample_s": "s",
    "queueing.uniforms": "count",
    "queueing.lindley_steps": "count",
    "experiments.self_s": "s",
    "experiments.serialize_s": "s",
    "experiments.report_bytes": "bytes",
    "experiments.parallel_efficiency": "frac",
    "cli.format_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
}


class Tally:
    """Operations attempted and failed, and run-level problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.problem(f"{what}: {detail}")

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"FAILED {text}", file=sys.stderr)


def run_op(wl, inp, workers: int, tally: Tally, ref=None):
    """One checked operation: (output or None on failure, seconds, and
    seconds at reference speed or None).  With a `reference.Reference`,
    its kernel is timed just before and just after the operation."""
    tally.attempted += 1
    before = ref.time() if ref else None
    t0 = time.perf_counter()
    try:
        out = wl.op(inp, workers)
    except Exception:
        out = None
        problems = [traceback.format_exc()]
    dt = time.perf_counter() - t0
    scaled = ref.scale(dt, before, ref.time()) if ref else None
    if out is None:
        tally.fail(f"operation {inp}", "; ".join(problems))
        return None, dt, scaled
    try:
        problems = wl.check(out, inp)
    except Exception:
        problems = [traceback.format_exc()]
    if problems:
        tally.fail(f"operation {inp}", "; ".join(problems))
        return None, dt, scaled
    return out, dt, scaled


def loop(wl, seed: int, first: int, seconds: float, workers: int, tally: Tally,
         min_ops: int, each=None, ref=None) -> tuple[list[float], list[float], int]:
    """Closed loop: operations first, first+1, ... until `seconds` have
    passed and at least `min_ops` ran.  Returns durations, durations at
    reference speed (empty without `ref`) and the next index."""
    durations: list[float] = []
    scaled: list[float] = []
    i = first
    start = time.monotonic()
    while len(durations) < min_ops or time.monotonic() - start < seconds:
        inp = wl.op_input(seed, i)
        out, dt, at_ref = run_op(wl, inp, workers, tally, ref)
        durations.append(dt)
        if ref:
            scaled.append(at_ref)
        if out is not None and each is not None:
            each(out)
        i += 1
    return durations, scaled, i


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: (value, percentile)."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space.  Linux carries the
    spawning process's peak over exec into `ru_maxrss`, so a probe's
    `ru_maxrss` reads at least its parent's RSS; VmHWM does not."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(wl, seed: int, tally: Tally) -> bytes | None:
    """Operation 0 at one worker; returns its fingerprint for the
    determinism gate.  Fills caches and finishes lazy set-up."""
    out, _, _ = run_op(wl, wl.op_input(seed, 0), 1, tally)
    return None if out is None else wl.fingerprint(out)


def gates(wl, seed: int, warm_fp: bytes | None, tally: Tally) -> None:
    """Determinism gate: operation 0 rerun at two workers must give the
    same bytes as the warm-up at one worker (the solver and
    CLI workloads ignore the worker count: a plain rerun).  Golden check:
    the operation at the fixed check input must reproduce golden.json."""
    out, _, _ = run_op(wl, wl.op_input(seed, 0), 2, tally)
    if out is not None:
        same = warm_fp is not None and wl.fingerprint(out) == warm_fp
        print(f"determinism gate: operation 0 at workers=1 and rerun at workers=2 give "
              f"{'identical' if same else 'DIFFERENT'} bytes")
        if not same:
            tally.fail("determinism gate", "rerun bytes differ")
    inp = wl.golden_inputs[0]
    out, _, _ = run_op(wl, inp, 1, tally)
    if out is not None:
        key = wl.golden_key(out, inp)
        if key not in wl.golden:
            tally.fail("golden check", f"no reference rows for {key}")
        else:
            print(f"golden check: rows of {key} match within relative 1e-9")


def setup_probes(args, tally: Tally) -> tuple[list[float], list[float], list[float]]:
    """Seconds from starting a fresh workload process to the end of its
    first operation, the same at reference speed, and that process's peak
    RSS in MB at that point (the program's own, before any check
    allocates), once per probe.  Set-up is mostly interpreter start and
    imports, so every workload scales it by the `interp` kernel, the
    median of three timings just before and three just after the probe."""
    from reference import Reference

    ref = Reference("interp")
    times, scaled, rss = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--probe"]
    for _ in range(SETUP_PROBES):
        tally.attempted += 1
        before = statistics.median(ref.time() for _ in range(3))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
            after = statistics.median(ref.time() for _ in range(3))
        except subprocess.TimeoutExpired:
            tally.fail("setup probe", f"no result within {PROBE_TIMEOUT_S} s")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tally.fail("setup probe", f"exit {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        result = json.loads(lines[-1])
        if result["problems"]:
            tally.fail("setup probe", "; ".join(result["problems"]))
            continue
        times.append(result["done"] - t0)
        scaled.append(ref.scale(times[-1], before, after))
        rss.append(result["peak_rss_mb"])
    return times, scaled, rss


def probe(args) -> int:
    """Body of a setup probe process: build the workload, run and time
    its first operation, then check it."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](OUT_DIR)
    inp = wl.op_input(args.seed, 0)
    problems: list[str] = []
    try:
        out = wl.op(inp, 1)
        done = time.monotonic()
        rss = peak_rss_mb()
        problems = wl.check(out, inp)
    except Exception:
        done, rss = time.monotonic(), 0.0
        problems = [traceback.format_exc()]
    wl.cleanup()
    print(json.dumps({"done": done, "peak_rss_mb": rss, "problems": problems}))
    return 0


def end_to_end(args, wl, tally: Tally) -> dict:
    """Every time metric is at reference speed (reference.py); the raw
    medians are printed beside them."""
    from reference import Reference

    ref = Reference(wl.reference)
    warm_fp = warm_up(wl, args.seed, tally)
    raw, durations, _ = loop(wl, args.seed, 1, args.seconds, 1, tally,
                             MIN_OPS, wl.record, ref)
    gates(wl, args.seed, warm_fp, tally)
    for text in wl.finish():
        tally.problem(f"pooled check: {text}")
    if getattr(wl, "z_scores", None):
        print("pooled z against exact finite-n MSE: "
              + ", ".join(f"{k} {v:+.2f}" for k, v in wl.z_scores.items()))
    raw_setups, setups, rss = setup_probes(args, tally)

    n = len(durations)
    p50 = statistics.median(durations)
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "solves_per_s": wl.solves_per_op / p50,
        "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
    }
    print(f"reference kernel {ref.name}: median {statistics.median(ref.samples):.6g} s over "
          f"{len(ref.samples)} timings, nominal {ref.nominal:g} s; times below are at "
          f"reference speed, raw medians in brackets")
    print(f"{'setup_s':<14}{metrics['setup_s']:>14.6g} s      median of {len(setups)} probes "
          f"(raw {statistics.median(raw_setups) if raw_setups else float('nan'):.6g} s)")
    print(f"{'op_p50_s':<14}{p50:>14.6g} s      n={n} (raw {statistics.median(raw):.6g} s)")
    print(f"{'op_tail_s':<14}{tail_s:>14.6g} s      p{tail_pct:.1f}, n={n}")
    if wl.draws_per_op:
        print(f"{'draws_per_s':<14}{wl.draws_per_op / p50:>14.6g} 1/s    n={n}")
    else:
        print(f"{'draws_per_s':<14}{'-':>14}          no oracle draws in this workload")
    print(f"{'solves_per_s':<14}{metrics['solves_per_s']:>14.6g} 1/s    n={n}")
    print(f"{'peak_rss_mb':<14}{metrics['peak_rss_mb']:>14.6g} MB     median of {len(rss)} probes")
    print(f"{'failed_frac':<14}{tally.failed / max(tally.attempted, 1):>14.6g}        "
          f"{tally.failed}/{tally.attempted} operations")
    return metrics


def traced(args, wl, tally: Tally) -> dict:
    """Layer self times are raw seconds; the operation times behind
    `trace.overhead_frac` and `experiments.parallel_efficiency` are at
    reference speed, so a change of host state between phases cancels."""
    from reference import Reference
    from tracer import Tracer

    ref = Reference(wl.reference)
    experiments = hasattr(wl, "reduce_probe")
    if experiments:
        wl.plans  # build the reduction probe's plans before anything is traced
    warm_fp = warm_up(wl, args.seed, tally)
    share = (0.3, 0.3, 0.4) if experiments else (0.5, 0.0, 0.5)
    _, untraced, i = loop(wl, args.seed, 1, args.seconds * share[0], 1, tally, 5, ref=ref)
    parallel = []
    if experiments:
        _, parallel, i = loop(wl, args.seed, i, args.seconds * share[1], 2, tally, 5, ref=ref)

    tracer = Tracer()
    roots: list[tuple[int, int | None, dict, float]] = []
    tracer.install()
    try:
        start = time.monotonic()
        while len(roots) < 5 or time.monotonic() - start < args.seconds * share[2]:
            inp = wl.op_input(args.seed, i)
            tracer.op = i
            tally.attempted += 1
            try:
                before = ref.time()
                with tracer.span("bench.op") as root:
                    out = wl.op(inp, 1)
                after = ref.time()
                problems = wl.check(out, inp)
                probe_root = None
                if experiments and not problems:
                    with tracer.span("bench.reduce_probe") as probe_root:
                        problems = wl.reduce_probe(inp, out)
                counts = wl.op_counts(out)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                tally.fail(f"traced operation {inp}", "; ".join(problems))
            else:
                roots.append((root, probe_root, counts, ref.scale(
                    tracer.spans[root].duration, before, after)))
            i += 1
    finally:
        tracer.uninstall()
    gates(wl, args.seed, warm_fp, tally)

    per_op = []
    worst_self_share = 0.0
    for root, probe_root, counts, _ in roots:
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        m.update(tracer.layer_totals(root))
        if probe_root is not None:
            # the harness's reduction has no public name; its time is the
            # same reduction rerun through weighted_estimate, and it is
            # moved out of the harness's own self time
            reduce_s = tracer.layer_totals(probe_root)["estimators.reduce_s"]
            m["estimators.reduce_s"] = reduce_s
            m["experiments.self_s"] -= reduce_s
        m.update(counts)
        duration = tracer.spans[root].duration
        self_sum = sum(v for k, v in m.items() if PER_LAYER_UNITS[k] == "s")
        worst_self_share = max(worst_self_share, self_sum / duration)
        per_op.append((m, duration))

    traced_durations = [d for _, d in per_op]
    metrics = {k: statistics.fmean(m[k] for m, _ in per_op) for k in PER_LAYER_UNITS}
    base = statistics.median(untraced)
    traced_p50 = statistics.median(scaled for *_, scaled in roots)
    metrics["trace.overhead_frac"] = (traced_p50 - base) / base
    metrics["experiments.parallel_efficiency"] = (
        base / (2.0 * statistics.median(parallel)) if parallel else 0.0)
    mean_op = statistics.fmean(traced_durations)
    dominant = sum(metrics[k] for k in wl.dominant) / mean_op

    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:<34}{metrics[name]:>16.6g} {unit}")
    print(f"traced ops {len(per_op)}, mean {mean_op:.6g} s, p50 at reference speed "
          f"{traced_p50:.6g} s; untraced p50 at reference speed {base:.6g} s "
          f"(n={len(untraced)})" + (f"; workers=2 p50 {statistics.median(parallel):.6g} s "
                                    f"(n={len(parallel)})" if parallel else ""))
    print(f"dominant layer {'+'.join(wl.dominant)}: {dominant:.1%} of traced op time "
          f"({'over' if dominant > 0.5 else 'NOT over'} half)")
    print(f"largest sum of self times within one op: {worst_self_share:.1%} of its duration")
    if tracer.missing:
        print(f"call sites not found, not traced: {', '.join(tracer.missing)}")
    if worst_self_share > 1.0:
        tally.problem("self times exceed an operation's duration")
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed})
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one summary
    table; the JSON line prefixes each metric with its workload."""
    from workloads import WORKLOADS

    summary = {}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]) + "\n")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = entry
        summary[name] = one["metrics"]
    metrics = list(next(iter(summary.values())))
    print(f"{'':<34}" + "".join(f"{name:>18}" for name in summary))
    for metric in metrics:
        unit = summary[next(iter(summary))][metric]["unit"]
        print(f"{metric + ' (' + unit + ')':<34}"
              + "".join(f"{summary[name][metric]['value']:>18.6g}" for name in summary))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "bvbal" / "__init__.py").is_file():
        print(f"no bvbal source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)

    import machine
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](OUT_DIR)
    tally = Tally()
    # two worker processes at most: the gate and the traced run's pool phase
    print("machine: " + json.dumps(machine.describe(2), sort_keys=True))
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}, {args.seconds:g} s, {'traced' if args.trace else 'untraced'}, "
          f"timed at 1 worker")
    try:
        if args.trace:
            metrics = traced(args, wl, tally)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(args, wl, tally)
            units = END_TO_END_UNITS
    finally:
        wl.cleanup()
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
