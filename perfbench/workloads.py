"""The four benchmark workloads: what one operation runs, and how its
output is checked.

Every workload is a closed loop with one caller.  `op_input(seed, i)` is
the input of operation i of a run, so the same workload seed gives the
same inputs.  For the Monte Carlo workloads it is the seed derived from
the workload seed; the solver workload is deterministic and its seed only
picks where the (K, n0) cycle starts; the CLI workload runs one fixed
command line.

Checks run outside the timed region.  A golden file (`golden.json`, made
by `make_golden.py`) holds reference report rows; rows are compared at
relative 1e-9, which admits reduction-order rounding (about 1e-12) and
rejects any change to the random streams or to the solved schemes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from functools import cached_property
from pathlib import Path

import numpy as np

import bvbal.calibration
import bvbal.cli
import bvbal.estimators
import bvbal.experiments
from bvbal import (
    BiasOrder,
    DeltaSchedule,
    EstimatorSetting,
    ExperimentConfig,
    QueueSetting,
    StreamKey,
    SyntheticOracleSpec,
    amrr_recursive_free,
    optimal_weights,
)
from bvbal.estimators import averaged_coefficients, recursion_coefficients

GOLDEN_PATH = Path(__file__).with_name("golden.json")
CHECK_SEED = 190204673
GOLDEN_RTOL = 1e-9
# pooled |z| of measured MSE against the exact finite-n MSE; a false alarm
# at 5 sigma is about 6e-7 per row
Z_MAX = 5.0
ORDER = BiasOrder(2.0, 1.0)


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i in a run with workload seed `seed`."""
    ss = np.random.SeedSequence(seed, spawn_key=(i,))
    return int(ss.generate_state(1, np.uint64)[0])


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def rows_close(got, want, rtol: float = GOLDEN_RTOL) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(rows_close(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= rtol * max(abs(got), abs(want))
    return got == want


def _linear_mse(coeffs, deltas, theta: float, B: float, sigma: float,
                order: BiasOrder) -> float:
    """Exact MSE of sum_j c_j X_j on the scalar synthetic model, with
    X_j = theta + B delta_j**q1 + sigma Z_j / delta_j**q2."""
    bias = theta * (math.fsum(coeffs) - 1.0) + B * math.fsum(coeffs * deltas ** order.q1)
    var = sigma * sigma * math.fsum(coeffs * coeffs * deltas ** (-2.0 * order.q2))
    return bias * bias + var


class Workload:
    name = ""
    why = ""
    solves_per_op = 1
    draws_per_op = 0
    # layer metrics whose sum is the layer the workload is built to stress
    dominant: tuple[str, ...] = ()
    # reference kernel (reference.KERNELS) that scales its timed operations
    reference = "interp"
    # inputs whose outputs golden.json records
    golden_inputs: tuple[int, ...] = (CHECK_SEED,)

    def __init__(self, out_dir: Path) -> None:
        self.golden = load_golden().get(self.name, {}) if GOLDEN_PATH.exists() else {}

    def op_input(self, seed: int, i: int) -> int:
        return op_seed(seed, i)

    def op(self, inp: int, workers: int):
        raise NotImplementedError

    def invariants(self, out) -> list[str]:
        raise NotImplementedError

    def golden_key(self, out, inp: int) -> str:
        return f"seed-{inp}"

    def golden_rows(self, out) -> list:
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        raise NotImplementedError

    def check(self, out, inp: int) -> list[str]:
        problems = self.invariants(out)
        key = self.golden_key(out, inp)
        if key in self.golden and not rows_close(self.golden_rows(out), self.golden[key]):
            problems.append(f"rows differ from golden {key} beyond relative {GOLDEN_RTOL}")
        return problems

    def op_counts(self, out) -> dict:
        """Per-layer counts computed from an operation's inputs and output."""
        return {}

    def record(self, out) -> None:
        """Keep what a pooled end-of-run check needs (timed operations)."""

    def finish(self) -> list[str]:
        """Pooled checks over the recorded operations."""
        return []

    def cleanup(self) -> None:
        """Remove the files operations wrote."""


class _ExperimentWorkload(Workload):
    """Shared parts of the two Monte Carlo workloads."""

    n = 0
    n0 = 0
    reps = 0
    # (kind, K) of each plan, in the order the harness reports them
    plan_settings: tuple = ()

    def report(self, out):
        raise NotImplementedError

    def rows_of(self, out) -> list:
        return [[r.estimator, r.n, r.mse, r.se, r.ratio, r.theory]
                for r in self.report(out).rows]

    def golden_rows(self, out) -> list:
        return self.rows_of(out)

    def fingerprint(self, out) -> bytes:
        return out[1].encode()

    def op_counts(self, out) -> dict:
        """`estimators.reduce_bytes`, computed: for each (replication,
        plan) the reduction reads n samples of each coordinate and the n
        coefficients once per coordinate, 8 bytes each."""
        dim = self.oracle.dim
        return {"estimators.reduce_bytes": self.reps * len(self.plans) * 16 * self.n * dim}

    def reduce_probe(self, seed: int, out) -> list[str]:
        """Rerun every (replication, plan) reduction of the operation
        through the public `weighted_estimate` on the same stream,
        schedule and coefficients, and check it reproduces the report's
        squared errors."""
        report = self.report(out)
        problems = []
        for r in range(self.reps):
            stream = StreamKey(seed, (r, 0))
            for label, sched, coeffs in self.plans:
                run = bvbal.estimators.weighted_estimate(self.oracle, self.n, sched, coeffs, stream)
                diff = run.estimate - self.theta
                got = float(diff @ diff)
                want = float(report.errors(label, self.n)[r])
                if not abs(got - want) <= GOLDEN_RTOL * max(abs(got), abs(want)):
                    problems.append(f"reduction probe {label} r={r}: {got!r} != {want!r}")
        return problems

    @cached_property
    def plans(self) -> list:
        """(label, schedule, coefficients) of each plan, from public
        functions and the harness's documented defaults.  Built on first
        use, so that constructing a workload leaves bvbal's caches cold."""
        d = 1.0
        alpha = ORDER.alpha
        d_scale = amrr_recursive_free(ORDER).d_scale
        plans = []
        for kind, K in self.plan_settings:
            if kind == "baseline":
                sched = DeltaSchedule(DeltaSchedule(d, alpha, self.n0).terminal(self.n), 0.0, self.n0)
                plans.append(("baseline", sched, np.full(self.n, 1.0 / self.n)))
            elif kind == "recursive":
                sched = DeltaSchedule(d_scale * d, alpha, self.n0)
                plans.append(("recursive", sched,
                              recursion_coefficients(1.0, 1.0, self.n, self.n0)[0]))
            elif kind == "averaged":
                sched = DeltaSchedule(d_scale * d, alpha, self.n0)
                plans.append(("averaged", sched,
                              averaged_coefficients(1.0, 0.5, self.n, self.n0)[0]))
            else:
                scheme = optimal_weights(self.n, self.n0, ORDER, K)
                sched = DeltaSchedule(scheme.eta_star * d, alpha, self.n0)
                plans.append((f"weighted-K{K:g}", sched, np.asarray(scheme.weights)))
        return plans


class SyntheticWorkload(_ExperimentWorkload):
    name = "synth-n1e5"
    why = ("paired Monte Carlo on the synthetic model at n=1e5: the per-plan "
           "reduction and the normal draws dominate, the queue is idle")
    n = 100_000
    n0 = 0
    reps = 8
    solves_per_op = 2
    draws_per_op = n * 5 * reps
    dominant = ("estimators.reduce_s",)
    plan_settings = (("baseline", None), ("recursive", None), ("averaged", None),
                     ("weighted", 1.0), ("weighted", 2.0))

    def __init__(self, out_dir: Path) -> None:
        super().__init__(out_dir)
        self.theta = np.zeros(1)
        self.oracle = SyntheticOracleSpec(theta=self.theta, B=np.ones(1),
                                          noise_scale=np.ones(1), order=ORDER)
        self.settings = tuple(EstimatorSetting(kind, K=K) for kind, K in self.plan_settings)
        self.pooled: dict[str, list] = {}
        self.z_scores: dict[str, float] = {}

    def op(self, seed: int, workers: int):
        config = ExperimentConfig(model=self.oracle, estimators=self.settings,
                                  budgets=(self.n,), baseline_d=1.0, K=1.0, n0=self.n0,
                                  replications=self.reps, seed=seed)
        report = bvbal.experiments.run_experiment(config, workers=workers)
        return report, report.json_text()

    def report(self, out):
        return out[0]

    def invariants(self, out) -> list[str]:
        problems = []
        for row in self.rows_of(out):
            if not all(v is None or math.isfinite(v) for v in row[2:]):
                problems.append(f"non-finite value in row {row}")
        return problems

    def record(self, out) -> None:
        for label, _, _ in self.plans:
            self.pooled.setdefault(label, []).append(out[0].errors(label, self.n))

    def finish(self) -> list[str]:
        problems = []
        for label, sched, coeffs in self.plans:
            if label not in self.pooled:
                continue
            exact = _linear_mse(coeffs, sched.deltas(self.n), 0.0, 1.0, 1.0, ORDER)
            e = np.concatenate(self.pooled[label])
            z = (e.mean() - exact) / (e.std(ddof=1) / math.sqrt(e.size))
            self.z_scores[label] = float(z)
            if not abs(z) <= Z_MAX:
                problems.append(f"{label}: pooled MSE is {z:.2f} standard errors "
                                f"from the exact finite-n MSE {exact!r}")
        return problems


class QueueWorkload(_ExperimentWorkload):
    name = "mm1-cfd-n1e4"
    why = ("reproduce-table 5 at 1 worker: M/M/1 uniforms, log1p and the Lindley "
           "sweep dominate; the 2-worker pool is checked by the gate and traced")
    n = 10_000
    n0 = 500
    reps = 8
    # Timed at one worker, like every workload: at two, each run's time
    # depends on how fast the host runs both vCPUs at once, which varies
    # by itself (medians spread 5-10% between runs against 1.5-3% at one
    # worker).  The determinism gate reruns at two workers, and the traced
    # run times both.
    solves_per_op = 4
    draws_per_op = n * 6 * reps
    dominant = ("queueing.sample_s",)
    plan_settings = (("baseline", None), ("recursive", None),
                     ("weighted", 1.0), ("weighted", 2.0), ("weighted", 3.0), ("weighted", 4.0))

    def __init__(self, out_dir: Path) -> None:
        super().__init__(out_dir)
        setting = QueueSetting(mode="cfd")
        self.oracle = setting.make_oracle()
        self.theta = setting.true_value()

    def op(self, seed: int, workers: int):
        table = bvbal.experiments.reproduce_table(5, replications=self.reps, seed=seed,
                                                  workers=workers)
        return table, table.report.json_text()

    def report(self, out):
        return out[0].report

    def invariants(self, out) -> list[str]:
        problems = []
        table = out[0]
        if [row[0] for row in table.rows] != [self.n]:
            problems.append(f"expected one budget {self.n}, got {[r[0] for r in table.rows]}")
        for row in table.rows:
            for v in row[1:]:
                if not (v is not None and math.isfinite(v) and v > 0):
                    problems.append(f"ratio or MSE not finite and positive in row {row}")
        return problems


class SolveWorkload(Workload):
    name = "solve-n1e6"
    why = ("optimal_weights at n=1e6 over (K, n0) in {1,2}x{0,500}: calibration "
           "power sums and materialisation only, no oracle, no reduction")
    n = 1_000_000
    cycle = ((1.0, 0), (2.0, 0), (1.0, 500), (2.0, 500))
    dominant = ("calibration.xi_matrix_s", "calibration.solve_a_star_s",
                "calibration.materialise_s")
    golden_inputs = (0, 1, 2, 3)

    def op_input(self, seed: int, i: int) -> int:
        return (seed + i) % len(self.cycle)

    def op(self, inp: int, workers: int):
        K, n0 = self.cycle[inp]
        return bvbal.calibration.optimal_weights(self.n, n0, ORDER, K)

    def golden_key(self, out, inp: int) -> str:
        return f"K{out.K:g}-n0-{out.n0}"

    def golden_rows(self, out) -> list:
        return [out.n, out.n0, out.K, out.lambda1, out.lambda2, out.a_star,
                out.eta_star, out.s_star, out.scaled_s_star]

    def fingerprint(self, out) -> bytes:
        return out.weights.tobytes() + repr(self.golden_rows(out)).encode()

    def invariants(self, out) -> list[str]:
        return scheme_problems(np.asarray(out.weights), out.n0, out.K, out.a_star,
                               out.eta_star, self.n)


def scheme_problems(w: np.ndarray, n0: int, K: float, a_star: float, eta_star: float,
                    n: int) -> list[str]:
    """The `WeightScheme` invariants, checked independently of the class."""
    problems = []
    if w.shape != (n,) or not np.all(np.isfinite(w)):
        return [f"weights must be {n} finite values, got shape {w.shape}"]
    total = math.fsum(w)
    if not abs(total - 1.0) <= 1e-10:
        problems.append(f"weights sum to {total!r}, not 1 within 1e-10")
    j = np.arange(1, n + 1, dtype=float) + n0
    bias_sum = math.fsum(w * j ** (-ORDER.alpha * ORDER.q1))
    if not abs(bias_sum - a_star) <= 1e-10 * max(1.0, abs(a_star)):
        problems.append(f"bias sum {bias_sum!r} != a_star {a_star!r}")
    if not (0 < eta_star <= K + 1e-9):
        problems.append(f"eta_star {eta_star!r} outside (0, K={K!r}]")
    return problems


class CliWorkload(Workload):
    name = "weights-cli-n1e5"
    why = ("in-process `bvbal weights --n 100000 --K 2 --out x.csv`: CLI CSV/JSON "
           "formatting and the file write dominate the solve")
    n = 100_000
    K = 2.0
    dominant = ("cli.format_s",)
    reference = "format"
    golden_inputs = (0,)

    def __init__(self, out_dir: Path) -> None:
        super().__init__(out_dir)
        self.path = out_dir / f"weights-{os.getpid()}.csv"

    def op_input(self, seed: int, i: int) -> int:
        return 0

    def op(self, inp: int, workers: int):
        argv = ["weights", "--n", str(self.n), "--K", f"{self.K:g}", "--out", str(self.path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = bvbal.cli.main(argv)
        return {"code": code}

    def parse(self, out) -> tuple[dict, np.ndarray]:
        """The written CSV: '# key=value' metadata lines, a 'j,weight'
        header, then rows j = 1..n.  Parsed once per operation."""
        if "parsed" not in out:
            out["parsed"] = self._parse()
        return out["parsed"]

    def _parse(self) -> tuple[dict, np.ndarray]:
        head, header, body = self.path.read_text().partition("j,weight\n")
        if not header:
            raise ValueError("CSV has no 'j,weight' header")
        meta = {}
        for line in head.splitlines():
            if not line.startswith("# "):
                raise ValueError(f"unexpected CSV line before the header: {line!r}")
            key, _, value = line[2:].partition("=")
            meta[key] = float(value)
        table = np.array(body.replace(",", "\n").split(), dtype=float).reshape(-1, 2)
        if not np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)):
            raise ValueError("CSV rows are not numbered 1..n")
        return meta, table[:, 1]

    def invariants(self, out) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        meta, w = self.parse(out)
        return scheme_problems(w, int(meta["n0"]), meta["K"], meta["a_star"],
                               meta["eta_star"], self.n)

    def golden_key(self, out, inp: int) -> str:
        return f"n{self.n}-K{self.K:g}"

    def golden_rows(self, out) -> list:
        meta, w = self.parse(out)
        scaled = float(self.n) ** ORDER.mse_exponent * meta["s_star"]
        return [meta[k] for k in ("lambda1", "lambda2", "a_star", "eta_star", "s_star")] \
            + [scaled, int(w.shape[0])]

    def fingerprint(self, out) -> bytes:
        return self.path.read_bytes()

    def op_counts(self, out) -> dict:
        return {"cli.bytes_written": self.path.stat().st_size}

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SyntheticWorkload, QueueWorkload, SolveWorkload, CliWorkload)}
