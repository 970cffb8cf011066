"""Paired Monte Carlo experiments over the estimators, plus table builders.

`run_experiment` evaluates a set of estimator configurations over a grid
of sample budgets on one model (synthetic or queueing), with every
estimator inside a replication consuming identical raw variates: the
stream for replication r and budget index i is keyed (seed, r, i), and
each estimator replays that stream through its own perturbation
schedule.  Risk ratios are therefore paired by construction.  Each
entry becomes a `bvbal.estimators.LinearPlan`, the single description of
an estimator, built by the same constructors the single-run estimators
use, so a replication's error is that of the single-run estimate on its
stream.  The stream is drawn once per (replication, budget) cell, and
every plan maps that one variate block through its schedule (the map
the oracle's ``prepare`` returns, made once per plan), which gives the
same samples as its own ``sample_path`` call would.

Reports are deterministic byte-for-byte for a given configuration,
independent of the worker count: replications are partitioned by index,
each worker produces the squared errors for its slice, and the slices
are reassembled in index order.  Serialized artifacts carry a
configuration hash and the seed, never wall-clock state.

`reproduce_table` rebuilds the reference tables: 1-4 are closed forms
(instant), 5-8 are paired queueing runs (Monte Carlo; budgets above
``max_budget`` are skipped unless explicitly allowed).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import (
    WeightScheme,
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    optimal_weights,
    xi_matrix,
    ztilde_squared,
)
from .errors import ConfigurationError
from .estimators import DeltaSchedule, LinearPlan, RecursiveParams, predict_mse_leading
from .oracles import BiasOrder, SampleOracle, StreamKey, SyntheticOracleSpec
from .queueing import (
    MM1_TRUE_ARRIVAL_DERIVATIVE,
    MM1_TRUE_SERVICE_DERIVATIVE,
    MM1DerivativeOracle,
    MM1GradientOracleSP,
    QueueParams,
)

__all__ = [
    "QueueSetting",
    "EstimatorSetting",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "RiskRatio",
    "TableResult",
    "run_experiment",
    "paired_risk_ratio",
    "emit_weight_distribution",
    "weight_distribution_csv",
    "adversarial_risk_grid",
    "reproduce_table",
    "MM1_BUDGETS_FULL",
]

ESTIMATOR_KINDS = ("baseline", "recursive", "averaged", "weighted")
MM1_BUDGETS_FULL = (10_000, 20_000, 30_000, 50_000, 80_000, 100_000)
CSV_HEADER = "estimator,n,mse,se,ratio,theory"


@dataclass(frozen=True, slots=True)
class QueueSetting:
    """Queueing model choice for an experiment: central difference on one
    rate, or simultaneous perturbation on both."""

    params: QueueParams = QueueParams(4.0, 4.0, 10)
    mode: str = "cfd"
    target: str = "arrival"
    crn: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("cfd", "sp"):
            raise ValueError(f"mode must be 'cfd' or 'sp', got {self.mode!r}")
        if self.target not in ("arrival", "service"):
            raise ValueError(
                f"target must be 'arrival' or 'service', got {self.target!r}"
            )

    @property
    def order(self) -> BiasOrder:
        return self.make_oracle().order

    @property
    def dim(self) -> int:
        return self.make_oracle().dim

    def true_value(self) -> np.ndarray:
        if self.mode == "sp":
            return np.array(
                [MM1_TRUE_ARRIVAL_DERIVATIVE, MM1_TRUE_SERVICE_DERIVATIVE]
            )
        if self.target == "arrival":
            return np.array([MM1_TRUE_ARRIVAL_DERIVATIVE])
        return np.array([MM1_TRUE_SERVICE_DERIVATIVE])

    def make_oracle(self) -> SampleOracle:
        if self.mode == "cfd":
            return MM1DerivativeOracle(self.params, self.target, self.crn)
        return MM1GradientOracleSP(self.params)


@dataclass(frozen=True, slots=True)
class EstimatorSetting:
    """One estimator entry of an experiment.

    Unset fields resolve to the calibrated defaults for the model's bias
    order: recursive runs get c = 1, beta = 1 and the risk-optimal scale
    multiplier; averaged runs get c = 1, beta = 1/2 with the same
    multiplier; weighted runs get the experiment's inflation cap K.
    Setting a field that the kind ignores raises `ConfigurationError`:
    baseline takes none of c, beta, d_scale, K; recursive and averaged
    take no K; weighted takes none of c, beta, d_scale (its scale is the
    solved eta_star).
    """

    kind: str
    c: float | None = None
    beta: float | None = None
    d_scale: float | None = None
    K: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigurationError(
                f"kind must be one of {ESTIMATOR_KINDS}, got {self.kind!r}"
            )
        if self.label is not None and ("," in self.label or "|" in self.label):
            raise ConfigurationError("label must not contain ',' or '|'")
        ignored = _IGNORED_FIELDS[self.kind]
        if any(getattr(self, f) is not None for f in ignored):
            raise ConfigurationError(f"{self.kind} entries take none of {', '.join(ignored)}")


_IGNORED_FIELDS = {"baseline": ("c", "beta", "d_scale", "K"), "recursive": ("K",),
                   "averaged": ("K",), "weighted": ("c", "beta", "d_scale")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one paired experiment.

    ``baseline_d`` is the perturbation scale d of the baseline; every
    other estimator derives its schedule from the same d (recursive and
    averaged multiply it by their d_scale, weighted by its solved
    eta_star).  ``K`` is the default inflation cap for weighted entries
    that do not set their own.
    """

    model: SyntheticOracleSpec | QueueSetting
    estimators: tuple[EstimatorSetting, ...]
    budgets: tuple[int, ...]
    baseline_d: float = 1.0
    K: float = 1.0
    n0: int = 0
    replications: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "budgets", tuple(int(n) for n in self.budgets))
        if not self.estimators:
            raise ConfigurationError("at least one estimator entry is required")
        if not self.budgets or any(n < 1 for n in self.budgets):
            raise ConfigurationError(f"budgets must be positive, got {self.budgets}")
        if not (self.baseline_d > 0 and math.isfinite(self.baseline_d)):
            raise ConfigurationError(f"baseline_d must be positive, got {self.baseline_d}")
        if not (self.K > 0 and math.isfinite(self.K)):
            raise ConfigurationError("K must be positive")
        if int(self.n0) != self.n0 or self.n0 < 0:
            raise ConfigurationError(f"n0 must be a non-negative integer, got {self.n0}")
        if int(self.replications) != self.replications or self.replications < 2:
            raise ConfigurationError(
                f"replications must be an integer >= 2, got {self.replications}"
            )
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2**64), got {self.seed}")

    @property
    def order(self) -> BiasOrder:
        return self.model.order

    def to_dict(self) -> dict:
        m = self.model
        if isinstance(m, SyntheticOracleSpec):
            model = {
                "type": "synthetic",
                "theta": m.theta.tolist(),
                "B": m.B.tolist(),
                "noise_scale": m.noise_scale.tolist(),
                "q1": m.order.q1,
                "q2": m.order.q2,
                "higher_order_bias": (
                    None if m.higher_order_bias is None else m.higher_order_bias.tolist()
                ),
            }
        else:
            model = {
                "type": "queue",
                "arrival_rate": m.params.arrival_rate,
                "service_rate": m.params.service_rate,
                "num_customers": m.params.num_customers,
                "mode": m.mode,
                "target": m.target,
                "crn": m.crn,
            }
        return {
            "model": model,
            "estimators": [
                {
                    "kind": s.kind,
                    "c": s.c,
                    "beta": s.beta,
                    "d_scale": s.d_scale,
                    "K": s.K,
                    "label": s.label,
                }
                for s in self.estimators
            ],
            "budgets": list(self.budgets),
            "baseline_d": self.baseline_d,
            "K": self.K,
            "n0": self.n0,
            "replications": self.replications,
            "seed": self.seed,
        }

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _build_plan(s: EstimatorSetting, n: int,
                config: ExperimentConfig) -> tuple[str, LinearPlan, float | None]:
    """Map one entry at budget n to (label, plan, theory), applying the
    defaults documented on `EstimatorSetting`; theory is the predicted
    MSE on a synthetic model (None elsewhere or out of regime)."""
    order = config.order
    d, alpha, n0 = config.baseline_d, order.alpha, config.n0
    synthetic = isinstance(config.model, SyntheticOracleSpec)
    label, theory = s.kind, None
    if s.kind == "baseline":
        plan = LinearPlan.baseline(n, DeltaSchedule(d, alpha, n0))
        if synthetic:
            theory = _try_predict("baseline", order, d, config, n)
    elif s.kind == "weighted":
        K = float(config.K if s.K is None else s.K)
        if not K > 0:
            raise ConfigurationError("K must be positive")
        label = f"weighted-K{K:g}"
        scheme = optimal_weights(n, n0, order, K)
        plan = LinearPlan.weighted(n, DeltaSchedule(scheme.eta_star * d, alpha, n0), scheme)
        if synthetic:
            theory = _weighted_theory(scheme, config.model, d)
    else:  # recursive or averaged
        c = 1.0 if s.c is None else float(s.c)
        beta = (1.0 if s.kind == "recursive" else 0.5) if s.beta is None else float(s.beta)
        d_scale = amrr_recursive_free(order).d_scale if s.d_scale is None else float(s.d_scale)
        build = LinearPlan.recursive if s.kind == "recursive" else LinearPlan.averaged
        plan = build(n, DeltaSchedule(d_scale * d, alpha, n0), RecursiveParams(c, beta))
        if synthetic:
            theory = _try_predict(s.kind, order, d_scale * d, config, n, c=c, beta=beta)
    return (label if s.label is None else s.label), plan, theory


def _model_moments(spec: SyntheticOracleSpec) -> tuple[float, float]:
    B2 = float(np.dot(spec.B, spec.B))
    sigma2 = float(np.dot(spec.noise_scale, spec.noise_scale))
    return B2, sigma2


def _try_predict(kind: str, order: BiasOrder, d: float, config: ExperimentConfig,
                 n: int, c: float | None = None, beta: float | None = None) -> float | None:
    B2, sigma2 = _model_moments(config.model)
    try:
        return predict_mse_leading(kind, order, d, B2, sigma2, n, c=c, beta=beta)
    except ValueError:
        # out of the convergent regime: no leading-order prediction exists
        return None


def _weighted_theory(scheme: WeightScheme, spec: SyntheticOracleSpec, d: float) -> float:
    """Exact finite-n risk of a solved scheme on the synthetic model
    (ignoring any higher-order bias): squared weighted bias plus the
    weighted variance at the realized schedule delta_j = eta* d (j+n0)^-alpha.
    When a_star sits on the feasible boundary this reduces to s_star times
    the baseline's (B, sigma, d) constant."""
    B2, sigma2 = _model_moments(spec)
    q1, q2 = spec.order.q1, spec.order.q2
    d_eff = scheme.eta_star * d
    xi = xi_matrix(spec.order, scheme.n, scheme.n0)
    zt2 = ztilde_squared(scheme.a_star, xi)
    return (B2 * d_eff ** (2 * q1) * scheme.a_star ** 2
            + sigma2 * zt2 / d_eff ** (2 * q2))


def _run_slice(oracle: SampleOracle, theta: np.ndarray, plan_groups: tuple,
               seed: int, lo: int, hi: int) -> np.ndarray:
    """Squared errors for replications [lo, hi): shape (hi-lo, plan count)."""
    maps = [[oracle.prepare(plan.deltas) for plan in plans] for plans in plan_groups]
    dim, size = oracle.dim, max(plans[0].deltas.shape[0] for plans in plan_groups)
    # every (replication, plan) writes its samples into one reused buffer,
    # where the reduction then forms its terms in place, and every map
    # shares one scratch buffer: a fresh path per plan re-faulted its pages
    paths, scratch = np.empty(dim * size), np.empty(dim * size)
    total = sum(len(g) for g in plan_groups)
    out = np.empty((hi - lo, total))
    for row, r in enumerate(range(lo, hi)):
        col = 0
        for bidx, (plans, group) in enumerate(zip(plan_groups, maps)):
            n = plans[0].deltas.shape[0]
            # one draw per (replication, budget) cell, replayed by every plan
            block = oracle.draw(n, StreamKey(seed, (r, bidx)))
            terms = paths[:dim * n].reshape(dim, n)
            for plan, prepared in zip(plans, group):
                samples = prepared.transform(block, terms.T, scratch)
                diff = plan.reduce(samples, terms=terms) - theta
                out[row, col] = float(diff @ diff)
                col += 1
            del block  # two blocks alive at once would set the peak RSS
        assert col == total
    return out


@dataclass(frozen=True, slots=True)
class ReportRow:
    estimator: str
    n: int
    mse: float
    se: float
    ratio: float | None
    theory: float | None


class RiskRatio(NamedTuple):
    ratio: float
    halfwidth: float
    degenerate: bool = False


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated results plus the per-replication squared errors that
    paired confidence statements need.  Contains no wall-clock state, so
    a rerun of the same configuration is byte-identical."""

    rows: tuple[ReportRow, ...]
    squared_errors: dict[str, np.ndarray]  # key "label|n"
    config_hash: str
    seed: int
    replications: int
    degenerate: bool

    schema_version = 1

    def row(self, estimator: str, n: int) -> ReportRow:
        for r in self.rows:
            if r.estimator == estimator and r.n == int(n):
                return r
        raise KeyError(f"no row for estimator={estimator!r}, n={n}")

    def errors(self, estimator: str, n: int) -> np.ndarray:
        return self.squared_errors[f"{estimator}|{int(n)}"]

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            ratio = "" if r.ratio is None else repr(r.ratio)
            theory = "" if r.theory is None else repr(r.theory)
            lines.append(f"{r.estimator},{r.n},{r.mse!r},{r.se!r},{ratio},{theory}")
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "replications": self.replications,
            "degenerate": self.degenerate,
            "rows": [
                {
                    "estimator": r.estimator,
                    "n": r.n,
                    "mse": r.mse,
                    "se": r.se,
                    "ratio": r.ratio,
                    "theory": r.theory,
                }
                for r in self.rows
            ],
            "squared_errors": {k: v.tolist() for k, v in self.squared_errors.items()},
        }
        return json.dumps(doc, sort_keys=True) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.json_text())

    def summary(self) -> str:
        lines = []
        for r in self.rows:
            ratio = "     -" if r.ratio is None else f"{r.ratio:6.3f}"
            theory = "" if r.theory is None else f"  theory={r.theory:.4e}"
            lines.append(
                f"{r.estimator:>16}  n={r.n:>8}  mse={r.mse:.4e}  "
                f"se={r.se:.2e}  ratio={ratio}{theory}"
            )
        return "\n".join(lines)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the paired experiment and aggregate per-(estimator, budget)
    MSE, standard error, risk ratio against the baseline entry, and the
    theory prediction (synthetic models only).

    ``workers`` only partitions replications across threads (numpy
    releases the GIL in its kernels); results are identical for any
    value.  A model with zero error everywhere (degenerate synthetic
    spec) reports ratio 1.0 by convention and sets the degenerate flag.
    """
    synthetic = isinstance(config.model, SyntheticOracleSpec)
    if synthetic:
        oracle: SampleOracle = config.model
        theta = config.model.theta
    else:
        oracle = config.model.make_oracle()
        theta = config.model.true_value()
    entries = [[_build_plan(s, n, config) for s in config.estimators]
               for n in config.budgets]
    labels = [label for label, _, _ in entries[0]]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"estimator labels must be unique, got {labels}")
    plan_groups = tuple(tuple(plan for _, plan, _ in group) for group in entries)

    R = config.replications
    workers = max(1, int(workers))
    if workers == 1:
        sq = _run_slice(oracle, theta, plan_groups, config.seed, 0, R)
    else:
        bounds = np.linspace(0, R, workers + 1, dtype=int)
        jobs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda job: _run_slice(oracle, theta, plan_groups, config.seed, *job), jobs))
        sq = np.vstack(parts)

    rows: list[ReportRow] = []
    squared_errors: dict[str, np.ndarray] = {}
    degenerate = synthetic and config.model.degenerate
    col = 0
    for n, group in zip(config.budgets, entries):
        cols = {label: sq[:, col + i] for i, (label, _, _) in enumerate(group)}
        col += len(group)
        base_mse = math.fsum(cols["baseline"]) / R if "baseline" in cols else None
        for label, _, theory in group:
            e = cols[label]
            mse = math.fsum(e) / R
            se = float(np.std(e, ddof=1) / math.sqrt(R))
            if base_mse is None:
                ratio = None
            elif base_mse == 0.0:
                ratio = 1.0
                degenerate = True
            else:
                ratio = mse / base_mse
            rows.append(ReportRow(label, n, mse, se, ratio, theory))
            squared_errors[f"{label}|{n}"] = e.copy()
    return ExperimentReport(
        rows=tuple(rows),
        squared_errors=squared_errors,
        config_hash=config.hash(),
        seed=config.seed,
        replications=R,
        degenerate=degenerate,
    )


def paired_risk_ratio(report: ExperimentReport, estimator: str, n: int,
                      baseline: str = "baseline") -> RiskRatio:
    """MSE ratio estimator / baseline on shared replications, with a
    jackknife (leave-one-replication-out) 95% half-width.

    An estimator compared against itself gives exactly (1.0, 0.0); a
    zero-MSE baseline gives ratio 1.0 flagged degenerate.
    """
    e = report.errors(estimator, n)
    b = report.errors(baseline, n)
    Se, Sb = math.fsum(e), math.fsum(b)
    if Sb == 0.0:
        return RiskRatio(1.0, 0.0, True)
    ratio = Se / Sb
    loo = (Se - e) / (Sb - b)
    R = e.shape[0]
    center = loo.mean()
    se = math.sqrt((R - 1) / R * float(np.sum((loo - center) ** 2)))
    return RiskRatio(float(ratio), 1.96 * se, False)


def emit_weight_distribution(budgets, order: BiasOrder, K: float,
                             n0: int = 0) -> list[tuple[int, int, float]]:
    """(n, j, weight) triples of the solved schemes across budgets,
    suitable for plotting how the negative head and slow tail evolve."""
    rows: list[tuple[int, int, float]] = []
    for n in budgets:
        scheme = optimal_weights(int(n), n0, order, K)
        rows.extend(
            (int(n), j + 1, float(w)) for j, w in enumerate(scheme.weights)
        )
    return rows


def weight_distribution_csv(rows) -> str:
    lines = ["n,j,weight"]
    lines.extend(f"{n},{j},{w!r}" for n, j, w in rows)
    return "\n".join(lines) + "\n"


class AdversarialCell(NamedTuple):
    B: float
    sigma: float
    ratio: float


class AdversarialGridResult(NamedTuple):
    cells: list[AdversarialCell]
    worst: AdversarialCell
    amrr: float


def adversarial_risk_grid(order: BiasOrder, K: float, n: int, *,
                          d: float = 1.0, n0: int = 0,
                          replications: int = 1000, seed: int = 0,
                          B_values=None, sigma_values=None,
                          workers: int = 1) -> AdversarialGridResult:
    """Paired weighted-vs-baseline ratio over a grid of model constants.

    The minimax theory makes the predicted ratio independent of (B,
    sigma); this sweep checks that no corner of the grid drives the
    empirical ratio above the asymptotic value by more than Monte Carlo
    noise.  Defaults: a 5x5 log-spaced grid over [0.1, 10]^2.
    """
    B_values = np.geomspace(0.1, 10.0, 5) if B_values is None else np.asarray(B_values, float)
    sigma_values = (
        np.geomspace(0.1, 10.0, 5) if sigma_values is None else np.asarray(sigma_values, float)
    )
    cells: list[AdversarialCell] = []
    idx = 0
    for b in B_values:
        for s in sigma_values:
            spec = SyntheticOracleSpec(
                theta=np.zeros(1), B=np.array([b]), noise_scale=np.array([s]),
                order=order,
            )
            cell_seed = int(
                np.random.SeedSequence(seed, spawn_key=(idx,)).generate_state(1, np.uint64)[0]
            )
            config = ExperimentConfig(
                model=spec,
                estimators=(
                    EstimatorSetting("baseline"),
                    EstimatorSetting("weighted", K=K),
                ),
                budgets=(int(n),),
                baseline_d=d,
                K=K,
                n0=n0,
                replications=replications,
                seed=cell_seed,
            )
            report = run_experiment(config, workers=workers)
            rr = paired_risk_ratio(report, f"weighted-K{K:g}", n)
            cells.append(AdversarialCell(float(b), float(s), rr.ratio))
            idx += 1
    worst = max(cells, key=lambda c: c.ratio)
    return AdversarialGridResult(cells, worst, amrr_general(order, K))


@dataclass(frozen=True)
class TableResult:
    """One rebuilt reference table: closed-form rows or a Monte Carlo
    report rendered as (budget x scheme) relative risks."""

    table_id: int
    kind: str  # "closed-form" or "monte-carlo"
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    report: ExperimentReport | None = None

    def render(self) -> str:
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in self.rows))
            for i, h in enumerate(self.headers)
        ]
        out = ["  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))]
        for r in self.rows:
            out.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
        return "\n".join(out)

    def csv_text(self) -> str:
        lines = [",".join(str(h) for h in self.headers)]
        for r in self.rows:
            lines.append(",".join(_fmt(v) for v in r))
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        doc = {
            "table_id": self.table_id,
            "kind": self.kind,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
        }
        return json.dumps(doc, sort_keys=True) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


_TABLE_ORDERS = {1: BiasOrder(2.0, 1.0), 2: BiasOrder(1.0, 1.0),
                 3: BiasOrder(2.0, 1.0), 4: BiasOrder(1.0, 1.0)}
_TABLE_MC = {
    5: ("cfd", 1.0, (1.0, 2.0, 3.0, 4.0)),
    6: ("cfd", 2.0, (1.0, 2.0, 3.0, 4.0)),
    7: ("sp", 1.0, (1.0, 2.0)),
    8: ("sp", 2.0, (1.0, 2.0)),
}


def reproduce_table(table_id: int, *, scale: float = 1.0,
                    replications: int = 1000, seed: int = 0,
                    allow_large: bool = False, max_budget: int = 10_000,
                    workers: int = 1) -> TableResult:
    """Rebuild reference table 1-8.

    Tables 1-2: closed-form risk ratios of the recursive and averaged
    schemes (per bias order).  Tables 3-4: the capped weighted scheme's
    asymptotic ratio over K = 0.5..2.0.  Tables 5-8: paired queueing
    experiments (cfd/sp x baseline scale 1 or 2); ``scale`` multiplies
    the budgets (scaled minimum must stay >= 1e3) and budgets above
    ``max_budget`` are skipped unless ``allow_large`` is set.
    """
    if table_id in (1, 2):
        order = _TABLE_ORDERS[table_id]
        tied = amrr_recursive_tied(order)
        free = amrr_recursive_free(order)
        rows = (
            ("recursive, scale tied to baseline", tied.ratio,
             f"c={tied.c_opt:.4g}, beta=1"),
            ("recursive, scale re-optimized", free.ratio,
             f"c=1, beta=1, d_scale={free.d_scale:.4g}"),
            ("averaged, scale re-optimized", free.ratio,
             f"any c>0, 0<beta<1, d_scale={free.d_scale:.4g}"),
        )
        return TableResult(table_id, "closed-form",
                           ("scheme", "amrr", "configuration"), rows)
    if table_id in (3, 4):
        order = _TABLE_ORDERS[table_id]
        caps = [round(0.5 + 0.1 * i, 1) for i in range(16)]
        rows = tuple((K, amrr_general(order, K)) for K in caps)
        return TableResult(table_id, "closed-form", ("K", "amrr"), rows)
    if table_id not in _TABLE_MC:
        raise ValueError(f"table_id must be 1..8, got {table_id}")

    mode, d, Ks = _TABLE_MC[table_id]
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    budgets = tuple(int(round(n * scale)) for n in MM1_BUDGETS_FULL)
    if min(budgets) < 1000:
        raise ValueError(
            f"scaled minimum budget {min(budgets)} is below 1e3; raise scale"
        )
    if not allow_large:
        budgets = tuple(n for n in budgets if n <= max_budget)
        if not budgets:
            raise ValueError(
                f"all scaled budgets exceed max_budget={max_budget}; "
                "pass allow_large=True to run them"
            )
    estimators = [EstimatorSetting("baseline"), EstimatorSetting("recursive")]
    estimators += [EstimatorSetting("weighted", K=k) for k in Ks]
    config = ExperimentConfig(
        model=QueueSetting(mode=mode),
        estimators=tuple(estimators),
        budgets=budgets,
        baseline_d=d,
        n0=500,
        replications=replications,
        seed=seed,
    )
    report = run_experiment(config, workers=workers)
    labels = ["recursive"] + [f"weighted-K{k:g}" for k in Ks]
    headers = ("n", "baseline_mse") + tuple(f"ratio_{lab}" for lab in labels)
    rows = tuple(
        (n, report.row("baseline", n).mse)
        + tuple(report.row(lab, n).ratio for lab in labels)
        for n in budgets
    )
    return TableResult(table_id, "monte-carlo", headers, rows, report)
