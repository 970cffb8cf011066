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
the oracle's ``prepare`` returns, shared by every worker: plans on one
schedule, such as the recursive and averaged defaults, share one deltas
array and one map), which gives the same samples as its own
``sample_path`` call would.

Every run takes what does not depend on its stream from read-only parts
of the package's one memo, `bvbal.calibration._memo`: the plan
constructors' coefficients and deltas, and the two parts this module
keys, each weighted entry's `WeightScheme` ("weights", by (n, n0, q1,
q2, K)) and its exact risk sums (`LinearPlan._risk_sums`; "risk sums",
by that key, its scale and whether the model has a higher-order term).
None depends on the model's constants, the seed or the replication
count, so a rerun at another seed, replication count or worker count,
or one that changes only the model's constants, as the cells of
`adversarial_risk_grid` do, solves and builds nothing, and its theory
column combines the kept sums with the constants in O(dim) per weighted
row.  The maps depend on the model's constants and are prepared per run.

Reports are deterministic byte-for-byte for a given configuration,
independent of the worker count: w workers split the replications into
w index slices, the calling thread runs the first and w - 1 pool threads
the others, and the slices are joined in index order.  Serialized
artifacts carry a configuration hash and the seed, never wall-clock state.

Entries are named in one place, `_build_plan`, and the report carries the
baseline entry's label, so `paired_risk_ratio` and the tables never name it.

`reproduce_table` rebuilds the reference tables: 1-4 are closed forms
(instant), 5-8 are paired queueing runs (Monte Carlo; budgets above
``max_budget`` are skipped).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .calibration import (
    _memo,
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    optimal_weights,
)
from .errors import ConfigurationError, budget, count, positive
from .estimators import (
    DeltaSchedule,
    LinearPlan,
    RecursiveParams,
    predict_mse_leading,
)
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
    "adversarial_risk_grid",
    "reproduce_table",
    "MM1_BUDGETS_FULL",
]

ESTIMATOR_KINDS = ("baseline", "recursive", "averaged", "weighted")
MM1_BUDGETS_FULL = (10_000, 20_000, 30_000, 50_000, 80_000, 100_000)
CSV_HEADER = "estimator,n,mse,se,ratio,theory"
MAX_WORKERS = 256  # the most worker threads one run may start
# the one queue the reference derivatives MM1_TRUE_* are known for
_REFERENCE_QUEUE = QueueParams(4.0, 4.0, 10)


@dataclass(frozen=True, slots=True)
class QueueSetting:
    """Queueing model choice for an experiment: central difference on one
    rate, or simultaneous perturbation on both.  ``target`` and ``crn``
    are central-difference settings: sp moves both rates with
    independent runs, so it takes neither (``target`` keeps its default).
    ``params`` must be the reference queue, the one ``true_value`` knows."""

    params: QueueParams = _REFERENCE_QUEUE
    mode: str = "cfd"
    target: str = "arrival"
    crn: bool = False

    def __post_init__(self) -> None:
        if self.params != _REFERENCE_QUEUE:
            raise ValueError(f"the reference derivatives are known only at "
                             f"{_REFERENCE_QUEUE}, got {self.params}")
        if self.mode not in ("cfd", "sp"):
            raise ValueError(f"mode must be 'cfd' or 'sp', got {self.mode!r}")
        if self.target not in ("arrival", "service"):
            raise ValueError(
                f"target must be 'arrival' or 'service', got {self.target!r}"
            )
        if self.mode == "sp" and (self.crn or self.target != "arrival"):
            raise ValueError("mode 'sp' moves both rates with independent runs; "
                             "it takes neither a target nor crn")

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
    solved eta_star).  ``label`` renames the entry in reports: a non-empty
    str without ',', '|' or a line break, and only a baseline entry may be
    labelled "baseline".
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
        label = self.label
        if label is not None and (not isinstance(label, str) or not label
                                  or any(ch in label for ch in ",|\n\r")):
            raise ConfigurationError("label must be a non-empty str without ',', '|', "
                                     f"'\\n' or '\\r', got {label!r}")
        if self.label == "baseline" and self.kind != "baseline":
            raise ConfigurationError(f"label 'baseline' names the baseline kind, not {self.kind}")
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
    eta_star); on a synthetic model it must keep d**(2 q1) and d**(-2 q2)
    finite and non-zero.  ``K`` is the default inflation cap for weighted
    entries that do not set their own.  ``budgets`` are distinct integers >= 1,
    and ``max(budgets) + n0`` is at most 2**53, so every j + n0 is an exact
    double.
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
        C = ConfigurationError
        budgets = tuple(budget(n, error=C)[0] for n in _entries(self.budgets, "budgets"))
        estimators = _entries(self.estimators, "estimators")
        if not estimators:
            raise C("at least one estimator entry is required")
        for s in estimators:
            if not isinstance(s, EstimatorSetting):
                raise C(f"estimators entries must be EstimatorSetting, got {s!r}")
        if not isinstance(self.model, (SyntheticOracleSpec, QueueSetting)):
            raise C(f"model must be a SyntheticOracleSpec or a QueueSetting, got {self.model!r}")
        if not budgets or len(set(budgets)) != len(budgets):
            raise C(f"budgets must be distinct and non-empty, got {budgets}")
        positive(self.baseline_d, "baseline_d must be positive", C)
        if isinstance(self.model, SyntheticOracleSpec):
            _check_synthetic_d(self.baseline_d, self.model.order)
        positive(self.K, "K must be positive", C)
        n0 = budget(max(budgets), self.n0, error=C)[1]
        reps = count(self.replications, "replications must be an integer >= 2", 2, error=C)
        seed = count(self.seed, "seed must lie in [0, 2**64)", 0, 2**64, C)
        for name, value in (("estimators", estimators), ("budgets", budgets),
                            ("n0", n0), ("replications", reps), ("seed", seed)):
            object.__setattr__(self, name, value)

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
            model = {"type": "queue", **asdict(m.params),
                     "mode": m.mode, "target": m.target, "crn": m.crn}
        return {
            "model": model,
            "estimators": [asdict(s) for s in self.estimators],
            "budgets": list(self.budgets),
            "baseline_d": self.baseline_d,
            "K": self.K,
            "n0": self.n0,
            "replications": self.replications,
            "seed": self.seed,
        }

    def hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _entries(value, name: str) -> tuple:
    """The entries of an `ExperimentConfig` field that takes several, as a
    tuple; a str or bytes, or a value that is not iterable (a bare
    entry), is rejected with the field's name."""
    try:
        entries = iter(value)
    except TypeError:
        entries = None
    if entries is None or isinstance(value, (str, bytes)):
        raise ConfigurationError(f"{name} must be a sequence of entries, got {value!r}")
    return tuple(entries)


def _check_synthetic_d(d: float, order: BiasOrder, what: str = "baseline_d") -> None:
    """Reject a scale d (``what``) at which the synthetic model's
    d**(2 q1) or d**(-2 q2) overflows or rounds to zero; the message
    gives the range from the float limits 2**1024 and 2**-1074."""
    q1, q2 = order.q1, order.q2
    try:
        ok = 0.0 < d ** (2.0 * q1) < math.inf and 0.0 < d ** (-2.0 * q2) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        lo, hi = max(-537.0 / q1, -512.0 / q2), min(512.0 / q1, 537.0 / q2)
        hi = math.inf if hi >= 1024.0 else 2.0 ** hi
        raise ConfigurationError(
            f"{what} must lie in about ({2.0 ** lo:.4g}, {hi:.4g}), where d**(2 q1) "
            f"and d**(-2 q2) are finite and non-zero, got {d}")


class _Entry(NamedTuple):
    """One entry at one budget: its label, its plan, and what its theory needs."""

    label: str
    kind: str
    plan: LinearPlan
    scale: float  # the perturbation scale its schedule starts from
    steps: RecursiveParams | None = None  # recursive and averaged only
    scheme: tuple | None = None  # weighted only: its WeightScheme's memo key


def _build_plans(config: ExperimentConfig, order: BiasOrder) -> tuple[tuple[_Entry, ...], ...]:
    """Every entry at every budget, grouped by budget."""
    entries = tuple(tuple(_build_plan(s, n, config, order) for s in config.estimators)
                    for n in config.budgets)
    labels = [e.label for e in entries[0]]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"estimator labels must be unique, got {labels}")
    return entries


def _build_plan(s: EstimatorSetting, n: int, config: ExperimentConfig,
                order: BiasOrder) -> _Entry:
    """One entry at budget n as an `_Entry` on a model of bias order
    ``order`` (the run's oracle's), with `EstimatorSetting`'s defaults; on
    a synthetic model its scale must pass the baseline d's rule and keep
    the model's constants in range (`_check_synthetic_constants`)."""

    def schedule_at(scale: float, label: str) -> DeltaSchedule:
        if isinstance(config.model, SyntheticOracleSpec):
            _check_synthetic_d(scale, order, f"the scale of entry {label!r}")
            _check_synthetic_constants(config.model, scale, label)
        return DeltaSchedule(scale, alpha, n0)

    d, alpha, n0 = config.baseline_d, order.alpha, config.n0
    label = s.kind if s.label is None else s.label
    if s.kind == "baseline":
        return _Entry(label, s.kind, LinearPlan.baseline(n, schedule_at(d, label)), d)
    if s.kind == "weighted":
        K = float(config.K if s.K is None else s.K)
        positive(K, "K must be positive", ConfigurationError)
        key = (n, n0, float(order.q1), float(order.q2), K)
        scheme = _memo(("weights", *key), lambda: optimal_weights(n, n0, order, K),
                       lambda w: w.weights)
        label = f"weighted-K{K:g}" if s.label is None else s.label
        schedule = schedule_at(scheme.eta_star * d, label)
        return _Entry(label, s.kind, LinearPlan.weighted(n, schedule, scheme), schedule.scale,
                      scheme=key)
    # recursive or averaged
    c = 1.0 if s.c is None else float(s.c)
    beta = (1.0 if s.kind == "recursive" else 0.5) if s.beta is None else float(s.beta)
    d_scale = amrr_recursive_free(order).d_scale if s.d_scale is None else float(s.d_scale)
    positive(d_scale, "d_scale must be positive", ConfigurationError)
    build = LinearPlan.recursive if s.kind == "recursive" else LinearPlan.averaged
    schedule, steps = schedule_at(d_scale * d, label), RecursiveParams(c, beta)
    return _Entry(label, s.kind, build(n, schedule, steps), schedule.scale, steps)


def _check_synthetic_constants(spec: SyntheticOracleSpec, s: float, label: str) -> None:
    """Reject an entry whose scale s brings a term of the synthetic model
    to 2**512, where its square overflows: |B| s**q1, |h| s**(q1 + 1) (with
    h the higher-order bias) or sigma s**-q2, each at its largest
    coordinate."""
    q1, q2 = spec.order.q1, spec.order.q2
    terms = [("|B| s**q1", spec.B, q1), ("|h| s**(q1 + 1)", spec.higher_order_bias, q1 + 1.0),
             ("sigma s**-q2", spec.noise_scale, -q2)]
    for name, constant, power in terms:
        top = 0.0 if constant is None else float(np.max(np.abs(constant)))
        try:
            term = top * s**power if top else 0.0
        except OverflowError:
            term = math.inf
        if not term < 2.0**512:
            raise ConfigurationError(
                f"at the scale s = {s!r} of entry {label!r}, {name} is {term:.4g}, which "
                "reaches 2**512, where its square overflows")


def _theory(e: _Entry, model: SyntheticOracleSpec | QueueSetting, n: int) -> float | None:
    """On a synthetic model, the plan's exact MSE for a weighted entry
    and the leading-order prediction for the others (None elsewhere, out
    of the convergent regime, or past the float range).  A weighted
    plan's exact sums come from the plan memo, so a run at new model
    constants repeats only their O(dim) combination."""
    if not isinstance(model, SyntheticOracleSpec):
        return None
    B, noise = model.B, model.noise_scale
    c, beta = (None, None) if e.steps is None else (e.steps.c, e.steps.beta)
    try:
        if e.kind == "weighted":
            higher = model.higher_order_bias is not None
            sums = _memo(("risk sums", *e.scheme, e.scale, higher),
                         lambda: np.array(e.plan._risk_sums(model.order, higher)), lambda a: a)
            return e.plan._risk(sums.tolist(), model)
        return predict_mse_leading(e.kind, model.order, e.scale, float(np.dot(B, B)),
                                   float(np.dot(noise, noise)), n, c=c, beta=beta)
    except (ValueError, OverflowError):  # no prediction, or one past the float range
        return None


def _run_slice(oracle: SampleOracle, theta: np.ndarray, cells: tuple,
               seed: int, lo: int, hi: int) -> np.ndarray:
    """Squared errors for replications [lo, hi): shape (hi-lo, plan count).
    ``cells`` pairs each plan with its prepared map, one tuple per budget;
    the maps are read-only, so every slice of a run shares them."""
    dim, size = oracle.dim, max(cell[0][0].deltas.shape[0] for cell in cells)
    # every (replication, plan) writes its samples into one reused buffer,
    # where the reduction then forms its terms in place: a fresh path per
    # plan re-faulted its pages
    paths = np.empty(dim * size)
    out = np.empty((hi - lo, sum(map(len, cells))))
    for row, r in enumerate(range(lo, hi)):
        col = 0
        for bidx, cell in enumerate(cells):
            n = cell[0][0].deltas.shape[0]
            # one draw per (replication, budget) cell, replayed by every plan
            block = oracle.draw(n, StreamKey(seed, (r, bidx)))
            terms = paths[:dim * n].reshape(dim, n)
            for plan, prepared in cell:
                samples = prepared.transform(block, terms.T)
                diff = plan.reduce(samples, terms=terms) - theta
                out[row, col] = float(diff @ diff)
                col += 1
            del block  # two blocks alive at once would set the peak RSS
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
    a rerun of the same configuration is byte-identical.  ``baseline``
    labels the entry every ratio divides by (None if there is none); it
    is not serialised."""

    rows: tuple[ReportRow, ...]
    squared_errors: dict[str, np.ndarray]  # key "label|n"
    config_hash: str
    seed: int
    replications: int
    degenerate: bool
    baseline: str | None

    schema_version = 1

    def row(self, estimator: str, n: int) -> ReportRow:
        n = budget(n)[0]
        for r in self.rows:
            if r.estimator == estimator and r.n == n:
                return r
        raise KeyError(f"no row for estimator={estimator!r}, n={n}")

    def errors(self, estimator: str, n: int) -> np.ndarray:
        return self.squared_errors[f"{estimator}|{budget(n)[0]}"]

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
            "rows": [asdict(r) for r in self.rows],
            "squared_errors": {k: v.tolist() for k, v in self.squared_errors.items()},
        }
        return json.dumps(doc, sort_keys=True) + "\n"

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
    MSE, standard error, risk ratio against the baseline entry (found by
    kind, whatever its label), and the theory prediction (synthetic
    models only).

    ``workers`` (an integer in 1..MAX_WORKERS) only splits replications
    into index slices, the first run on the calling thread and the rest
    on a pool (numpy releases the GIL in its kernels); results are
    identical for any value.  A model with zero error
    everywhere (degenerate synthetic spec) reports ratio 1.0 by
    convention and sets the degenerate flag.

    Every run builds its plans and its weighted rows' exact risk sums
    from parts of `bvbal.calibration._memo` (see the module docstring)
    and prepares its maps afresh; a recursive entry that clamps its
    steps warns on every run.  On a synthetic model each entry's own
    scale s must lie in the range the baseline d must, and keep |B| s**q1,
    |h| s**(q1 + 1) and sigma s**-q2 below 2**512 (else
    `ConfigurationError`, naming the entry and the term).
    """
    what = f"workers must be an integer in [1, {MAX_WORKERS}]"
    if isinstance(workers, bool):
        raise ConfigurationError(f"{what}, got {workers!r}")
    workers = count(workers, what, 1, MAX_WORKERS + 1, ConfigurationError)
    synthetic = isinstance(config.model, SyntheticOracleSpec)
    if synthetic:
        oracle: SampleOracle = config.model
        theta = config.model.theta
    else:
        oracle = config.model.make_oracle()
        theta = config.model.true_value()
    entries = _build_plans(config, oracle.order)
    maps = {}  # plans that share a deltas array share its map, prepared once
    for deltas in (e.plan.deltas for group in entries for e in group):
        if id(deltas) not in maps:
            maps[id(deltas)] = oracle.prepare(deltas)
    cells = tuple(tuple((e.plan, maps[id(e.plan.deltas)]) for e in group) for group in entries)

    R = config.replications
    bounds = np.linspace(0, R, workers + 1, dtype=int)
    jobs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    # the calling thread runs the first slice: on a pool thread, even a
    # reused one, reproduce_table(5, replications=8) ran slower
    with ThreadPoolExecutor(max_workers=max(len(jobs) - 1, 1)) as pool:
        rest = [pool.submit(_run_slice, oracle, theta, cells, config.seed, *job)
                for job in jobs[1:]]
        first = _run_slice(oracle, theta, cells, config.seed, *jobs[0])
        sq = np.vstack([first] + [part.result() for part in rest])

    rows: list[ReportRow] = []
    squared_errors: dict[str, np.ndarray] = {}
    degenerate = synthetic and config.model.degenerate
    # every baseline entry runs the same plan, so the first stands for all
    base = next((i for i, s in enumerate(config.estimators) if s.kind == "baseline"), None)
    # each budget has one plan per entry: its columns are one of equal blocks
    for n, group, cols in zip(config.budgets, entries, np.split(sq, len(entries), axis=1)):
        base_mse = None if base is None else math.fsum(cols[:, base]) / R
        for entry, e in zip(group, cols.T):
            mse = math.fsum(e) / R
            if base_mse is None:
                ratio = None
            elif base_mse == 0.0:
                ratio = 1.0
                degenerate = True
            else:
                ratio = mse / base_mse
            rows.append(ReportRow(entry.label, n, mse, _standard_error(e), ratio,
                                  _theory(entry, config.model, n)))
            squared_errors[f"{entry.label}|{n}"] = e.copy()
    return ExperimentReport(
        rows=tuple(rows),
        squared_errors=squared_errors,
        config_hash=config.hash(),
        seed=config.seed,
        replications=R,
        degenerate=degenerate,
        baseline=None if base is None else entries[0][base].label,
    )


def _standard_error(e: np.ndarray) -> float:
    """np.std(e, ddof=1) / sqrt(len(e)) on e * 2**-k, 2**k bounding max(e),
    scaled back by 2**k.  The power of two scales every step exactly (the
    squares by 2**-2k, which the square root halves), so away from
    underflow the bits are the unscaled formula's, and a finite MSE has a
    finite se."""
    k = math.frexp(float(np.max(e)))[1]
    return math.ldexp(float(np.std(np.ldexp(e, -k), ddof=1) / math.sqrt(e.shape[0])), k)


def paired_risk_ratio(report: ExperimentReport, estimator: str, n: int,
                      baseline: str | None = None) -> RiskRatio:
    """The report row's MSE ratio estimator / baseline, bit for bit, with
    a jackknife (leave-one-replication-out) 95% half-width.

    ``baseline`` defaults to the report's baseline entry, whatever its
    label; a report without one needs it named (else `ConfigurationError`).
    An estimator compared against itself gives exactly (1.0, 0.0); a
    zero-MSE baseline gives ratio 1.0 flagged degenerate.
    """
    baseline = report.baseline if baseline is None else baseline
    if baseline is None:
        raise ConfigurationError("the report has no baseline entry; name the denominator")
    e = report.errors(estimator, n)
    b = report.errors(baseline, n)
    R = e.shape[0]
    Se, Sb = math.fsum(e), math.fsum(b)
    if Sb / R == 0.0:  # the row's MSEs and its degenerate rule
        return RiskRatio(1.0, 0.0, True)
    ratio = (Se / R) / (Sb / R)
    loo = (Se - e) / (Sb - b)
    center = loo.mean()
    se = math.sqrt((R - 1) / R * float(np.sum((loo - center) ** 2)))
    return RiskRatio(float(ratio), 1.96 * se, False)


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
    seed = count(seed, "seed must lie in [0, 2**64)", 0, 2**64, ConfigurationError)
    B_values = np.geomspace(0.1, 10.0, 5) if B_values is None else np.asarray(B_values, float)
    sigma_values = (
        np.geomspace(0.1, 10.0, 5) if sigma_values is None else np.asarray(sigma_values, float)
    )
    if not (B_values.ndim == sigma_values.ndim == 1 and B_values.size and sigma_values.size):
        raise ConfigurationError("B_values and sigma_values must be non-empty 1-d sequences")
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
                budgets=(n,),
                baseline_d=d,
                K=K,
                n0=n0,
                replications=replications,
                seed=cell_seed,
            )
            report = run_experiment(config, workers=workers)
            rr = paired_risk_ratio(report, report.rows[-1].estimator, n)  # the weighted row
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
                    max_budget: int = 10_000, workers: int = 1) -> TableResult:
    """Rebuild reference table 1-8.

    Tables 1-2: closed-form risk ratios of the recursive and averaged
    schemes (per bias order).  Tables 3-4: the capped weighted scheme's
    asymptotic ratio over K = 0.5..2.0.  Tables 5-8: paired queueing
    experiments (cfd/sp x baseline scale 1 or 2); ``scale`` multiplies
    the budgets (scaled minimum must stay >= 1e3) and budgets above
    ``max_budget`` are skipped.
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
    positive(scale, "scale must be positive")
    budgets = tuple(int(round(n * scale)) for n in MM1_BUDGETS_FULL)
    if min(budgets) < 1000:
        raise ValueError(
            f"scaled minimum budget {min(budgets)} is below 1e3; raise scale"
        )
    budgets = tuple(n for n in budgets if n <= max_budget)
    if not budgets:
        raise ValueError(
            f"all scaled budgets exceed max_budget={max_budget}; raise max_budget to run them"
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
    labels = [r.estimator for r in report.rows
              if r.n == budgets[0] and r.estimator != report.baseline]
    headers = ("n", "baseline_mse") + tuple(f"ratio_{lab}" for lab in labels)
    rows = tuple(
        (n, report.row(report.baseline, n).mse)
        + tuple(report.row(lab, n).ratio for lab in labels)
        for n in budgets
    )
    return TableResult(table_id, "monte-carlo", headers, rows, report)
