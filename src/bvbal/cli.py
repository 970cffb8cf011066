"""Command-line front end.

Commands
--------
amrr             closed-form asymptotic minimax risk ratios
weights          solve and export a two-decay weight scheme
run-synthetic    paired experiment on the synthetic model
run-mm1          paired experiment on the M/M/1 transient derivative
reproduce-table  rebuild reference tables 1-8

Exit codes: 0 success, 2 configuration/usage error, 3 infeasible weight
problem, 4 I/O failure.  When no --seed is given one is generated and
printed, so any run can be reproduced; rerunning with the same seed
writes byte-identical files.  A --config file holds key=value pairs that
serve as defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
from typing import Callable

import numpy as np

from .calibration import (
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    optimal_weights,
)
from .errors import ConfigurationError, InfeasibleError
from .experiments import (
    EstimatorSetting,
    ExperimentConfig,
    QueueSetting,
    reproduce_table,
    run_experiment,
)
from .oracles import BiasOrder, SyntheticOracleSpec
from .queueing import QueueParams

__all__ = ["main"]

_CONFIG_TYPES = {
    "q1": float, "q2": float, "K": float, "d": float, "n": int, "n0": int,
    "reps": int, "seed": int, "scale": float, "workers": int, "out": str,
    "format": str, "scheme": str, "mode": str, "target": str, "B": float,
    "sigma": float, "theta": float, "estimators": str, "id": int,
    "allow_large": lambda s: s.lower() in ("1", "true", "yes"),
    "max_budget": int, "c": float, "beta": float, "d_scale": float,
}


def _read_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_TYPES[key](value.strip())
    return values


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "q" in names:
        p.add_argument("--q1", type=float, default=None, help="bias order (default 2)")
        p.add_argument("--q2", type=float, default=None, help="noise order (default 1)")
    if "K" in names:
        p.add_argument("--K", type=float, default=None,
                       help="inflation cap for the weighted scheme (default 1)")
    if "run" in names:
        p.add_argument("--d", type=float, default=None, help="baseline scale (default 1)")
        p.add_argument("--n", type=int, action="append", default=None,
                       help="sample budget; repeat the flag for several")
        p.add_argument("--n0", type=int, default=None, help="schedule offset")
        p.add_argument("--reps", type=int, default=None,
                       help="replications (default 1000)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default 1; results identical)")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed; generated and printed when absent")
    p.add_argument("--out", type=str, default=None, help="output file")
    p.add_argument("--format", type=str, default=None, choices=("csv", "json"),
                   help="output format (default csv, or by extension)")
    p.add_argument("--config", type=str, default=None,
                   help="key=value defaults file; flags override")


def _order(args) -> BiasOrder:
    q1 = 2.0 if args.q1 is None else args.q1
    q2 = 1.0 if args.q2 is None else args.q2
    return BiasOrder(q1, q2)


def _check_K(K: float) -> float:
    if K is None:
        K = 1.0
    if not (K > 0 and math.isfinite(K)):
        raise ConfigurationError("K must be positive")
    return float(K)


def _pick_seed(args) -> int:
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2**64), got {args.seed}")
        return args.seed
    seed = secrets.randbits(48)
    print(f"seed: {seed}")
    return seed


def _write(args, csv_text: Callable[[], str], json_text: Callable[[], str]) -> None:
    """Render the chosen format, and only that one, into ``--out``."""
    if args.out is None:
        return
    fmt = args.format
    if fmt is None:
        fmt = "json" if str(args.out).endswith(".json") else "csv"
    text = json_text() if fmt == "json" else csv_text()
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out}")


def _cmd_amrr(args) -> int:
    order = _order(args)
    scheme = args.scheme
    if scheme == "general":
        K = _check_K(args.K)
        print(f"scheme: general  q1: {order.q1:g}  q2: {order.q2:g}  K: {K:g}")
        print(f"amrr: {amrr_general(order, K):.4g}")
    elif scheme == "recursive-tied":
        opt = amrr_recursive_tied(order)
        print(f"scheme: recursive-tied  q1: {order.q1:g}  q2: {order.q2:g}")
        print(f"amrr: {opt.ratio:.4g}")
        print(f"c: {opt.c_opt:.4g}")
    elif scheme in ("recursive-free", "averaged"):
        opt = amrr_recursive_free(order)
        print(f"scheme: {scheme}  q1: {order.q1:g}  q2: {order.q2:g}")
        print(f"amrr: {opt.ratio:.4g}")
        print(f"d_scale: {opt.d_scale:.4g}")
        print("c: 1" if scheme == "recursive-free" else "c: any positive, 0 < beta < 1")
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    return 0


def _cmd_weights(args) -> int:
    order = _order(args)
    K = _check_K(args.K)
    n = args.n if args.n is not None else 1000
    n0 = args.n0 if args.n0 is not None else 0
    if n < 2:
        raise InfeasibleError(
            f"n={n}: the constraint system is singular with fewer than two "
            "draws; no weight scheme exists"
        )
    scheme = optimal_weights(n, n0, order, K)
    print(f"n: {n}  n0: {n0}  K: {K:g}  q1: {order.q1:g}  q2: {order.q2:g}")
    print(f"lambda1: {scheme.lambda1:.4g}")
    print(f"lambda2: {scheme.lambda2:.4g}")
    print(f"a_star: {scheme.a_star:.4g}")
    print(f"eta_star: {scheme.eta_star:.4g}")
    print(f"s_star: {scheme.s_star:.4g}")
    print(f"scaled_s_star: {scheme.scaled_s_star:.4g}")
    print(f"amrr_limit: {amrr_general(order, K):.4g}")
    meta = (
        f"lambda1={scheme.lambda1!r}", f"lambda2={scheme.lambda2!r}",
        f"a_star={scheme.a_star!r}", f"eta_star={scheme.eta_star!r}",
        f"s_star={scheme.s_star!r}", f"K={K!r}", f"n0={n0}",
        f"q1={order.q1!r}", f"q2={order.q2!r}",
    )

    def csv_text() -> str:
        lines = [f"# {m}" for m in meta] + ["j,weight"]
        lines += [f"{j},{w!r}" for j, w in enumerate(scheme.weights.tolist(), 1)]
        return "\n".join(lines) + "\n"

    def json_text() -> str:
        return json.dumps(
            {
                "n": n, "n0": n0, "K": K, "q1": order.q1, "q2": order.q2,
                "lambda1": scheme.lambda1, "lambda2": scheme.lambda2,
                "a_star": scheme.a_star, "eta_star": scheme.eta_star,
                "s_star": scheme.s_star,
                "weights": scheme.weights.tolist(),
            },
            sort_keys=True,
        ) + "\n"

    _write(args, csv_text, json_text)
    return 0


def _parse_estimators(spec: str | None, K: float) -> tuple[EstimatorSetting, ...]:
    names = (spec or "baseline,recursive,averaged,weighted").split(",")
    settings = []
    for name in names:
        name = name.strip()
        if not name:
            continue
        settings.append(EstimatorSetting(name, K=K if name == "weighted" else None))
    return tuple(settings)


def _run_and_emit(args, config: ExperimentConfig) -> int:
    workers = args.workers if args.workers is not None else 1
    report = run_experiment(config, workers=workers)
    print(report.summary())
    _write(args, report.csv_text, report.json_text)
    return 0


def _cmd_run_synthetic(args) -> int:
    order = _order(args)
    K = _check_K(args.K)
    spec = SyntheticOracleSpec(
        theta=np.array([args.theta if args.theta is not None else 0.0]),
        B=np.array([args.B if args.B is not None else 1.0]),
        noise_scale=np.array([args.sigma if args.sigma is not None else 1.0]),
        order=order,
    )
    config = ExperimentConfig(
        model=spec,
        estimators=_parse_estimators(args.estimators, K),
        budgets=tuple(args.n) if args.n else (10_000,),
        baseline_d=args.d if args.d is not None else 1.0,
        K=K,
        n0=args.n0 if args.n0 is not None else 0,
        replications=args.reps if args.reps is not None else 1000,
        seed=_pick_seed(args),
    )
    return _run_and_emit(args, config)


def _cmd_run_mm1(args) -> int:
    K = _check_K(args.K)
    setting = QueueSetting(
        params=QueueParams(4.0, 4.0, 10),
        mode=args.mode,
        target=args.target,
    )
    config = ExperimentConfig(
        model=setting,
        estimators=_parse_estimators(args.estimators, K),
        budgets=tuple(args.n) if args.n else (10_000,),
        baseline_d=args.d if args.d is not None else 1.0,
        K=K,
        n0=args.n0 if args.n0 is not None else 500,
        replications=args.reps if args.reps is not None else 1000,
        seed=_pick_seed(args),
    )
    return _run_and_emit(args, config)


def _cmd_reproduce_table(args) -> int:
    if not 1 <= args.id <= 8:
        raise ConfigurationError(f"table id must be 1..8, got {args.id}")
    kwargs = {}
    if args.id >= 5:
        kwargs = dict(
            scale=args.scale if args.scale is not None else 1.0,
            replications=args.reps if args.reps is not None else 1000,
            seed=_pick_seed(args),
            allow_large=args.allow_large,
            workers=args.workers if args.workers is not None else 1,
        )
        if args.max_budget is not None:
            kwargs["max_budget"] = args.max_budget
    table = reproduce_table(args.id, **kwargs)
    print(table.render())
    _write(args, table.csv_text, table.json_text)
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bvbal",
        description="Bias-variance balancing: calibration and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("amrr", help="closed-form asymptotic minimax risk ratios")
    p.add_argument("--scheme", default="general",
                   choices=("general", "recursive-tied", "recursive-free", "averaged"))
    _add_common(p, "q", "K")
    p.set_defaults(func=_cmd_amrr)
    commands["amrr"] = p

    p = sub.add_parser("weights", help="solve and export a weight scheme")
    p.add_argument("--n", type=int, required=True, help="sample budget")
    p.add_argument("--n0", type=int, default=None, help="schedule offset")
    _add_common(p, "q", "K")
    p.set_defaults(func=_cmd_weights)
    commands["weights"] = p

    p = sub.add_parser("run-synthetic", help="paired experiment, synthetic model")
    p.add_argument("--estimators", type=str, default=None,
                   help="comma list from: baseline,recursive,averaged,weighted")
    p.add_argument("--B", type=float, default=None, help="bias coefficient (default 1)")
    p.add_argument("--sigma", type=float, default=None, help="noise scale (default 1)")
    p.add_argument("--theta", type=float, default=None, help="target value (default 0)")
    _add_common(p, "q", "K", "run")
    p.set_defaults(func=_cmd_run_synthetic)
    commands["run-synthetic"] = p

    p = sub.add_parser("run-mm1", help="paired experiment, M/M/1 derivative")
    p.add_argument("--mode", default="cfd", choices=("cfd", "sp"))
    p.add_argument("--target", default="arrival", choices=("arrival", "service"))
    p.add_argument("--estimators", type=str, default=None)
    _add_common(p, "K", "run")
    p.set_defaults(func=_cmd_run_mm1)
    commands["run-mm1"] = p

    p = sub.add_parser("reproduce-table", help="rebuild reference table 1-8")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--scale", type=float, default=None,
                   help="budget multiplier for tables 5-8 (scaled min >= 1e3)")
    p.add_argument("--allow-large", dest="allow_large", action="store_true",
                   help="run budgets above --max-budget too")
    p.add_argument("--max-budget", dest="max_budget", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce_table)
    commands["reproduce-table"] = p

    return parser, commands


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    # two-pass parse so a --config file provides defaults that explicit
    # flags then override
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    try:
        known, _ = pre.parse_known_args(argv)
        if known.config is not None:
            defaults = _read_config(known.config)
            for sp in commands.values():
                sp.set_defaults(**{
                    k: v for k, v in defaults.items()
                    if any(a.dest == k for a in sp._actions)
                })
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (ConfigurationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
