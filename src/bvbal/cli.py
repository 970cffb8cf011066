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
writes byte-identical files.

A --config file holds one ``key=value`` per line of UTF-8 text (``#``
starts a comment line) and serves as defaults.  Keys are the command's
long option names with ``_`` for ``-`` (``max_budget``); each value is
parsed and checked by the flag's own argparse action, so it takes the
values the flag takes (``n`` lines add budgets as repeated ``--n`` flags
do).  Flags on the command line override the file, ``--n`` included: any
``--n`` replaces the file's budgets.  A key that belongs to another
command is ignored; an unknown key or a rejected value exits 2 and names
the file and line; a file that is not UTF-8, or a budget given twice,
exits 2 too.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from typing import Callable, Iterable, Iterator

import numpy as np

from .calibration import (
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    solve_weights,
)
from .errors import ConfigurationError, InfeasibleError, budget, count, positive
from .experiments import (
    MAX_WORKERS,
    EstimatorSetting,
    ExperimentConfig,
    QueueSetting,
    reproduce_table,
    run_experiment,
)
from .oracles import BiasOrder, SyntheticOracleSpec
from .queueing import QueueParams

__all__ = ["main"]

# weights per chunk of a `bvbal weights` file: the file is written block by
# block, so no text of n rows is ever held
_ROWS = 4096


def _flag(convert: Callable, rule: Callable, what: str, *bounds: int) -> Callable:
    """An argparse ``type=`` that converts, then checks the value by an
    `errors` rule; flags and --config values both go through it."""
    def parse(text: str):
        value = convert(text)
        rule(value, what, *bounds, error=argparse.ArgumentTypeError)
        return value
    parse.__name__ = convert.__name__  # read by argparse's "invalid float value"
    return parse


_cap = _flag(float, positive, "K must be positive")
_seed = _flag(int, count, "seed must lie in [0, 2**64)", 0, 2**64)
_workers = _flag(int, count, f"workers must lie in [1, {MAX_WORKERS}]", 1, MAX_WORKERS + 1)


class _Budgets(argparse.Action):
    """Append each ``--n``, but let the first replace the default list
    (the built-in budget or a --config file's) instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if given is self.default else given) + [values])


def _read_config(path: str, commands: dict, command: str) -> dict:
    """Defaults for ``command`` from a --config file, each value run through
    the action of the flag it names (its type, choices or append)."""
    parser = commands[command]
    skip = ("help", "config")
    known = {a.dest for p in commands.values() for a in p._actions} - set(skip)
    actions = {a.dest: a for a in parser._actions if a.dest not in skip}
    ns = argparse.Namespace(**{dest: a.default for dest, a in actions.items()})
    seen = set()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected key=value, got {line!r}")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in known:
            raise ConfigurationError(f"{where}: unknown key {key!r}")
        action = actions.get(key)
        if action is None:
            continue  # an option of another command
        try:  # argparse's own conversion and choices check for one value
            action(parser, ns, parser._get_values(action, [value]))
        except argparse.ArgumentError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        seen.add(key)
    return {key: getattr(ns, key) for key in seen}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "q" in names:
        p.add_argument("--q1", type=float, default=2.0, help="bias order")
        p.add_argument("--q2", type=float, default=1.0, help="noise order")
    if "K" in names:
        p.add_argument("--K", type=_cap, default=1.0, help="inflation cap of the weighted scheme")
    if "run" in names:
        p.add_argument("--estimators", default="baseline,recursive,averaged,weighted",
                       help="comma list of estimator kinds")
        p.add_argument("--d", type=float, default=1.0, help="baseline scale")
        p.add_argument("--n", type=int, action=_Budgets, default=[10_000],
                       help="sample budget; repeat the flag for several")
        p.add_argument("--n0", type=int, default=0, help="schedule offset")
    if "run" in names or "table" in names:
        p.add_argument("--reps", type=int, default=1000, help="replications")
        p.add_argument("--workers", type=_workers, default=1,
                       help="worker threads (results identical)")
        p.add_argument("--seed", type=_seed, help="root seed; generated and printed if absent")
    if "out" in names:
        p.add_argument("--out", help="output file")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format; None: json for a .json --out, else csv")
    p.add_argument("--config", help="key=value defaults file; flags override")


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(48)
    print(f"seed: {seed}")
    return seed


def _write(args, csv_chunks: Callable[[], Iterable[str]],
           json_chunks: Callable[[], Iterable[str]]) -> None:
    """Render the chosen format, and only that one, into ``--out``, one
    string chunk at a time."""
    if args.out is None:
        return
    fmt = args.format
    if fmt is None:
        fmt = "json" if str(args.out).endswith(".json") else "csv"
    chunks = json_chunks() if fmt == "json" else csv_chunks()
    with open(args.out, "w") as fh:
        fh.writelines(chunks)
    print(f"wrote {args.out}")


def _cmd_amrr(args) -> int:
    order = BiasOrder(args.q1, args.q2)
    head = f"scheme: {args.scheme}  q1: {order.q1:g}  q2: {order.q2:g}"
    if args.scheme == "general":
        print(f"{head}  K: {args.K:g}")
        print(f"amrr: {amrr_general(order, args.K):.4g}")
    elif args.scheme == "recursive-tied":
        opt = amrr_recursive_tied(order)
        print(head)
        print(f"amrr: {opt.ratio:.4g}")
        print(f"c: {opt.c_opt:.4g}")
    else:  # recursive-free or averaged
        opt = amrr_recursive_free(order)
        print(head)
        print(f"amrr: {opt.ratio:.4g}")
        print(f"d_scale: {opt.d_scale:.4g}")
        print("c: 1" if args.scheme == "recursive-free" else "c: any positive, 0 < beta < 1")
    return 0


def _weight_blocks(weights: np.ndarray) -> Iterator[tuple[int, list[float]]]:
    """The weights as lists of at most _ROWS floats, each with the 1-based
    index of its first weight."""
    for lo in range(0, weights.shape[0], _ROWS):
        yield lo + 1, weights[lo : lo + _ROWS].tolist()


def _cmd_weights(args) -> int:
    order, K = BiasOrder(args.q1, args.q2), args.K
    n, n0 = budget(args.n, args.n0)
    if n < 2:
        raise InfeasibleError(
            f"n={n}: the constraint system is singular with fewer than two "
            "draws; no weight scheme exists"
        )
    solution = solve_weights(n, n0, order, K)
    # the solved fields, in the order that stdout and the CSV header list them
    fields = {
        "lambda1": solution.lambda1, "lambda2": solution.lambda2,
        "a_star": solution.a_star, "eta_star": solution.eta_star,
        "s_star": solution.s_star,
    }
    print(f"n: {n}  n0: {n0}  K: {K:g}  q1: {order.q1:g}  q2: {order.q2:g}")
    for key, value in fields.items():
        print(f"{key}: {value:.4g}")
    print(f"scaled_s_star: {solution.scaled_s_star:.4g}")
    print(f"amrr_limit: {amrr_general(order, K):.4g}")
    print(f"regime: {solution.regime}")
    print(f"k_min: {solution.k_min!r}")
    if args.out is None:
        return 0  # printing needs no weights
    weights = solution.materialise().weights
    fields.update(K=K, n0=n0, q1=order.q1, q2=order.q2)

    def csv_chunks() -> Iterator[str]:
        yield "".join(f"# {key}={value!r}\n" for key, value in fields.items()) + "j,weight\n"
        for first, block in _weight_blocks(weights):
            yield "".join([f"{j},{w!r}\n" for j, w in enumerate(block, first)])

    def json_chunks() -> Iterator[str]:
        # "weights" sorts last, so these are the bytes of json.dumps({"n": n,
        # **fields, "weights": [...]}, sort_keys=True) + "\n": the sorted
        # head without its closing brace, the list, then "]}"
        yield json.dumps({"n": n, **fields}, sort_keys=True)[:-1] + ', "weights": ['
        for first, block in _weight_blocks(weights):
            yield ("" if first == 1 else ", ") + ", ".join(map(repr, block))
        yield "]}\n"

    _write(args, csv_chunks, json_chunks)
    return 0


def _parse_estimators(spec: str, K: float) -> tuple[EstimatorSetting, ...]:
    settings = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        settings.append(EstimatorSetting(name, K=K if name == "weighted" else None))
    return tuple(settings)


def _run_and_emit(args, model: SyntheticOracleSpec | QueueSetting) -> int:
    config = ExperimentConfig(
        model=model,
        estimators=_parse_estimators(args.estimators, args.K),
        budgets=tuple(args.n),
        baseline_d=args.d,
        K=args.K,
        n0=args.n0,
        replications=args.reps,
        seed=_pick_seed(args),
    )
    report = run_experiment(config, workers=args.workers)
    print(report.summary())
    _write(args, lambda: [report.csv_text()], lambda: [report.json_text()])
    return 0


def _cmd_run_synthetic(args) -> int:
    spec = SyntheticOracleSpec(
        theta=np.array([args.theta]),
        B=np.array([args.B]),
        noise_scale=np.array([args.sigma]),
        order=BiasOrder(args.q1, args.q2),
    )
    return _run_and_emit(args, spec)


def _cmd_run_mm1(args) -> int:
    setting = QueueSetting(params=QueueParams(4.0, 4.0, 10), mode=args.mode,
                           target=args.target)
    return _run_and_emit(args, setting)


def _cmd_reproduce_table(args) -> int:
    kwargs = {}
    if args.id >= 5:
        kwargs = dict(
            scale=args.scale,
            replications=args.reps,
            seed=_pick_seed(args),
            max_budget=args.max_budget,
            workers=args.workers,
        )
    table = reproduce_table(args.id, **kwargs)
    print(table.render())
    _write(args, lambda: [table.csv_text()], lambda: [table.json_text()])
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bvbal",
        description="Bias-variance balancing: calibration and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help, func, *common, **defaults):
        p = commands[name] = sub.add_parser(
            name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        _add_common(p, *common)
        p.set_defaults(func=func, **defaults)
        return p

    p = command("amrr", "closed-form asymptotic minimax risk ratios", _cmd_amrr, "q", "K")
    p.add_argument("--scheme", default="general",
                   choices=("general", "recursive-tied", "recursive-free", "averaged"))

    p = command("weights", "solve and export a weight scheme", _cmd_weights, "q", "K", "out")
    p.add_argument("--n", type=int, required=True, help="sample budget")
    p.add_argument("--n0", type=int, default=0, help="schedule offset")

    p = command("run-synthetic", "paired experiment, synthetic model", _cmd_run_synthetic,
                "q", "K", "run", "out")
    p.add_argument("--B", type=float, default=1.0, help="bias coefficient")
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale")
    p.add_argument("--theta", type=float, default=0.0, help="target value")

    p = command("run-mm1", "paired experiment, M/M/1 derivative", _cmd_run_mm1,
                "K", "run", "out", n0=500)
    p.add_argument("--mode", default="cfd", choices=("cfd", "sp"))
    p.add_argument("--target", default="arrival", choices=("arrival", "service"))

    p = command("reproduce-table", "rebuild reference table 1-8", _cmd_reproduce_table,
                "table", "out")
    p.add_argument("--id", type=int, choices=range(1, 9), required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="budget multiplier for tables 5-8 (scaled min >= 1e3)")
    p.add_argument("--max-budget", type=int, default=10_000,
                   help="largest budget run; larger ones are skipped")
    return parser, commands


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # a second pass, so the file's values are defaults that the
            # command line's flags then override
            commands[args.command].set_defaults(
                **_read_config(args.config, commands, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except InfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigurationError included
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
