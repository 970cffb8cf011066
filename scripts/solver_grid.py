"""Run `optimal_weights` over a fixed grid of 625 accepted inputs and print
one line per input and mode, so two versions of the solver can be compared
by diff.

The grid crosses five values of each parameter: n in {2, 3, 10, 100, 1e4},
n0 in {0, 1, 500, 1e6, 1e9}, K in {0.7, 1, 2, 10, 1e3} and (q1, q2) in
{(2, 1), (1, 1), (0.5, 2), (4, 0.5), (1, 3)}.  Each input runs twice:
"plain", with warnings recorded, and "strict", with warnings raised as
errors.  A line gives the input, the mode and either the weights' sha256,
a*, eta* and the regime, or the exception's type and message; then the
warnings seen.  The last lines count the outcomes per mode.

    PYTHONPATH=src python scripts/solver_grid.py > grid.txt
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from collections import Counter

from bvbal import BiasOrder, optimal_weights

NS = (2, 3, 10, 100, 10_000)
N0S = (0, 1, 500, 1_000_000, 1_000_000_000)
KS = (0.7, 1.0, 2.0, 10.0, 1e3)
ORDERS = ((2.0, 1.0), (1.0, 1.0), (0.5, 2.0), (4.0, 0.5), (1.0, 3.0))


def outcome(n: int, n0: int, order: BiasOrder, K: float, strict: bool) -> tuple[str, str]:
    """(kind, text) of one call: kind is "scheme" or the exception's type."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("error" if strict else "always")
        try:
            scheme = optimal_weights(n, n0, order, K)
        except Exception as exc:  # every outcome is recorded, none is fatal
            kind, text = type(exc).__name__, f"{type(exc).__name__}: {exc}"
        else:
            digest = hashlib.sha256(scheme.weights.tobytes()).hexdigest()
            kind = "scheme"
            text = (f"sha256={digest} a*={scheme.a_star!r} "
                    f"eta*={scheme.eta_star!r} regime={scheme.regime}")
    caught = "; ".join(f"{w.category.__name__}: {w.message}" for w in seen)
    return kind, f"{text} warnings=[{caught}]"


def main() -> None:
    counts = {"plain": Counter(), "strict": Counter()}
    for n, n0, K, (q1, q2) in itertools.product(NS, N0S, KS, ORDERS):
        for mode in counts:
            kind, text = outcome(n, n0, BiasOrder(q1, q2), K, mode == "strict")
            counts[mode][kind] += 1
            print(f"n={n} n0={n0} K={K!r} q=({q1!r}, {q2!r}) {mode}: {text}")
    for mode, tally in counts.items():
        print(f"{mode}: " + ", ".join(f"{kind} {m}" for kind, m in sorted(tally.items())))


if __name__ == "__main__":
    main()
