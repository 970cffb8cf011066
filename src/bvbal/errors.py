"""Shared exception types, and the three input rules every module uses.

Domain errors on otherwise-valid calls (bad delta, bad coordinate, n too
small) raise plain ``ValueError``; the types below mark the two failure
modes callers are expected to branch on.

`count` is the rule for a count (a budget, offset, seed, path entry or
replication count): a finite integral number in range, returned as an
``int``.  `positive` is the rule for a positive real (a rate, scale or
cap): finite and > 0, checked but not converted, so stored values keep
their type.  Both raise ``error(f"{what}, got {x}")``.  `budget` is the
rule for a budget n drawn at offset n0, which every schedule, coefficient
vector and weight vector turns into j + n0: two counts with
n + n0 <= 2**53, past which j + n0 is no longer an exact double.
"""

from __future__ import annotations

import math

__all__ = ["ConfigurationError", "InfeasibleError"]


class ConfigurationError(ValueError):
    """An estimator or experiment configuration is self-inconsistent.

    Examples: a recursive step size exceeding 1 with no burn-in offset to
    absorb it, an averaged run asked to use beta >= 1, or a weight vector
    whose length does not match the sample budget.
    """


class InfeasibleError(RuntimeError):
    """The constrained weight problem has an empty feasible region.

    Raised by the calibration solver when no weight vector satisfies the
    inflation cap for the requested (n, K); the message names both.
    """


def count(x, what: str, minimum: int = 0, below: int | None = None,
          error: type[ValueError] = ValueError) -> int:
    """``int(x)`` for an integer-valued x with minimum <= x (< below)."""
    if not (x >= minimum and x % 1 == 0 and (below is None or x < below)):  # nan, inf too
        raise error(f"{what}, got {x}")
    return int(x)


def positive(x, what: str, error: type[ValueError] = ValueError) -> None:
    """Reject x unless it is finite and > 0."""
    if not (x > 0 and math.isfinite(x)):
        raise error(f"{what}, got {x}")


def budget(n, n0=0, minimum: int = 1,
           error: type[ValueError] = ValueError) -> tuple[int, int]:
    """``(int(n), int(n0))`` for counts n >= minimum and n0 >= 0 with
    n + n0 <= 2**53."""
    n = count(n, f"n must be an integer >= {minimum}", minimum, error=error)
    n0 = count(n0, "n0 must be a non-negative integer", error=error)
    if n + n0 > 2**53:
        raise error(
            f"n + n0 must be at most 2**53, got n={n}, n0={n0}: past it "
            "j + n0 is not an exact double"
        )
    return n, n0
