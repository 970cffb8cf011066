"""Reference kernels that measure how fast the host runs right now.

The benchmark's reference host is a small VM whose host switches between
a fast and a slow state for seconds to minutes at a time; the same code
can take 1.6 times as long in one as in the other, and CPU time slows
with wall time (it is not steal).  A run of a few tens of seconds can sit
wholly in one state, so medians within a run cannot remove it.

Each timed operation is therefore bracketed by a short fixed kernel that
uses no bvbal code, and the operation's time is scaled to reference
speed:

    scaled = raw * nominal / (mean of the kernel's time just before and
                              just after the operation)

A change to bvbal moves `raw` and leaves the kernel alone, so it moves
`scaled` by the same factor; a change of host state moves both.  The
states slow different kinds of code by different factors, so each
workload names the kernel that resembles its dominant code: `interp`
(an interpreted integer loop; the harness, the queue and the solver
track it within a few per cent) or `format` (float repr and string
joins; the CLI's CSV/JSON formatting tracks it, the interpreted loop
does not).  `nominal` is the kernel's time on the reference host in its
fast state, so scaled times read as seconds on that host.
"""

from __future__ import annotations

import time

_VALUES = [((i * 7919) % 10007) / 10007.0 + i for i in range(10_000)]


def _interp() -> int:
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def _format() -> int:
    return len("\n".join([f"{j},{v!r}" for j, v in enumerate(_VALUES)]))


# name -> (kernel, its time in seconds on the reference host's fast state)
KERNELS = {
    "interp": (_interp, 0.0056),
    "format": (_format, 0.0065),
}


class Reference:
    """One kernel, timed around operations."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.kernel, self.nominal = KERNELS[name]
        self.kernel()  # first call pays for bytecode and allocator warm-up
        self.samples: list[float] = []

    def time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self, raw: float, before: float, after: float) -> float:
        """`raw` seconds measured between kernel times `before` and
        `after`, in seconds at reference speed."""
        return raw * self.nominal / (0.5 * (before + after))
