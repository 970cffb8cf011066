"""Record the golden report rows the benchmark checks against.

    python3 perfbench/make_golden.py

Run it from the root of a source checkout at the commit whose outputs are
the reference; it rewrites perfbench/golden.json.  Regenerate only when a
change to bvbal is meant to change its outputs beyond relative 1e-9.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import GOLDEN_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    golden = {}
    for name, cls in WORKLOADS.items():
        wl = cls(out_dir)
        rows = {}
        for inp in wl.golden_inputs:
            out = wl.op(inp, 1)
            problems = wl.invariants(out)
            if problems:
                raise SystemExit(f"{name} input {inp}: {problems}")
            rows[wl.golden_key(out, inp)] = wl.golden_rows(out)
        wl.cleanup()
        golden[name] = rows
        print(f"{name}: {sorted(rows)}")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
