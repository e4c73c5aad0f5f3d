"""Compare the window evaluator with the per-degree greedy at sizes tier-1
leaves out, and exit 1 on any mismatch.

    python tests/window_oracle.py

- every staircase of general:2-8 and collinear:3-8 at m <= 400, and of
  collinear:3 at m = 2000, 5000 and 20000, against the oracle walk of
  tests/oracles.py, which reads the greedy `uniform_h0` at each degree;
- `hilbert collinear:8 --m 451 --t-range 0..100000`'s values, through the
  command's `hilbert_values`, against `uniform_h0` at each degree.
"""

from __future__ import annotations

import sys
import time

from ginlab import PointConfig, gin_staircase
from ginlab.hilbert import hilbert_values
from ginlab.lattice import uniform_h0
from oracles import heights, walk_heights

DIVISOR_SPECS = [f"general:{r}" for r in range(2, 9)] + [f"collinear:{l}" for l in range(3, 9)]
STAIRCASES = [(spec, m) for spec in DIVISOR_SPECS for m in range(1, 401)]
STAIRCASES += [("collinear:3", m) for m in (2000, 5000, 20000)]
HILBERT = ("collinear:8", 451, range(0, 100001))


def main() -> int:
    start, mismatches = time.perf_counter(), []
    for spec, m in STAIRCASES:
        config = PointConfig.parse(spec)
        if heights(gin_staircase.__wrapped__(config, m)) != walk_heights(config, m):
            mismatches.append(f"gin {spec} --m {m}")
    spec, m, ts = HILBERT
    config = PointConfig.parse(spec)
    served = list(hilbert_values(config, m, ts))
    wrong = [t for t, value in zip(ts, served) if value != uniform_h0(config, m, t)]
    if wrong or len(served) != len(ts):
        where = f"first at t={wrong[0]}" if wrong else f"{len(served)} values served"
        mismatches.append(f"hilbert {spec} --m {m} --t-range {ts[0]}..{ts[-1]}: {where}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(STAIRCASES)} staircases and {len(ts)} Hilbert values against the per-degree greedy: "
          f"{len(mismatches)} mismatches ({time.perf_counter() - start:.1f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
