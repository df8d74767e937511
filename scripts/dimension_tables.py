#!/usr/bin/env python3
"""Recompute the signature-variety dimension tables via generic Jacobian rank.

Prints a d x d table of measured dimensions of M_{d,m,n} (level --level) and,
where available, flags disagreements with the closed formulas.  At level 2
with 3 trials, d = 6, 7 and 8 take about 0.1, 0.2 and 0.6 s (one CPU of a
2-core x86-64 VM, Python 3.11).

Usage: python scripts/dimension_tables.py --d 6 [--level 2] [--trials 3] [--seed 1]
"""

import argparse
import random
import sys
import time

from memsig.membranes import core_tensor
from memsig.variety import dimension_formula, image_dimension


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--level", type=int, default=2, choices=[2, 3])
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-order", type=int, default=None,
                    help="cap on m, n (default: d)")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    top = args.max_order or args.d
    width = len(str(args.d ** args.level)) + 2
    print(f"dim M_{{{args.d},m,n}} at level {args.level}, {args.trials} trials")
    header = " m\\n |" + "".join(f"{n:>{width}}" for n in range(1, top + 1))
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    for m in range(1, top + 1):
        cells = []
        for n in range(1, top + 1):
            measured = image_dimension(core_tensor("axis", m, n, args.level), args.d, args.trials, rng)
            mark = ""
            if args.level == 2:
                formula = dimension_formula(args.d, m, n)
                if formula is not None and formula != measured:
                    mark = "!"
            cells.append(f"{measured}{mark}".rjust(width))
        print(f"{m:>4} |" + "".join(cells))
    print(f"({time.perf_counter() - t0:.1f}s; '!' marks disagreement with a closed formula)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
