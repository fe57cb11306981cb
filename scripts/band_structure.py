#!/usr/bin/env python3
"""Band-edge scan for a periodic family.

Prints the lowest band edges of the chosen potential next to the algebraic
levels of both sign branches, which makes the finite algebraic sector
visible inside the numeric band structure.

Example:
    python scripts/band_structure.py --family periodic-v1 --alpha 1 \
        --beta 1 --a 0 --n 1 --count 8
"""

import argparse
import sys

import numpy as np

from sl2qes.catalog import list_families, make_entry
from sl2qes.errors import Sl2QesError
from sl2qes.fdsolve import band_edges


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="periodic-v1",
                        choices=[f["name"] for f in list_families()
                                 if "period" in f])
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--a", type=float, default=0.0)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--points", type=int, default=1201)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")
    if not 16 <= args.points <= 1_000_000:
        parser.error("--points must be at least 16 and at most 1000000, "
                     f"got {args.points}")

    params = {"alpha": args.alpha, "beta": args.beta, "a": args.a}
    algebraic = {}
    try:
        for sign in ("+", "-"):
            entry = make_entry(args.family, params, sign=sign, n=args.n)
            for lv in entry.spectral().levels:
                algebraic[lv.E] = sign
        # the ring starts at x = a, the point V is even about
        edges = band_edges(lambda x: entry.potential(x + args.a),
                           entry.period, count=args.count, points=args.points)
    except Sl2QesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value exceeds the float range ({exc})",
              file=sys.stderr)
        return 2

    values = sorted(algebraic)
    print(f"{'edge':>12} {'parity':<14} {'algebraic match':>16} {'branch':>7}")
    for edge in edges:
        diffs = [abs(edge.energy - e) for e in values]
        best = int(np.argmin(diffs)) if diffs else -1
        if best >= 0 and diffs[best] < 1e-3:
            match = f"{values[best]:+.6f}"
            branch = algebraic[values[best]]
        else:
            match, branch = "-", "-"
        print(f"{edge.energy:>12.6f} {edge.parity:<14} {match:>16} "
              f"{branch:>7}")
    print(f"\nalgebraic sector ({2 * (args.n + 1)} levels over both "
          f"branches): {[round(v, 6) for v in values]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
