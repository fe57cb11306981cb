#!/usr/bin/env python3
"""Run the full catalog through the numeric cross-check and print a table.

Every family is instantiated with a representative parameter set, and its
analytically known levels are compared with the Richardson-extrapolated
energies of the finite-difference spectrum (one period class of band edges
for the periodic families) at 1e-3, with no widening.  One line per family
reports the FD window, the points of the h grid (derived from the window
and the top level's depth; the check also solves at 2h and h/2) and the
eigenvalue count the check derived, and the worst deviation.  Exits
nonzero if any level fails.
"""

import sys
import time

from sl2qes.catalog import make_entry
from sl2qes.pipeline import verification_report

CASES = [
    ("harmonic", {"omega": 2}, None, 3),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1),
    ("coulomb", {"e2": 2, "l": 0}, None, 2),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "-", 1),
    ("periodic-v2", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("periodic-v3", {"alpha": 1, "beta": 1, "a": 0}, "-", 1),
    ("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1),
]


def main() -> int:
    print(f"{'family':<16} {'sign':<4} {'n':>2} {'levels':>6} "
          f"{'x_min':>9} {'x_max':>9} {'points':>6} {'k':>3} "
          f"{'worst diff':>12} {'status':>8}")
    failures = 0
    sweep_start = time.perf_counter()
    for name, params, sign, n in CASES:
        start = time.perf_counter()
        entry = make_entry(name, params, sign=sign, n=n)
        report = verification_report(entry, j_max=n)
        worst = max(row["abs_diff"] for row in report["levels"])
        grid = report["grid"]
        ok = report["all_pass"]
        failures += 0 if ok else 1
        print(f"{name:<16} {sign or '-':<4} {n:>2} "
              f"{len(report['levels']):>6} {grid['x_min']:>9.4g} "
              f"{grid['x_max']:>9.4g} {grid['points']:>6} {grid['k']:>3} "
              f"{worst:>12.3e} "
              f"{'ok' if ok else 'FAIL':>8}  "
              f"[{(time.perf_counter() - start) * 1e3:.1f} ms]")
    print(f"sweep took {time.perf_counter() - sweep_start:.2f} s")
    if failures:
        print(f"{failures} families failed", file=sys.stderr)
        return 1
    print("all families verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
