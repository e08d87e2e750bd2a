#!/usr/bin/env python3
"""Residual decay of the large-N expansion against the exact sum.

For each correction order J the residual should scale like N^(-(J+1)) in the
convergent region; the script prints the residual table and the fitted
log-log slopes.

Usage:
    python scripts/expansion_accuracy.py --a 2 --b 3 --xi 1+0i
    python scripts/expansion_accuracy.py --a 2 --b 3 --xi 0+1.0472i   # pole case
"""

import argparse
import math
import statistics

from mpmath import log, mp

from torusasym import ExpansionSpec, Precision, TorusKnot, expand
from torusasym.cli import parse_xi, snap_special_xi


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=int, default=2)
    parser.add_argument("--b", type=int, default=3)
    parser.add_argument("--xi", type=str, default="1+0i")
    parser.add_argument("--orders", type=int, nargs="*", default=[0, 1, 2])
    parser.add_argument("--n-grid", type=int, nargs="*", default=[100, 200, 400, 800])
    parser.add_argument("--digits", type=int, default=30)
    args = parser.parse_args()

    precision = Precision(working_digits=args.digits, target_rel_tol=1e-12)
    knot = TorusKnot(args.a, args.b)
    xi = snap_special_xi(knot, parse_xi(args.xi))

    header = f"{'N':>6}" + "".join(f"  {'J=' + str(j):>14}" for j in args.orders)
    print(f"{knot} at xi = {args.xi}: relative residual vs the exact sum")
    print(header)
    residuals = {j: [] for j in args.orders}
    case = None
    for n in args.n_grid:
        row = f"{n:>6}"
        for j in args.orders:
            rep = expand(ExpansionSpec(knot, complex(xi), n, j), precision)
            case = rep.case_tag
            residuals[j].append(float(log(rep.residual)))
            row += f"  {mp.nstr(rep.residual, 6):>14}"
        print(row)
    print(f"case: {case}")
    for j in args.orders:
        slope = statistics.linear_regression([math.log(n) for n in args.n_grid], residuals[j]).slope
        print(f"J={j}: fitted slope {slope:+.4f} (expected {-(j + 1)})")


if __name__ == "__main__":
    main()
