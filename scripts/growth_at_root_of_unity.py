#!/usr/bin/env python3
"""Growth of |J_N| at q = e^(2 pi i/N) and the (N/xi)^(3/2) expansion quality.

Prints a table of |J_N|, the per-step growth exponent, and the relative
residual of the root-of-unity expansion with the requested number of
correction terms; ends with the least-squares exponent over the whole grid
(the expected value is 3/2).

Usage:
    python scripts/growth_at_root_of_unity.py --a 2 --b 3 --n-max 2000 --j 3
"""

import argparse
import math
import statistics

from mpmath import fabs, log, mp, mpc, pi

from torusasym import Precision, TorusKnot, expand_root_of_unity, jones_sum


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=int, default=2)
    parser.add_argument("--b", type=int, default=3)
    parser.add_argument("--n-min", type=int, default=100)
    parser.add_argument("--n-max", type=int, default=2000)
    parser.add_argument("--j", type=int, default=3, help="correction terms in the expansion")
    parser.add_argument("--digits", type=int, default=30)
    args = parser.parse_args()

    precision = Precision(working_digits=args.digits, target_rel_tol=1e-12)
    knot = TorusKnot(args.a, args.b)
    xi = 2 * pi * mpc(0, 1)

    ns = []
    n = args.n_min
    while n < args.n_max:
        ns.append(n)
        n *= 2
    ns.append(args.n_max)

    print(f"{knot}: |J_N| at the primitive root of unity, expansion order j <= {args.j}")
    print(f"{'N':>6}  {'|J_N|':>14}  {'step exponent':>14}  {'expansion residual':>20}")
    logs = []
    for i, n in enumerate(ns):
        value = jones_sum(knot, n, xi, precision)
        rep = expand_root_of_unity(knot, n, args.j, precision)
        logs.append(float(log(fabs(value))))
        if i == 0:
            step = "-"
        else:
            step = "%.4f" % (
                (logs[i] - logs[i - 1]) / (math.log(ns[i]) - math.log(ns[i - 1]))
            )
        print(f"{n:>6}  {mp.nstr(fabs(value), 8):>14}  {step:>14}  {mp.nstr(rep.residual, 6):>20}")

    slope = statistics.linear_regression([math.log(n) for n in ns], logs).slope
    print(f"\nfitted growth exponent over the grid: {slope:.6f}  (expected 1.5)")


if __name__ == "__main__":
    main()
