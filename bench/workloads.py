"""Seeded inputs for the four benchmark workloads.

A workload is a cycle of ops.  The timed loop runs cycle 0, 1, 2, ... until
its time is up, and each cycle draws fresh inputs from the seed and the
cycle number, so no result can be reused from an earlier cycle.  What sets
the cost of an op (its kind, knot, xi class, size stratum, correction
order) is fixed per slot of the cycle; the seed draws the exact xi and size
inside it.  The benchmark reports each slot's median time over the cycles,
so every cycle must fill a slot with an op of the same cost class, and the
slot structure is the same for every seed so that the seed moves the inputs
but not the work.  The package receives only the generated argv lists and
call arguments.

oracle   eval --method integral / --method sum pairs at one (knot, xi, N)
large_n  eval --method sum at N ~ 1e3..1e5, plus jones_fig8 calls
sweep    expand over N ladders, all four expansion cases, J = 0..3
catalog  verify identity suites and region grids
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("oracle", "large_n", "sweep", "catalog")

# CLI default working digits; the benchmark clears TORUSASYM_PRECISION
DIGITS = 30
# rel_tol passed with --rel-tol (None: the CLI default); also the check tolerance
REL_TOL = {"oracle": 1e-8, "large_n": 1e-12, "sweep": 1e-12, "catalog": None}
# acceptance criterion 1: integral and sum agree to this relative distance
ORACLE_AGREEMENT = 1e-6

KNOTS = ((2, 3), (2, 5), (4, 3), (2, 7), (3, 5))
TWO_PI = 2 * math.pi

# oracle N strata; the quadrature cost falls with N, fastest at small N,
# so the strata are narrowest there
ORACLE_N_STRATA = ((2, 4), (12, 16), (24, 30))

# large_n: one torus op per N stratum, with the xi class fixed per stratum so
# that the per-term cost of a cycle does not depend on the seed
LARGE_N_TORUS = ((1000, "imag"), (3162, "complex"), (10000, "2pii"), (31623, "imag"), (100000, "real"))
LARGE_N_FIG8 = ((3000, "real"), (10000, "2pii"))

SWEEP_STOP = 1600
SWEEP_STARTS = (100, 200, 400, 800)
# the two Re xi < 0 inputs that expose the jones_sum cancellation defect
SWEEP_DEFECT_XI = ("-0.3+0.5i", "-0.5+3i")

# verify bounds: each stratum holds one set of knots with ab <= bound
VERIFY_BOUNDS = ((15, 16, 17), (26, 27), (30, 31, 32))
REGION_GRIDS = 3
REGION_HALF_WIDTH = 40  # grid points either side of the centre, and up


@dataclass
class Op:
    """One timed operation: a CLI call sequence or a library call.

    kind is pair, sum, fig8, expand, verify or region; argvs are the CLI
    argument vectors run in order; params holds what the check needs.
    """

    kind: str
    argvs: tuple = ()
    params: dict = field(default_factory=dict)


def xi_text(re_part: float, im_part: float) -> str:
    return "%.4f%+.4fi" % (re_part, im_part)


def parse_xi_text(text: str) -> complex:
    """The float pair the CLI reads from RE+IMi text (the README format)."""
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    return complex(float(body[:cut]), float(body[cut:]))


def _tol_args(workload: str) -> list[str]:
    rel = REL_TOL[workload]
    return [] if rel is None else ["--rel-tol", repr(rel)]


def _eval(workload, a, b, n, xi, method):
    return ("eval", "--a", str(a), "--b", str(b), "--N", str(n), "--xi=" + xi,
            "--method", method, *_tol_args(workload))


def _expand(a, b, xi, start, j):
    return ("expand", "--a", str(a), "--b", str(b), "--xi=" + xi,
            "--N", "%d:%d:x2" % (start, SWEEP_STOP), "--J", str(j), *_tol_args("sweep"))


def _clear_of_special_points(a: int, b: int, y: float, gap: float) -> bool:
    """y is at least gap away from every 2 k pi/(ab), including the 2 pi multiples."""
    spacing = TWO_PI / (a * b)
    k = round(y / spacing)
    return abs(y - k * spacing) >= gap


def _imaginary(draw, a, b, lo, hi) -> str:
    while True:
        y = round(draw.uniform(lo, hi), 4)
        if _clear_of_special_points(a, b, y, 0.05):
            return xi_text(0.0, y)


def _oracle(draw) -> list[Op]:
    # a Latin square of knot x xi class -> N stratum: every knot and every
    # class meets every stratum
    ops = []
    for i, (a, b) in enumerate(KNOTS):
        for j, cls in enumerate(("real", "upper", "left")):
            lo, hi = ORACLE_N_STRATA[(i + j) % len(ORACLE_N_STRATA)]
            n = draw.randint(lo, hi)
            if cls == "real":
                xi = xi_text(draw.uniform(0.8, 1.2), 0.0)
            elif cls == "upper":
                xi = xi_text(draw.uniform(0.8, 1.2), draw.uniform(1.5, 2.5))
            else:
                xi = xi_text(draw.uniform(-0.4, -0.3), draw.uniform(2.5, 3.0))
            argvs = (_eval("oracle", a, b, n, xi, "integral"), _eval("oracle", a, b, n, xi, "sum"))
            ops.append(Op("pair", argvs, {"a": a, "b": b, "N": n, "xi": xi}))
    return ops


def _large_n_xi(draw, cls: str, a: int, b: int) -> str:
    if cls == "2pii":
        return xi_text(0.0, TWO_PI)
    if cls == "imag":
        return _imaginary(draw, a, b, 0.5, 5.5)
    if cls == "real":
        return xi_text(draw.uniform(0.2, 1.5), 0.0)
    return xi_text(draw.uniform(0.2, 1.5), draw.uniform(0.5, 4.0))


def _large_n(draw) -> list[Op]:
    ops = []
    for (n0, cls), (a, b) in zip(LARGE_N_TORUS, KNOTS):
        n = round(n0 * draw.uniform(0.98, 1.02))
        xi = _large_n_xi(draw, cls, a, b)
        ops.append(Op("sum", (_eval("large_n", a, b, n, xi, "sum"),), {"a": a, "b": b, "N": n, "xi": xi}))
    for n0, cls in LARGE_N_FIG8:
        n = round(n0 * draw.uniform(0.98, 1.02))
        xi = complex(0.0, TWO_PI) if cls == "2pii" else complex(round(draw.uniform(0.3, 1.5), 4), 0.0)
        ops.append(Op("fig8", (), {"N": n, "xi": xi}))
    return ops


def _sweep(draw) -> list[Op]:
    ops = []
    cases = ("not_pole_pos_re", "not_pole_nonpos_re", "pole_case", "kt_2pii")
    for c, case in enumerate(cases):
        for j in range(4):
            # each case and each J meets every ladder start once; each case
            # takes four different knots
            start = SWEEP_STARTS[(c + j) % 4]
            a, b = KNOTS[(c + 2 * j) % len(KNOTS)]
            if case == "not_pole_pos_re":
                xi = xi_text(draw.uniform(0.3, 1.5), draw.uniform(0.0, 3.0))
            elif case == "not_pole_nonpos_re" and j % 2 == 0:
                xi = _imaginary(draw, a, b, 0.5, 5.5)
            elif case == "not_pole_nonpos_re":
                # inside the convergent semicircle |xi| < 2 pi/ab, where
                # |J_N| stays of order one and every term cancels
                r = draw.uniform(0.4, 0.7) * TWO_PI / (a * b)
                theta = draw.uniform(0.6, 0.8) * math.pi
                xi = xi_text(r * math.cos(theta), r * math.sin(theta))
            elif case == "pole_case":
                k = draw.choice([k for k in range(1, a * b) if k % a and k % b])
                xi = "0+%.6fi" % (TWO_PI * k / (a * b))
            else:
                xi = "0+%.6fi" % TWO_PI
            ops.append(Op("expand", (_expand(a, b, xi, start, j),),
                          {"a": a, "b": b, "xi": xi, "start": start, "J": j, "case": case}))
    for j, xi in enumerate(SWEEP_DEFECT_XI):
        start = SWEEP_STARTS[0]
        ops.append(Op("expand", (_expand(2, 3, xi, start, j),),
                      {"a": 2, "b": 3, "xi": xi, "start": start, "J": j, "case": "not_pole_nonpos_re"}))
    return ops


def region_argv(a, b, centre, step, csv_path="{csv}"):
    half = REGION_HALF_WIDTH * step
    return ("region", "--a", str(a), "--b", str(b),
            "--re-min", "%.4f" % (centre - half), "--re-max", "%.4f" % (centre + half),
            "--im-max", "%.4f" % half, "--step", "%.4f" % step, "--csv", csv_path)


def _catalog(draw) -> list[Op]:
    ops = [Op("verify", (("verify", "--bound", str(draw.choice(s))),), {}) for s in VERIFY_BOUNDS]
    for _ in range(REGION_GRIDS):
        a, b = draw.choice(KNOTS)
        centre = round(draw.uniform(-0.5, 0.5), 2)
        step = round(draw.uniform(0.04, 0.06), 3)
        ops.append(Op("region", (region_argv(a, b, centre, step),), {"a": a, "b": b}))
    return ops


_GENERATORS = {"oracle": _oracle, "large_n": _large_n, "sweep": _sweep, "catalog": _catalog}


def generate(workload: str, seed: int, cycle: int = 0) -> list[Op]:
    """Cycle `cycle` of a workload; the same seed and cycle give the same list."""
    return _GENERATORS[workload](random.Random("torusasym-bench/%s/%d/%d" % (workload, seed, cycle)))


def warmup(workload: str) -> list[Op]:
    """One small, seed-independent op of each kind the workload runs."""
    if workload == "oracle":
        xi = "1.0000+0.0000i"
        return [Op("pair", (_eval("oracle", 2, 3, 5, xi, "integral"), _eval("oracle", 2, 3, 5, xi, "sum")),
                   {"a": 2, "b": 3, "N": 5, "xi": xi})]
    if workload == "large_n":
        xi = "1.0000+1.0000i"
        return [Op("sum", (_eval("large_n", 2, 3, 1000, xi, "sum"),), {"a": 2, "b": 3, "N": 1000, "xi": xi}),
                Op("fig8", (), {"N": 1000, "xi": complex(1.0, 0.0)})]
    if workload == "sweep":
        return [Op("expand", (("expand", "--a", "2", "--b", "3", "--xi=1.0000+0.5000i", "--N", "25:50:x2",
                               "--J", "1", *_tol_args("sweep")),), {})]
    return [Op("verify", (("verify", "--bound", "6"),), {}),
            Op("region", (region_argv(2, 3, 0.0, 0.5),), {"a": 2, "b": 3})]
