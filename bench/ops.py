"""Running one op, hashing its output, and checking it against a reference.

execute() is the only code inside the timed loop.  digest() and check() run
after it, outside the loop.  A check returns (passed, detail); an op fails
if a call raises, exits non-zero, or returns a value outside its precision
contract compared with an independent reference (see reference.py).
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mpmath import mp, mpc, mpf

import reference
from spans import ERROR, WORK
from workloads import DIGITS, ORACLE_AGREEMENT, REGION_HALF_WIDTH, REL_TOL, SWEEP_STOP, parse_xi_text

FIG8_TOL = 1e-12


def execute(op, package, csv_path: Path, recorder=None) -> list:
    """Run op and return its outcome: one [exit code, stdout, stderr, file] per call.

    With a recorder, each CLI call is a cli.main span whose work count is the
    bytes the call wrote.
    """
    if op.kind == "fig8":
        precision = package.Precision(working_digits=DIGITS, target_rel_tol=FIG8_TOL)
        value = package.jones_fig8(op.params["N"], op.params["xi"], precision)
        # exact binary value, so the digest sees every bit
        return [[0, repr((value.real._mpf_, value.imag._mpf_)), "", ""]]
    outcome = []
    for argv in op.argvs:
        argv = [str(csv_path) if arg == "{csv}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        if recorder is None:
            with redirect_stdout(out), redirect_stderr(err):
                code = package.cli.main(argv)
        else:
            with recorder.span("cli.main") as record, redirect_stdout(out), redirect_stderr(err):
                code = package.cli.main(argv)
        text = csv_path.read_text() if "{csv}" in op.argvs[0] else ""
        call = [code, out.getvalue(), err.getvalue(), text]
        if recorder is not None:
            record[WORK] = sum(len(s.encode()) for s in call[1:])
            record[ERROR] = code != 0
        outcome.append(call)
    return outcome


def digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


def _rel(value, ref) -> mpf:
    scale = abs(ref)
    return abs(value - ref) / scale if scale else abs(value - ref)


def _value(record, prefix="value") -> mpc:
    return mpc(mpf(record[prefix + "_re"]), mpf(record[prefix + "_im"]))


def _exits_clean(outcome):
    for code, _, err, _ in outcome:
        if code != 0:
            return "exit code %d: %s" % (code, err.strip()[:200])
    return None


def check(op, outcome) -> tuple[bool, str]:
    problem = _exits_clean(outcome)
    if problem:
        return False, problem
    with mp.workdps(40):
        return _CHECKS[op.kind](op, outcome)


def _check_pair(op, outcome):
    integral, total = (json.loads(call[1]) for call in outcome)
    for record in (integral, total):
        if record["precision_digits"] != DIGITS or record["N"] != op.params["N"]:
            return False, "record does not echo the inputs"
    diff = _rel(_value(integral), _value(total))
    return diff <= ORACLE_AGREEMENT, "integral vs sum rel diff %s" % mp.nstr(diff, 3)


def _check_sum(op, outcome):
    record = json.loads(outcome[0][1])
    p = op.params
    if record["precision_digits"] != DIGITS or record["N"] != p["N"]:
        return False, "record does not echo the inputs"
    ref = reference.torus_jones(p["a"], p["b"], p["N"], parse_xi_text(p["xi"]))
    err = _rel(_value(record), ref)
    return err <= REL_TOL["large_n"], "rel err %s vs reference" % mp.nstr(err, 3)


def _check_fig8(op, outcome):
    re_tuple, im_tuple = ast.literal_eval(outcome[0][1])
    ref = reference.fig8_jones(op.params["N"], op.params["xi"])
    err = _rel(mpc(mpf(re_tuple), mpf(im_tuple)), ref)
    return err <= FIG8_TOL, "rel err %s vs reference" % mp.nstr(err, 3)


def _ladder(start: int) -> list[int]:
    out, n = [], start
    while n <= SWEEP_STOP:
        out.append(n)
        n *= 2
    return out


def _check_expand(op, outcome):
    p = op.params
    reports = json.loads(outcome[0][1])["reports"]
    ladder = _ladder(p["start"])
    if [r["N"] for r in reports] != ladder:
        return False, "N ladder %s, expected %s" % ([r["N"] for r in reports], ladder)
    xi = parse_xi_text(p["xi"])
    worst = mpf(0)
    for r in reports:
        if r["case_tag"] != p["case"] or r["correction_order"] != p["J"]:
            return False, "case %s J %s, expected %s J %s" % (r["case_tag"], r["correction_order"], p["case"], p["J"])
        if r["precision_digits"] != DIGITS:
            return False, "precision_digits %s" % r["precision_digits"]
        ref = reference.torus_jones(p["a"], p["b"], r["N"], xi)
        err = _rel(_value(r, "oracle"), ref)
        worst = max(worst, err)
        if err > REL_TOL["sweep"]:
            return False, "N=%d oracle rel err %s vs reference" % (r["N"], mp.nstr(err, 3))
    return True, "worst oracle rel err %s" % mp.nstr(worst, 3)


def _check_verify(op, outcome):
    record = json.loads(outcome[0][1])
    bound = int(op.argvs[0][2])
    statuses = {c["status"] for c in record["checks"]}
    ok = (record["overall"] == "PASS" and record["bound"] == bound and record["checks"]
          and statuses <= {"PASS", "RECORDED"})
    return bool(ok), "overall %s, statuses %s" % (record["overall"], sorted(statuses))


def _check_region(op, outcome):
    a, b = op.params["a"], op.params["b"]
    argv = op.argvs[0]
    re_min, re_max = float(argv[argv.index("--re-min") + 1]), float(argv[argv.index("--re-max") + 1])
    im_max, step = float(argv[argv.index("--im-max") + 1]), float(argv[argv.index("--step") + 1])
    rows = list(csv.reader(io.StringIO(outcome[0][3])))
    if rows[0] != ["re", "im", "class"]:
        return False, "header %s" % rows[0]
    rows = rows[1:]
    with mp.workdps(50):
        n_re = int(mp.floor((mpf(re_max) - mpf(re_min)) / mpf(step))) + 1
        n_im = int(mp.floor(mpf(im_max) / mpf(step))) + 1
        if min(n_re, n_im) < REGION_HALF_WIDTH:
            return False, "grid %d x %d smaller than requested" % (n_re, n_im)
        expected = []
        for i in range(n_re):
            x = mpf(re_min) + i * mpf(step)
            for j in range(n_im):
                y = j * mpf(step)
                expected.append([mp.nstr(x, 12), mp.nstr(y, 12), reference.region_class(a, b, x, y)])
        markers = [["0.0", mp.nstr(y, 12), "pole_marker"]
                   for y in reference.pole_marker_heights(a, b, 0.0, im_max)]
        radius = 2 * mp.pi / (a * b)
        grid, rest = rows[:len(expected)], rows[len(expected):]
        for i, row in enumerate(expected):
            if i >= len(grid) or grid[i] != row:
                return False, "grid row %d: %s, expected %s" % (i, grid[i] if i < len(grid) else None, row)
        circle = rest[:len(rest) - len(markers)]
        if rest[len(circle):] != markers:
            return False, "pole markers differ"
        if not 32 <= len(circle) <= 33:
            return False, "%d boundary samples" % len(circle)
        for x, y, cls in circle:
            z = mpc(mpf(x), mpf(y))
            if cls != "boundary_oscillates" or abs(abs(z) - radius) > 1e-9 or z.real > 1e-9 or z.imag < -1e-9:
                return False, "boundary sample %s %s %s off the semicircle" % (x, y, cls)
    return True, "%d grid rows, %d boundary samples, %d pole markers" % (len(grid), len(circle), len(markers))


_CHECKS = {
    "pair": _check_pair,
    "sum": _check_sum,
    "fig8": _check_fig8,
    "expand": _check_expand,
    "verify": _check_verify,
    "region": _check_region,
}
