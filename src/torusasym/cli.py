"""Command-line front end: single evaluations, sweeps, verification, region maps.

Subcommands
-----------
eval    one J_N value by the sum or the integral route, as a JSON record
expand  expansion report(s) over an N range, optional CSV sweep
verify  closed-form identity suites over all (a,b) up to a bound
region  CSV grid of the convergence classification in the xi plane

Exit codes: 0 success, 1 verification failure, 2 argument/parse error,
3 numeric failure.  Errors are emitted as one-line JSON on stderr.  The
environment variable TORUSASYM_PRECISION overrides the default working
digits.  Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re as _re
import sys

from mpmath import fabs, im, mp, mpc, mpf, pi, re

from . import __version__, identities
from .asymptotics import classify_region, expand, ExpansionSpec
from .errors import TorusAsymError
from .jones import EvalPoint, _nearest_2pii_multiple, jones_integral, jones_sum
from .precision import Precision, to_mpc
from .torus import TorusKnot

# snap slack for xi values typed with few digits: 2 pi i multiples and
# pole-case points are recognized within this distance and made exact
XI_SNAP = 1e-4


class CliError(Exception):
    """Argument-level error: exits with code 2."""


def parse_xi(text: str) -> complex:
    """Parse RE, IMi, or RE+IMi (optional signs, no spaces)."""
    s = text.strip()
    if not s:
        raise CliError("empty xi")
    if s.endswith("i"):
        body = s[:-1]
        m = _re.match(
            r"^(?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)(?P<im>[+-]\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)$",
            body,
        )
        if m:
            return complex(float(m.group("re")), float(m.group("im")))
        m = _re.match(r"^(?P<im>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)$", body)
        if m:
            return complex(0.0, float(m.group("im")))
        raise CliError(f"malformed xi value: {text!r}")
    m = _re.match(r"^[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?$", s)
    if m:
        return complex(float(s), 0.0)
    raise CliError(f"malformed xi value: {text!r}")


def parse_n_range(text: str) -> list[int]:
    """Single N, or start:stop:x<factor> (geometric) / start:stop:+<step> (arithmetic)."""
    s = text.strip()
    if ":" not in s:
        try:
            n = int(s)
        except ValueError:
            raise CliError(f"malformed N: {text!r}") from None
        if n < 1:
            raise CliError("N must be positive")
        return [n]
    parts = s.split(":")
    if len(parts) != 3:
        raise CliError(f"malformed N range: {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"malformed N range: {text!r}") from None
    step = parts[2]
    if start < 1 or stop < start:
        raise CliError("need 1 <= start <= stop")
    out = []
    if step.startswith("x"):
        try:
            factor = int(step[1:])
        except ValueError:
            raise CliError(f"malformed geometric step: {step!r}") from None
        if factor < 2:
            raise CliError("geometric factor must be >= 2")
        n = start
        while n <= stop:
            out.append(n)
            n *= factor
    elif step.startswith("+"):
        try:
            delta = int(step[1:])
        except ValueError:
            raise CliError(f"malformed arithmetic step: {step!r}") from None
        if delta < 1:
            raise CliError("arithmetic step must be >= 1")
        out.extend(range(start, stop + 1, delta))
    else:
        raise CliError(f"step must look like x2 or +100, got {step!r}")
    if not out:
        raise CliError("empty N range")
    return out


def snap_special_xi(knot: TorusKnot, xi: complex) -> complex | mpc:
    """Snap xi typed with few digits onto nearby exact special points.

    Targets: integer multiples of 2 pi i, and the pole-case points
    2 k pi i / ab.  Exactness matters there because the core dispatches
    cases with tight guards.
    """
    with mp.workdps(40):
        z = to_mpc(xi)
        if abs(re(z)) < XI_SNAP:
            y = im(z)
            m = int(mp.nint(y / (2 * pi)))
            if m != 0 and abs(y - 2 * pi * m) < XI_SNAP:
                return 2 * pi * mpc(0, 1) * m
            k = int(mp.nint(y * knot.ab / (2 * pi)))
            if knot.is_pole_index(k) and abs(y - 2 * pi * k / knot.ab) < XI_SNAP:
                return 2 * pi * mpc(0, 1) * k / knot.ab
        return xi


def default_digits() -> int:
    env = os.environ.get("TORUSASYM_PRECISION")
    if env is None:
        return 30
    try:
        return int(env)
    except ValueError:
        raise CliError(f"TORUSASYM_PRECISION must be an integer, got {env!r}") from None


def build_precision(args) -> Precision:
    digits = args.digits if args.digits is not None else default_digits()
    rel = args.rel_tol if args.rel_tol is not None else max(1e-12, 10.0 ** (2 - digits))
    try:
        return Precision(working_digits=digits, target_rel_tol=rel)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _num(x, digits: int):
    """JSON-safe number: decimal string above 17 digits, float otherwise."""
    if digits > 17:
        return mp.nstr(x, digits)
    return float(x)


def _xi_str(xi) -> str:
    z = to_mpc(xi)
    im_part = mp.nstr(im(z), 17)
    sign = "" if im_part.startswith("-") else "+"
    return "%s%s%si" % (mp.nstr(re(z), 17), sign, im_part)


def _write_json(record, path: str | None) -> None:
    text = json.dumps(record, indent=2, sort_keys=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_eval(args) -> int:
    precision = build_precision(args)
    knot = TorusKnot(args.a, args.b)
    xi = snap_special_xi(knot, parse_xi(args.xi))
    with precision.workdps():
        if args.method == "sum":
            value = jones_sum(knot, args.N, xi, precision)
        else:
            value = jones_integral(knot, EvalPoint(xi=complex(xi), N=args.N), precision)
        digits = precision.working_digits
        record = {
            "a": knot.a,
            "b": knot.b,
            "N": args.N,
            "xi": _xi_str(xi),
            "method": args.method,
            "value_re": _num(re(value), digits),
            "value_im": _num(im(value), digits),
            "abs": _num(fabs(value), digits),
            "precision_digits": digits,
        }
    _write_json(record, args.json)
    return 0


def _report_record(report, digits: int) -> dict:
    return {
        "case_tag": report.case_tag,
        "a": report.knot.a,
        "b": report.knot.b,
        "N": report.N,
        "xi": _xi_str(report.xi),
        "correction_order": report.correction_order,
        "prefactor_re": _num(re(report.prefactor), digits),
        "prefactor_im": _num(im(report.prefactor), digits),
        "leading_re": _num(re(report.leading), digits),
        "leading_im": _num(im(report.leading), digits),
        "exp_terms": [
            {"k": k, "re": _num(re(t), digits), "im": _num(im(t), digits)}
            for k, t in report.exp_terms
        ],
        "corrections": [
            {"j": j + 1, "re": _num(re(c), digits), "im": _num(im(c), digits)}
            for j, c in enumerate(report.corrections)
        ],
        "approximant_re": _num(re(report.approximant), digits),
        "approximant_im": _num(im(report.approximant), digits),
        "oracle_re": _num(re(report.oracle), digits),
        "oracle_im": _num(im(report.oracle), digits),
        "residual": _num(report.residual, digits),
        "precision_digits": digits,
    }


def cmd_expand(args) -> int:
    precision = build_precision(args)
    knot = TorusKnot(args.a, args.b)
    xi = snap_special_xi(knot, parse_xi(args.xi))
    n_values = parse_n_range(args.N)
    digits = precision.working_digits
    reports = []
    for n in n_values:
        spec = ExpansionSpec(knot=knot, xi=complex(to_mpc(xi)), N=n, correction_order=args.J)
        reports.append(expand(spec, precision))
    record = {"reports": [_report_record(r, digits) for r in reports]}
    _write_json(record, args.json)
    if args.csv:
        rows = [
            [
                r.N,
                mp.nstr(fabs(r.oracle), digits),
                mp.nstr(fabs(r.approximant), digits),
                mp.nstr(r.residual, digits),
                r.case_tag,
            ]
            for r in reports
        ]
        _write_csv(args.csv, ["N", "oracle_abs", "approx_abs", "residual", "case_tag"], rows)
    return 0


def cmd_verify(args) -> int:
    precision = build_precision(args)
    knots = identities.knots_up_to(args.bound)
    if not knots:
        # every check over no knots would pass vacuously
        raise CliError(
            "no torus knot has ab <= %d; the smallest is T(2,3) with ab = 6" % args.bound
        )
    checks = [
        {
            "identity": check.identity,
            "samples": check.samples,
            "max_deviation": "%.3e" % float(check.deviation),
            "tolerance": "%.1e" % float(check.tolerance),
            "status": check.status,
        }
        for check in identities.suite(knots, precision, random.Random(20100831), args.perturb)
    ]
    failed = [c for c in checks if c["status"] == "FAIL"]
    record = {
        "bound": args.bound,
        "perturb": args.perturb,
        "precision_digits": precision.working_digits,
        "checks": checks,
        "overall": "FAIL" if failed else "PASS",
    }
    _write_json(record, args.json)
    if args.json:
        for c in checks:
            sys.stdout.write(
                "%-40s %8d samples   max dev %s   %s\n"
                % (c["identity"], c["samples"], c["max_deviation"], c["status"])
            )
        sys.stdout.write("overall: %s\n" % record["overall"])
    return 1 if failed else 0


def cmd_region(args) -> int:
    precision = build_precision(args)
    knot = TorusKnot(args.a, args.b)
    if args.step <= 0:
        raise CliError("step must be positive")
    rows = []
    with precision.workdps():
        n_re = int(mp.floor((mpf(args.re_max) - mpf(args.re_min)) / mpf(args.step))) + 1
        n_im = int(mp.floor((mpf(args.im_max) - mpf(args.im_min)) / mpf(args.step))) + 1
        for i in range(n_re):
            x = mpf(args.re_min) + i * mpf(args.step)
            for j in range(n_im):
                y = mpf(args.im_min) + j * mpf(args.step)
                if y < 0:
                    continue
                z = mpc(x, y)
                if _nearest_2pii_multiple(z) is not None:
                    cls = "excluded_2pii_multiple"
                else:
                    cls = classify_region(knot, z, precision)
                rows.append([mp.nstr(x, 12), mp.nstr(y, 12), cls])
        # boundary semicircle samples (Re <= 0 half of |xi| = 2 pi / ab)
        radius = 2 * pi / knot.ab
        for j in range(33):
            theta = pi / 2 + pi / 2 * j / 32
            z = radius * mpc(mp.cos(theta), mp.sin(theta))
            if re(z) > 0 or im(z) < 0:
                continue
            rows.append([mp.nstr(re(z), 12), mp.nstr(im(z), 12), "boundary_oscillates"])
        # pole markers on the imaginary axis within the window
        k = 1
        while True:
            y = k * pi / knot.ab
            if y > args.im_max:
                break
            if knot.is_pole_index(k) and y >= args.im_min:
                rows.append([mp.nstr(mpf(0), 12), mp.nstr(y, 12), "pole_marker"])
            k += 1
    _write_csv(args.csv, ["re", "im", "class"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusasym",
        description="Colored Jones evaluation and asymptotics for torus knots",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_knot=True):
        if with_knot:
            p.add_argument("--a", type=int, required=True)
            p.add_argument("--b", type=int, required=True)
        p.add_argument("--digits", type=int, default=None, help="working decimal digits")
        p.add_argument("--rel-tol", type=float, default=None, help="quadrature relative target")
        p.add_argument("--json", type=str, default=None, help="write JSON here instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate one J_N value")
    common(p_eval)
    p_eval.add_argument("--N", type=int, required=True)
    p_eval.add_argument("--xi", type=str, required=True, help="RE, IMi, or RE+IMi")
    p_eval.add_argument("--method", choices=["integral", "sum"], default="sum")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("expand", help="expansion report over an N range")
    common(p_exp)
    p_exp.add_argument("--N", type=str, required=True, help="N or start:stop:x2 or start:stop:+100")
    p_exp.add_argument("--xi", type=str, required=True)
    p_exp.add_argument("--J", type=int, default=0, help="correction order")
    p_exp.add_argument("--csv", type=str, default=None, help="write sweep CSV here")
    p_exp.set_defaults(func=cmd_expand)

    p_ver = sub.add_parser("verify", help="run the closed-form identity suites")
    common(p_ver, with_knot=False)
    p_ver.add_argument("--bound", type=int, default=35, help="check all (a,b) with ab <= bound")
    p_ver.add_argument(
        "--perturb", type=float, default=0.0,
        help="test-only fault injection added to one side of each identity",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_reg = sub.add_parser("region", help="convergence-class grid in the xi plane")
    common(p_reg)
    p_reg.add_argument("--re-min", type=float, required=True)
    p_reg.add_argument("--re-max", type=float, required=True)
    p_reg.add_argument("--im-min", type=float, default=0.0)
    p_reg.add_argument("--im-max", type=float, required=True)
    p_reg.add_argument("--step", type=float, required=True)
    p_reg.add_argument("--csv", type=str, required=True)
    p_reg.set_defaults(func=cmd_region)

    return parser


def _fuse_xi(argv: list[str]) -> list[str]:
    """Join `--xi VALUE` into `--xi=VALUE` when VALUE starts with '-'.

    argparse takes a token such as -0.5+3i for an option and leaves --xi
    without its value; the fused form is read as the value it is.
    """
    fused: list[str] = []
    for token in argv:
        if fused and fused[-1] == "--xi" and token.startswith("-") and not token.startswith("--"):
            fused[-1] = "--xi=" + token
        else:
            fused.append(token)
    return fused


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_fuse_xi(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": "argument", "message": str(exc)}) + "\n")
        return 2
    except TorusAsymError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
