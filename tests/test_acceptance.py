"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The report builder computes criteria 1-9 into a JSON-serializable dict with
deterministic decimal strings; the determinism criterion rebuilds the whole
report and compares bytes.  Wall-clock timings are tracked outside the
serialized report (they are measurements about the run, not of it).
"""

import json
import random
import time

import numpy as np
import pytest
from mpmath import exp, fabs, log, mp, mpc, mpf, pi

from torusasym import (
    EvalPoint,
    ExpansionSpec,
    Precision,
    TorusKnot,
    a_polynomial_residual,
    alexander,
    dell_dm,
    expand,
    expand_root_of_unity,
    identities,
    jones_integral,
    jones_sum,
    longitude_eigenvalue,
    meridian_param,
    speculation_residual,
    torsion_lambda_fig8,
)

P_ORACLE = Precision(working_digits=30, target_rel_tol=1e-8)
P_EXPAND = Precision(working_digits=30, target_rel_tol=1e-12)

ORACLE_KNOTS = [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 5)]
ORACLE_XIS = [mpf(1), mpc(1, 2), mpc("-0.5", 3)]


def _s(x, digits=17):
    return mp.nstr(x, digits)


def criterion_1_oracle_equivalence():
    worst = mpf(0)
    count = 0
    for knot in ORACLE_KNOTS:
        for xi in ORACLE_XIS:
            for n in range(2, 31):
                vi = jones_integral(knot, EvalPoint(xi=complex(xi), N=n), P_ORACLE)
                vs = jones_sum(knot, n, xi, P_ORACLE)
                worst = max(worst, fabs(vi - vs) / fabs(vs))
                count += 1
    return {
        "name": "oracle equivalence (integral vs sum)",
        "samples": count,
        "max_rel_diff": _s(worst),
        "tolerance": "1e-6",
        "pass": bool(worst < mpf("1e-6")),
    }


def criterion_2_residual_slopes():
    knot = TorusKnot(2, 3)
    ns = [100, 200, 400, 800]
    entries = []
    ok = True
    for order in (0, 1, 2):
        xs, ys = [], []
        for n in ns:
            rep = expand(ExpansionSpec(knot, 1 + 0j, n, order), P_EXPAND)
            xs.append(float(log(n)))
            ys.append(float(log(rep.residual)))
        slope = float(np.polyfit(xs, ys, 1)[0])
        target = -(order + 1)
        good = abs(slope - target) < 0.1 * abs(target)
        ok = ok and good
        entries.append({"J": order, "slope": "%.6f" % slope, "target": target, "pass": good})
    return {
        "name": "residual decay slopes at xi=1",
        "fits": entries,
        "pass": ok,
    }


def criterion_3_pole_case():
    knot = TorusKnot(2, 3)
    xi = complex(0, float(pi / 3))
    residuals = []
    cases = set()
    for n in (100, 200, 400, 800):
        rep = expand(ExpansionSpec(knot, xi, n, 2), P_EXPAND)
        cases.add(rep.case_tag)
        residuals.append(rep.residual)
    monotone = all(r1 < r0 for r0, r1 in zip(residuals, residuals[1:]))
    return {
        "name": "pole case tracks oracle (xi = pi i/3)",
        "case_tags": sorted(cases),
        "residuals": [_s(r, 8) for r in residuals],
        "pass": bool(monotone and cases == {"pole_case"}),
    }


def criterion_4_root_of_unity():
    knot = TorusKnot(2, 3)
    ns = [100, 200, 400, 800, 1600, 2000]
    xi = 2 * pi * mpc(0, 1)
    xs, ys = [], []
    for n in ns:
        v = jones_sum(knot, n, xi, P_EXPAND)
        xs.append(float(log(n)))
        ys.append(float(log(fabs(v))))
    exponent = float(np.polyfit(xs, ys, 1)[0])
    rep = expand_root_of_unity(knot, 2000, 3, P_EXPAND)
    growth_ok = abs(exponent - 1.5) < 0.15
    resid_ok = rep.residual < mpf("1e-2")
    return {
        "name": "root-of-unity growth and expansion",
        "fitted_exponent": "%.6f" % exponent,
        "expansion_residual_at_2000": _s(rep.residual, 8),
        "pass": bool(growth_ok and resid_ok),
    }


def criterion_5_convergence_limit():
    knot = TorusKnot(2, 3)
    target = 1 / alexander(knot, exp(mpf(1)), P_EXPAND)
    e100 = fabs(jones_sum(knot, 100, 1, P_EXPAND) - target)
    e800 = fabs(jones_sum(knot, 800, 1, P_EXPAND) - target)
    factor = e100 / e800
    xi_small = mpc("-0.05", "0.1")
    target_small = 1 / alexander(knot, exp(xi_small), P_EXPAND)
    errs_small = [
        fabs(jones_sum(knot, n, xi_small, P_EXPAND) - target_small) for n in (100, 200, 400, 800)
    ]
    small_ok = all(b < a for a, b in zip(errs_small, errs_small[1:]))
    return {
        "name": "convergence to inverse Alexander",
        "improvement_factor_100_to_800": _s(factor, 8),
        "small_xi_errors": [_s(e, 6) for e in errs_small],
        "pass": bool(factor >= 4 and small_ok),
    }


def criterion_6_torsion_identity():
    check = identities.meridian_torsion(identities.knots_up_to(35), P_EXPAND, perturb=0)
    return {
        "name": "meridian torsion magnitude identity",
        "samples": check.samples,
        "max_deviation": _s(check.deviation),
        "tolerance": "1e-13",
        "pass": bool(check.deviation < mpf("1e-13")),
    }


def criterion_7_cs_equality():
    # a transported element that is not G-equivalent counts deviation 1
    check = identities.cs_closed_vs_component(
        identities.knots_up_to(35), P_EXPAND, random.Random(424242), perturb=0
    )
    return {
        "name": "Chern-Simons closed form vs component form",
        "samples": check.samples,
        "max_mod_pi2_deviation": _s(check.deviation),
        "tolerance": "1e-10",
        "pass": bool(check.deviation < mpf("1e-10")),
    }


def criterion_8_component_combinatorics():
    knots = identities.knots_up_to(105)
    combinatorics = identities.component_combinatorics(knots, perturb=0)
    sin2 = identities.sin2_label_invariance(knots, P_EXPAND, perturb=0)
    return {
        "name": "character-variety combinatorics",
        "knots": combinatorics.samples,
        "max_sin2_deviation": _s(sin2.deviation),
        "pass": bool(combinatorics.deviation == 0 and sin2.deviation < mpf("1e-12")),
    }


def criterion_9_figure_eight():
    rng = random.Random(88)
    worst_curve = mpf(0)
    for _ in range(20):
        m = mpf("1.3") * exp(mpc(0, rng.uniform(0.1, 6.2)))
        param = meridian_param(m, P_EXPAND)
        l = longitude_eigenvalue(param, 1, P_EXPAND)
        worst_curve = max(worst_curve, fabs(a_polynomial_residual(m, l, P_EXPAND)))

    # both torsion displays, branch-resolved
    worst_torsion = mpf(0)
    from mpmath import sqrt

    for _ in range(20):
        m = mpf("1.2") * exp(mpc(0, rng.uniform(0.1, 6.2)))
        param = meridian_param(m, P_EXPAND)
        l = longitude_eigenvalue(param, 1, P_EXPAND)
        via_trace = 1 / sqrt(17 + 4 * (l + 1 / l))
        direct = torsion_lambda_fig8(param, P_EXPAND)
        dev = min(fabs(via_trace - direct), fabs(via_trace + direct))
        worst_torsion = max(worst_torsion, dev)

    param = meridian_param(mpf("1.5"), P_EXPAND)
    with P_EXPAND.workdps():
        h = mpf("1e-8")
        lp = longitude_eigenvalue(meridian_param(mpf("1.5") + h, P_EXPAND), 1, P_EXPAND)
        lm = longitude_eigenvalue(meridian_param(mpf("1.5") - h, P_EXPAND), 1, P_EXPAND)
        fd = (lp - lm) / (2 * h)
        deriv_dev = fabs(dell_dm(param, P_EXPAND) - fd)

    table = speculation_residual(2 * pi * mpc(0, 1) + mpf("0.1"), [50, 100, 200], P_EXPAND)
    return {
        "name": "figure-eight closed forms",
        "max_curve_residual": _s(worst_curve),
        "max_torsion_display_deviation": _s(worst_torsion),
        "derivative_deviation": _s(deriv_dev),
        "speculation_rows": [
            {"N": r.N, "residual": _s(r.residual, 8)} for r in table.rows
        ],
        "speculation_growth_uncertainty": "%.3e" % table.growth_uncertainty,
        "note": "speculation table is descriptive only, not pass/fail",
        "pass": bool(
            worst_curve < mpf("1e-12")
            and worst_torsion < mpf("1e-12")
            and deriv_dev < mpf("1e-8")
        ),
    }


def build_report():
    timings = {}
    report = {}
    builders = [
        ("1", criterion_1_oracle_equivalence),
        ("2", criterion_2_residual_slopes),
        ("3", criterion_3_pole_case),
        ("4", criterion_4_root_of_unity),
        ("5", criterion_5_convergence_limit),
        ("6", criterion_6_torsion_identity),
        ("7", criterion_7_cs_equality),
        ("8", criterion_8_component_combinatorics),
        ("9", criterion_9_figure_eight),
    ]
    for key, fn in builders:
        start = time.monotonic()
        report[key] = fn()
        timings[key] = time.monotonic() - start
    return report, timings


@pytest.fixture(scope="module")
def acceptance():
    return build_report()


def _announce(key, entry, timings):
    status = "PASS" if entry["pass"] else "FAIL"
    print(f"ACCEPTANCE {key} [{entry['name']}]: {status} ({timings[key]:.1f}s)")


def test_criterion_1_oracle_equivalence(acceptance):
    report, timings = acceptance
    _announce("1", report["1"], timings)
    assert report["1"]["pass"], report["1"]
    assert timings["1"] < 120, f"criterion 1 runtime {timings['1']:.1f}s exceeds 2 minutes"


def test_criterion_2_residual_slopes(acceptance):
    report, timings = acceptance
    _announce("2", report["2"], timings)
    assert report["2"]["pass"], report["2"]


def test_criterion_3_pole_case(acceptance):
    report, timings = acceptance
    _announce("3", report["3"], timings)
    assert report["3"]["pass"], report["3"]


def test_criterion_4_root_of_unity(acceptance):
    report, timings = acceptance
    _announce("4", report["4"], timings)
    assert report["4"]["pass"], report["4"]


def test_criterion_5_convergence_limit(acceptance):
    report, timings = acceptance
    _announce("5", report["5"], timings)
    assert report["5"]["pass"], report["5"]


def test_criterion_6_torsion_identity(acceptance):
    report, timings = acceptance
    _announce("6", report["6"], timings)
    assert report["6"]["pass"], report["6"]


def test_criterion_7_cs_equality(acceptance):
    report, timings = acceptance
    _announce("7", report["7"], timings)
    assert report["7"]["pass"], report["7"]


def test_criterion_8_component_combinatorics(acceptance):
    report, timings = acceptance
    _announce("8", report["8"], timings)
    assert report["8"]["pass"], report["8"]


def test_criterion_9_figure_eight(acceptance):
    report, timings = acceptance
    _announce("9", report["9"], timings)
    assert report["9"]["pass"], report["9"]


def test_criterion_10_determinism(acceptance):
    report, _ = acceptance
    first = json.dumps(report, sort_keys=True).encode()
    rebuilt, _ = build_report()
    second = json.dumps(rebuilt, sort_keys=True).encode()
    status = "PASS" if first == second else "FAIL"
    print(f"ACCEPTANCE 10 [byte-identical reports on rerun]: {status}")
    assert first == second
