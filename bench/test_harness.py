"""Tests of the benchmark harness's own logic.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import math
import statistics
import time

import pytest
from mpmath import exp, mp, mpc, sinh

import reference
import run
import spans
import workloads
from spans import END, ERROR, NAME, PARENT, START, WORK


def test_generation_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        assert first == workloads.generate(name, 7)
        assert first != workloads.generate(name, 8)
        assert len(first) == len(workloads.generate(name, 8))


def test_cycles_draw_fresh_inputs_into_the_same_slots():
    for name in workloads.WORKLOADS:
        first, second = workloads.generate(name, 3, 0), workloads.generate(name, 3, 1)
        assert [op.kind for op in first] == [op.kind for op in second]
        assert first != second
    strata = workloads.ORACLE_N_STRATA
    for a, b in zip(workloads.generate("oracle", 3, 0), workloads.generate("oracle", 3, 5)):
        assert (a.params["a"], a.params["b"]) == (b.params["a"], b.params["b"])
        assert [lo <= a.params["N"] <= hi for lo, hi in strata] == [lo <= b.params["N"] <= hi for lo, hi in strata]


def test_oracle_inputs_follow_the_criterion_1_shape():
    for seed in range(20):
        ops = workloads.generate("oracle", seed)
        assert sorted(op.params["N"] for op in ops)[0] >= 2
        assert max(op.params["N"] for op in ops) <= 30
        assert all(op.params["a"] * op.params["b"] <= 15 for op in ops)
        signs = {workloads.parse_xi_text(op.params["xi"]).real > 0 for op in ops}
        assert signs == {True, False}
        for op in ops:
            assert [argv[argv.index("--method") + 1] for argv in op.argvs] == ["integral", "sum"]


def test_large_n_spans_three_decades_with_nonnegative_re_xi():
    ns, xis = [], []
    for op in workloads.generate("large_n", 3):
        ns.append(op.params["N"])
        xi = op.params["xi"]
        xis.append(xi if isinstance(xi, complex) else workloads.parse_xi_text(xi))
    assert min(ns) < 1100 and max(ns) > 90000
    assert all(xi.real >= 0 for xi in xis)
    assert any(abs(xi - 2j * math.pi) < 1e-3 for xi in xis)
    assert any(xi.real == 0 and abs(xi.imag - 2 * math.pi) > 0.1 for xi in xis)


def test_sweep_keeps_every_case_and_the_defect_inputs():
    ops = workloads.generate("sweep", 5)
    cases = {(op.params["case"], op.params["J"]) for op in ops}
    for case in ("not_pole_pos_re", "not_pole_nonpos_re", "pole_case", "kt_2pii"):
        assert {(case, j) for j in range(4)} <= cases
    xis = {op.params["xi"] for op in ops}
    assert set(workloads.SWEEP_DEFECT_XI) <= xis


def test_parse_xi_text_reads_signed_parts():
    assert workloads.parse_xi_text("-0.3+0.5i") == complex(-0.3, 0.5)
    assert workloads.parse_xi_text("1.2500-0.0000i") == complex(1.25, 0.0)
    assert workloads.parse_xi_text("0+6.283185i") == complex(0.0, 6.283185)


def _span(name, start, end, parent=-1, error=False, work=0):
    return [name, start, end, parent, 0, error, work]


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("jones.integral", 1.0, 6.0, parent=0),
        _span("contour.line", 2.0, 5.0, parent=1),
        _span("torus.kernel", 2.5, 3.0, parent=2),
        _span("torus.kernel", 3.5, 4.5, parent=2),
        _span("jones.sum", 7.0, 9.0, parent=0),
        # overlaps its sibling: only the union counts against the parent
        _span("jones.sum", 8.0, 9.5, parent=0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(0.5)


def test_layer_metrics_count_boundary_crossings_only():
    tree = [
        _span("cli.main", 0.0, 10.0, work=100),
        _span("charvar.enumerate_components", 1.0, 3.0, parent=0),
        _span("charvar.valid_k_values", 1.5, 2.0, parent=1),
        _span("cstorsion.equivalent", 4.0, 5.0, parent=0, error=True),
        _span("charvar.alpha_beta_from_k", 4.2, 4.4, parent=3, error=True),
        _span("jones.sum", 6.0, 8.0, parent=0, work=400),
    ]
    m = spans.layer_metrics(tree)
    assert m["charvar.calls"] == 2
    assert m["charvar.busy_s"] == pytest.approx(2.2)
    assert m["cstorsion.calls"] == 1
    assert m["cstorsion.errors"] == 1 and m["charvar.errors"] == 1
    assert m["jones.sum.terms"] == 400
    assert m["jones.sum.us_per_term"] == pytest.approx(2.0 / 400 * 1e6)
    assert m["cli.bytes_out"] == 100
    assert m["cli.self_s"] == pytest.approx(10.0 - 2.0 - 1.0 - 2.0)
    assert m["torus.kernel.us_per_eval"] == 0.0


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_if_enough([0.1] * 99) is None
    times = [float(i) for i in range(1, 101)]
    assert run.p90_if_enough(times) == statistics.quantiles(times, n=10)[-1]
    assert sum(t > run.p90_if_enough(times) for t in times) >= 10


def test_rescaling_divides_out_the_calibration_speed():
    assert run.rescale(0.3, run.CALIBRATION_REF_S) == pytest.approx(0.3)
    assert run.rescale(0.3, 2 * run.CALIBRATION_REF_S) == pytest.approx(0.15)
    assert run.slot_times([[1.0, 4.0], [3.0, 2.0], [2.0, 9.0]]) == [2.0, 4.0]


def test_hd_median_weights_every_order_statistic_symmetrically():
    assert run.hd_median([0.4]) == pytest.approx(0.4)
    assert run.hd_median([0.3, 0.1, 0.2]) == pytest.approx(0.2)
    assert run.hd_median([1.0, 2.0, 3.0, 10.0]) == pytest.approx(
        10.0 - run.hd_median([0.0, 7.0, 8.0, 9.0]))
    gap = [1.0] * 10 + [2.0] * 10
    assert run.hd_median(gap) == pytest.approx(1.5)
    assert 1.5 < run.hd_median(gap + [2.0]) < 1.7


def test_speed_sampler_samples_during_an_op_and_times_itself():
    start = time.perf_counter()
    with run.SpeedSampler(True) as sampler:
        end = time.perf_counter() + 3 * run.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    wall = time.perf_counter() - start
    assert len(sampler.samples) >= 2 and sampler.paused > 0
    assert wall - 0.01 < sampler.seconds + sampler.paused <= wall
    start = time.perf_counter()
    with run.SpeedSampler(False) as idle:
        time.sleep(2 * run.SAMPLE_INTERVAL_S)
    wall = time.perf_counter() - start
    assert idle.samples == [] and idle.paused == 0.0
    assert wall - 0.01 < idle.seconds <= wall


def _direct_torus(a, b, n, xi):
    ab = a * b
    total = mpc(0)
    for t in range(n):
        r = 2 * t - (n - 1)
        common = ab * r * r + ab * (1 - n * n)
        total += exp(xi * (common + 2 * (a + b) * r + 2) / (4 * n))
        total -= exp(xi * (common + 2 * (a - b) * r - 2) / (4 * n))
    return total / (2 * sinh(xi / 2))


@pytest.mark.parametrize("a,b,n,xi", [
    (2, 3, 2, 1 + 0j),
    (2, 3, 150, 1 + 1j),
    (3, 5, 200, 2.5j),
    (2, 3, 300, -0.3 + 0.5j),
    (4, 3, 400, 1.5 + 0.2j),
])
def test_torus_reference_matches_the_direct_sum(a, b, n, xi):
    with mp.workdps(400):
        want = _direct_torus(a, b, n, mpc(xi))
    got = reference.torus_jones(a, b, n, xi)
    with mp.workdps(40):
        assert abs(got - want) <= 1e-20 * abs(want)


def test_torus_reference_at_2pi_i_is_the_derivative_limit():
    # J_2(T(2,3); q) = q^-1 + q^-3 - q^-4 at q = e^(2 pi i/2) = -1
    got = reference.torus_jones(2, 3, 2, complex(0, 2 * math.pi))
    near = reference.torus_jones(2, 3, 40, complex(1e-7, 2 * math.pi))
    at = reference.torus_jones(2, 3, 40, complex(0, 2 * math.pi))
    with mp.workdps(40):
        assert abs(got + 3) < 1e-20
        assert abs(near - at) < 1e-4 * abs(at)


def test_fig8_reference_matches_the_sinh_product():
    n, xi = 60, mpc(0.8, 0.3)
    with mp.workdps(80):
        total, running = mpc(1), mpc(1)
        for l in range(1, n):
            running *= 4 * sinh(xi * (n - l) / (2 * n)) * sinh(xi * (n + l) / (2 * n))
            total += running
    got = reference.fig8_jones(n, complex(0.8, 0.3))
    with mp.workdps(40):
        assert abs(got - total) <= 1e-20 * abs(total)


def test_region_rule():
    threshold = 2 * math.pi / 6
    assert reference.region_class(2, 3, 0.1, 5.0) == "converges"
    assert reference.region_class(2, 3, -0.1, 0.5 * threshold) == "converges"
    assert reference.region_class(2, 3, -0.1, 2 * threshold) == "diverges"
    assert reference.region_class(2, 3, 0.0, 2 * math.pi) == "excluded_2pii_multiple"


def test_wrappers_trace_every_import_site_and_change_no_result():
    package = run.load_package()
    knot = package.TorusKnot(2, 3)
    plain = package.asymptotics.expand(package.ExpansionSpec(knot, 1 + 0.5j, 40, 1))
    original = package.cli.jones_sum
    recorder = spans.SpanRecorder((package.TorusAsymError, ValueError))
    uninstall = spans.install(recorder, package)
    try:
        assert package.cli.jones_sum is not original
        assert package.asymptotics.jones_sum is package.jones.jones_sum is package.jones_sum
        traced = package.asymptotics.expand(package.ExpansionSpec(knot, 1 + 0.5j, 40, 1))
        with pytest.raises(ValueError):
            package.jones_sum(knot, 0, 1)
    finally:
        uninstall()
    assert package.cli.jones_sum is original
    assert traced == plain
    names = [s[NAME] for s in recorder.spans]
    assert names[0] == "asymptotics.expand"
    assert "torus.ladder" in names and "contour.circle" in names and "torus.kernel" in names
    sums = [s for s in recorder.spans if s[NAME] == "jones.sum"]
    assert [s[WORK] for s in sums] == [40, 0]
    assert sums[0][PARENT] == 0 and sums[1][ERROR]
    assert all(s[END] >= s[START] for s in recorder.spans)
    m = spans.layer_metrics(recorder.spans)
    assert m["jones.errors"] == 1
    assert m["contour.circle.evals"] == m["torus.kernel.evals"] > 0


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(spans.layer_metrics([])) | {"trace.overhead_ratio"} == set(per_layer)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
