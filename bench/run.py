"""torusasym benchmark: one seeded workload per run, single thread, closed loop.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller runs a cycle of ops (workloads.py) back to back, each op starting
when the previous one returns, and runs further cycles, each with fresh
inputs of the same cost structure, until --seconds have passed and at least
MIN_CYCLES have run.  Each op's wall time is rescaled to a reference CPU
speed by a fixed mpmath calibration loop timed just before, during and just
after it (see calibrate()).  op_p50_s is the median of every rescaled op time of
the run (Harrell-Davis estimate); ops_per_s uses each slot's median over the
cycles.  Outputs are hashed inside the loop and checked against
independent references after it (ops.py).  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it runs cycle 0 untraced and with
span wrappers installed (spans.py), twice each, and reports the per-layer
metrics.  The last line of stdout is the JSON result.  Run records, span
dumps and output digests go to .bench_build/torusasym-bench/ (see
README.md).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "torusasym-bench"
SETUP_SAMPLES = 5  # this process plus four fresh ones
P90_MIN_OPS = 100  # the 90th percentile needs ten samples above it
MIN_CYCLES = 3  # samples per slot for its median time
TRACE_PASSES = 2  # untraced and traced runs of cycle 0 in a traced run
CPUS = frozenset(os.sched_getaffinity(0))
# the calibration loop's time on the reference CPU, to which op times are
# rescaled; about its fastest time on a 2.1 GHz Intel Xeon vCPU
CALIBRATION_REF_S = 0.005
CALIBRATION_ITERATIONS = 1500
SAMPLE_INTERVAL_S = 0.2  # calibration samples during a long op


class SetupError(Exception):
    pass


def load_package():
    """Import torusasym from this checkout's src/, and nowhere else."""
    os.environ.pop("TORUSASYM_PRECISION", None)
    src = ROOT / "src"
    if not (src / "torusasym" / "__init__.py").is_file():
        raise SetupError("no torusasym sources under %s" % src)
    sys.path.insert(0, str(src))
    import torusasym
    import torusasym.cli

    if src not in Path(torusasym.__file__).resolve().parents:
        raise SetupError("torusasym imported from %s, not %s" % (torusasym.__file__, src))
    return torusasym


def setup(workload: str, seed: int):
    """Import, generate the cycle, warm every op kind up.

    Returns (package, ops, csv path, set-up seconds rescaled to the reference CPU).
    """
    pin_fastest_cpu()
    package = load_package()
    from ops import execute
    from workloads import generate, warmup

    OUT.mkdir(parents=True, exist_ok=True)
    csv_path = OUT / ("region-%d.csv" % os.getpid())
    ops = generate(workload, seed)
    for op in warmup(workload):
        execute(op, package, csv_path)
    seconds = time.perf_counter() - _T0
    return package, ops, csv_path, rescale(seconds, min(calibrate() for _ in range(3)))


def calibrate() -> float:
    """Seconds one run of a fixed 30-digit mpmath loop takes on this CPU now.

    The loop uses mpmath alone, never torusasym, so no change to the package
    can move it; it does the kind of work the package does (pure-Python
    multiprecision arithmetic), so host load slows it as it slows an op.
    """
    from mpmath import mp, mpf

    t = time.perf_counter()
    with mp.workdps(30):
        x, y = mpf(1) / 3, mpf(2)
        for _ in range(CALIBRATION_ITERATIONS):
            y = y * x + x
    return time.perf_counter() - t


def rescale(seconds: float, calibration_s: float) -> float:
    """A time measured while the calibration loop took calibration_s, on the reference CPU."""
    return seconds * CALIBRATION_REF_S / calibration_s


def pin_fastest_cpu() -> float:
    """Pin this process to whichever allowed CPU runs the calibration loop
    fastest right now; returns that CPU's calibration time.

    The host shares each virtual CPU with other tenants, and their load
    slows one CPU or the other by up to 2x for seconds at a time.
    """
    cpus = sorted(CPUS)
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = calibrate()
    best = min(cpus, key=speed.get)
    os.sched_setaffinity(0, {best})
    return speed[best]


class SpeedSampler:
    """Times one op and, when enabled, runs the calibration loop every
    SAMPLE_INTERVAL_S of it from a SIGALRM handler, so that a long op's
    rescaled time follows the host's speed through the op.  `seconds` is the
    op's wall time without the handler's own time (`paused`)."""

    def __init__(self, enabled: bool):
        self.enabled, self.samples, self.paused, self.seconds = enabled, [], 0.0, 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - t

    def __enter__(self):
        if self.enabled:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.seconds = time.perf_counter() - self._start - self.paused


def run_cycle(ops, package, csv_path, recorder=None, sample=True):
    """Each op once, in order: (wall times, rescaled times, outcomes).

    The rescaled time divides out the host's speed, read from the
    calibration loop on the op's CPU just before and just after the op and,
    with `sample`, every SAMPLE_INTERVAL_S during it (the sampling time is
    taken out of the op's wall time).
    """
    from ops import execute

    times, scaled, outcomes = [], [], []
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        before = min(pin_fastest_cpu(), calibrate())
        with SpeedSampler(sample) as sampler:
            outcomes.append(execute(op, package, csv_path, recorder))
        times.append(sampler.seconds)
        speeds = [before, *sampler.samples, min(calibrate(), calibrate())]
        scaled.append(rescale(times[-1], len(speeds) / sum(1 / c for c in speeds)))
    return times, scaled, outcomes


def timed_cycles(workload, seed, first_ops, package, csv_path, seconds):
    """Cycles 0, 1, ... until `seconds` have passed and MIN_CYCLES have run.

    Returns ([ops], [wall times], [rescaled times], [outcomes]), one entry per cycle.
    """
    from workloads import generate

    cycles, times, scaled, outcomes = [], [], [], []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        ops = first_ops if not cycles else generate(workload, seed, len(cycles))
        cycle_times, cycle_scaled, cycle_outcomes = run_cycle(ops, package, csv_path)
        cycles.append(ops)
        times.append(cycle_times)
        scaled.append(cycle_scaled)
        outcomes.append(cycle_outcomes)
    return cycles, times, scaled, outcomes


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stored_digests(workload: str, seed: int, digests: list) -> list:
    """Compare per-cycle output digests with those an earlier run of the same
    code and seed stored in this checkout, then store the union."""
    path = OUT / "digests" / ("%s-%d-%s.json" % (workload, seed, code_hash()[:16]))
    earlier = json.loads(path.read_text()) if path.exists() else []
    mismatches = ["cycle %d op %d differs from an earlier run with this seed" % (c, i)
                  for c, (old, new) in enumerate(zip(earlier, digests))
                  for i, (a, b) in enumerate(zip(old, new)) if a != b]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests if len(digests) > len(earlier) else earlier))
    return mismatches


def setup_probes(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes doing the same set-up as this one."""
    os.sched_setaffinity(0, CPUS)  # children inherit the affinity
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(workload: str, seed: int, package) -> dict:
    import mpmath
    import numpy

    from workloads import DIGITS, REL_TOL

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    cwd=ROOT, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "torusasym": package.__version__,
        "nproc": len(CPUS),
        "cpu": cpu,
        "commit": commit,
        "code_sha256": code_hash(),
        "workload": workload,
        "seed": seed,
        "working_digits": DIGITS,
        "rel_tol": REL_TOL[workload] if REL_TOL[workload] is not None else "cli default",
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("us_per_eval", "us_per_term")):
        return "us"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def p90_if_enough(times):
    """90th percentile of the op times, or None with fewer than P90_MIN_OPS samples."""
    if len(times) < P90_MIN_OPS:
        return None
    return statistics.quantiles(times, n=10)[-1]


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a mean of every order statistic,
    weighted by the Beta((n+1)/2, (n+1)/2) distribution.

    Op times form clusters by slot cost, and the sample median jumps between
    clusters from run to run when a gap falls at the middle; this estimate
    moves smoothly instead.
    """
    from mpmath import mp

    ordered = sorted(values)
    n = len(ordered)
    with mp.workdps(15):
        cdf = [float(mp.betainc((n + 1) / 2, (n + 1) / 2, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def slot_times(scaled) -> list[float]:
    """Each slot's median rescaled time over the cycles (one list per cycle in)."""
    return [statistics.median(column) for column in zip(*scaled)]


def run_untraced(args, package, ops, csv_path, setup_main):
    from ops import check, digest

    cycles, times, scaled, outcomes = timed_cycles(args.workload, args.seed, ops, package, csv_path, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = [[check(op, o) for op, o in zip(c_ops, c_out)] for c_ops, c_out in zip(cycles, outcomes)]
    digests = [[digest(o) for o in c_out] for c_out in outcomes]
    mismatches = stored_digests(args.workload, args.seed, digests)
    setup_samples = [setup_main] + setup_probes(args.workload, args.seed)

    attempted = sum(len(c) for c in cycles)
    passed = sum(ok for c in checks for ok, _ in c)
    slot = slot_times(scaled)
    all_times = [t for c in times for t in c]
    all_scaled = [t for c in scaled for t in c]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / attempted * len(slot) / sum(slot),
        "op_p50_s": hd_median(all_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "fail_ratio": (attempted - passed) / attempted,
        "cycles": len(cycles),
        "op_samples": len(all_times),
        "ops_per_s_wall": passed / sum(all_times),
        "op_p50_s_wall": statistics.median(all_times),
        "setup_samples_s": setup_samples,
        "wall_times_s": times,
    }
    if p90_if_enough(all_scaled) is not None:
        extra["op_p90_s"] = p90_if_enough(all_scaled)
    return metrics, extra, cycles, checks, digests, mismatches, attempted, attempted - passed, scaled


def run_traced(args, package, ops, csv_path):
    """Cycle 0 untraced and traced, TRACE_PASSES times each, alternating."""
    from ops import check, digest
    from spans import FIELDS, SpanRecorder, install, layer_metrics

    plain_times, traced_times, recorders, passes = [], [], [], []
    for _ in range(TRACE_PASSES):
        _, times, plain = run_cycle(ops, package, csv_path, sample=False)
        plain_times.append(times)
        recorder = SpanRecorder((package.TorusAsymError, ValueError))
        uninstall = install(recorder, package)
        try:
            _, times, traced = run_cycle(ops, package, csv_path, recorder, sample=False)
        finally:
            uninstall()
        traced_times.append(times)
        recorders.append(recorder)
        passes += [("untraced", plain), ("traced", traced)]
    first = passes[0][1]
    digests = [digest(o) for o in first]
    mismatches = ["op %d differs between the first untraced pass and pass %d (%s)" % (i, k, kind)
                  for k, (kind, outcomes) in enumerate(passes[1:], 1)
                  for i, o in enumerate(outcomes) if digest(o) != digests[i]]
    mismatches += stored_digests(args.workload, args.seed, [digests])
    checks = [check(op, outcome) for op, outcome in zip(ops, first)]
    # spans from the faster traced pass (rescaled times); counts are the same in both
    fastest = min(range(TRACE_PASSES), key=lambda k: sum(traced_times[k]))
    spans = recorders[fastest].spans
    metrics = layer_metrics(spans)
    metrics["trace.overhead_ratio"] = (sum(min(c) for c in zip(*traced_times))
                                       / sum(min(c) for c in zip(*plain_times)))
    spans_path = OUT / "spans" / ("%s-seed%d.json" % (args.workload, args.seed))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"fields": FIELDS, "spans": spans}))
    failed = sum(not ok for ok, _ in checks)
    extra = {"spans": len(spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_times_s": plain_times}
    return metrics, extra, [ops], [checks], [digests], mismatches, len(ops), failed, [traced_times[fastest]]


def run_one(args) -> int:
    try:
        package, ops, csv_path, setup_main = setup(args.workload, args.seed)
    except SetupError as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2
    if args.setup_only:
        csv_path.unlink(missing_ok=True)
        print(json.dumps({"setup_s": setup_main}))
        return 0
    result = run_traced(args, package, ops, csv_path) if args.trace else run_untraced(
        args, package, ops, csv_path, setup_main)
    metrics, extra, cycles, checks, digests, mismatches, attempted, failed, times = result
    csv_path.unlink(missing_ok=True)
    env = environment(args.workload, args.seed, package)

    print("torusasym benchmark: workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for key in ("python", "mpmath", "mpmath_backend", "numpy", "nproc", "cpu", "commit",
                "working_digits", "rel_tol"):
        print("  env %-16s %s" % (key, env[key]))
    for c, (c_ops, c_checks) in enumerate(zip(cycles, checks)):
        for i, (op, (ok, detail)) in enumerate(zip(c_ops, c_checks)):
            if not ok:
                what = " ".join(op.argvs[0]) if op.argvs else op.params
                print("  FAIL cycle %d op %d %s %s: %s" % (c, i, op.kind, what, detail))
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, unit_of(name)))
    if not args.trace:
        print("  %-36s %.6g ratio (%d of %d ops failed)" % ("fail_ratio", extra["fail_ratio"], failed, attempted))
        if "op_p90_s" in extra:
            print("  %-36s %.6g s" % ("op_p90_s", extra["op_p90_s"]))
        else:
            print("  %-36s not reported: %d op samples, %d needed" % ("op_p90_s", extra["op_samples"], P90_MIN_OPS))
        print("  %-36s %d cycles of %d ops; wall-clock rate %.6g 1/s, median %.6g s" % (
            "samples", extra["cycles"], len(cycles[0]), extra["ops_per_s_wall"], extra["op_p50_s_wall"]))
    for line in mismatches:
        print("  NONDETERMINISTIC %s" % line)

    record = {
        "environment": env,
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "cycles": [
            [{"kind": op.kind, "argvs": op.argvs, "params": {k: str(v) for k, v in op.params.items()},
              "passed": ok, "check": detail, "digest": d, "rescaled_s": t}
             for op, (ok, detail), d, t in zip(c_ops, c_checks, c_digests, c_times)]
            for c_ops, c_checks, c_digests, c_times in zip(cycles, checks, digests, times)
        ],
        "nondeterministic": mismatches,
    }
    results = OUT / "results" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))

    correct = not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({"%s.%s" % (workload, k): v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "large_n", "sweep", "catalog", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
