"""In-memory span recorder, the wrappers that feed it, and per-layer metrics.

A span is [name, start, end, parent, op, error, work]: parent is the index
of the enclosing span (-1 at top level), op the id of the benchmark op that
caused it, error whether a TorusAsymError or ValueError left the call, and
work a count the layer reports (N for a sum, bytes for a CLI call).  The
layer of a span is the first dotted part of its name.  A span crosses a
layer boundary when its parent belongs to another layer; calls, busy time
and errors count crossing spans only, so a layer calling itself is counted
once.

install() replaces a function on every torusasym module attribute that
holds it, so callers that imported it by name are traced as well as callers
that go through its module.  Nothing under src/ is changed, and uninstall
restores the originals.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, ERROR, WORK = range(7)
FIELDS = ("name", "start", "end", "parent", "op", "error", "work")

LAYERS = ("contour", "torus", "jones", "asymptotics", "fig8", "charvar", "cstorsion", "cli")


class SpanRecorder:
    def __init__(self, errors=(ValueError,)):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._errors = errors

    def _open(self, name: str, work: int = 0) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op, False, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: int = 0):
        """Span around a block; the caller may set record[WORK] / record[ERROR]."""
        record = self._open(name, work)
        try:
            yield record
        except self._errors:
            record[ERROR] = True
            raise
        finally:
            self._close(record)

    def wrap(self, name: str, fn, work=None, handle: str | None = None):
        """fn recorded as span `name`.

        work(args, kwargs) gives the span's work count; handle names a span
        to record around each call of the function passed as fn's first
        argument (the integrand handed to a quadrature routine).
        """
        errors = self._errors

        def traced(*args, **kwargs):
            if handle is not None:
                args = (self.wrap(handle, args[0]),) + args[1:]
            record = self._open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            except errors:
                record[ERROR] = True
                raise
            finally:
                self._close(record)

        traced.__wrapped__ = fn
        return traced


def _n_arg(position: int):
    return lambda args, kwargs: kwargs["N"] if "N" in kwargs else args[position]


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")]


def install(recorder: SpanRecorder, package):
    """Trace the layer boundaries of `package`; returns a function that undoes it."""
    contour, torus, jones = package.contour, package.torus, package.jones
    asym, fig8, charvar, cstorsion = package.asymptotics, package.fig8, package.charvar, package.cstorsion
    # (module, function, span name, work count, integrand span name)
    targets = [
        (contour, "integrate_line", "contour.line", None, "torus.kernel"),
        (contour, "laurent_coefficients", "contour.circle", None, "torus.kernel"),
        (torus, "tau_even_derivatives", "torus.ladder", None, None),
        (torus, "ztau_even_derivatives", "torus.ladder", None, None),
        (jones, "jones_sum", "jones.sum", _n_arg(1), None),
        (jones, "jones_integral", "jones.integral", None, None),
        (fig8, "jones_fig8", "fig8.jones", _n_arg(0), None),
        (asym, "expand", "asymptotics.expand", None, None),
        (asym, "classify_region", "asymptotics.classify", None, None),
    ]
    for module, layer in ((charvar, "charvar"), (cstorsion, "cstorsion")):
        targets += [(module, name, "%s.%s" % (layer, name), None, None) for name in _public_functions(module)]

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
    saved = []
    for home, attr, name, work, handle in targets:
        original = getattr(home, attr)
        traced = recorder.wrap(name, original, work, handle)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replacement = traced
                    # the pole-case expansion reads its derivative ladder
                    # straight from a circle quadrature
                    if module is asym and attr == "laurent_coefficients":
                        replacement = recorder.wrap("torus.ladder", traced)
                    saved.append((module, key, value))
                    setattr(module, key, replacement)

    def uninstall():
        for module, key, value in reversed(saved):
            setattr(module, key, value)

    return uninstall


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][START], spans[k][END]) for k in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced cycle (see README.md)."""
    own = self_times(spans)
    duration = [s[END] - s[START] for s in spans]
    parent_name = [spans[s[PARENT]][NAME] if s[PARENT] >= 0 else "" for s in spans]
    crossing = [not p or _layer(p) != _layer(s[NAME]) for s, p in zip(spans, parent_name)]

    def pick(name=None, layer=None, parent=None, cross=True):
        return [i for i, s in enumerate(spans)
                if (name is None or s[NAME] == name) and (layer is None or _layer(s[NAME]) == layer)
                and (parent is None or parent_name[i] == parent) and (crossing[i] or not cross)]

    def total(values, ids):
        return sum(values[i] for i in ids)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: dict[str, float] = {}
    for kind in ("line", "circle"):
        name = "contour." + kind
        calls, evals = pick(name), pick("torus.kernel", parent=name)
        m[name + ".calls"] = len(calls)
        m[name + ".evals"] = len(evals)
        m[name + ".self_s"] = total(own, pick(name, cross=False))
        m[name + ".f_s"] = total(duration, evals)
    kernel = pick("torus.kernel")
    m["torus.kernel.evals"] = len(kernel)
    m["torus.kernel.us_per_eval"] = ratio(total(duration, kernel), len(kernel), 1e6)
    ladder = pick("torus.ladder")
    m["torus.ladder.calls"] = len(ladder)
    m["torus.ladder.busy_s"] = total(duration, ladder)

    sums = pick("jones.sum")
    terms = sum(spans[i][WORK] for i in sums)
    m["jones.sum.calls"] = len(sums)
    m["jones.sum.terms"] = terms
    m["jones.sum.busy_s"] = total(duration, sums)
    m["jones.sum.us_per_term"] = ratio(m["jones.sum.busy_s"], terms, 1e6)
    integrals = pick("jones.integral")
    m["jones.integral.calls"] = len(integrals)
    m["jones.integral.self_s"] = total(own, integrals)

    fig8 = pick("fig8.jones")
    fig8_terms = sum(spans[i][WORK] for i in fig8)
    m["fig8.jones.calls"] = len(fig8)
    m["fig8.jones.terms"] = fig8_terms
    m["fig8.jones.us_per_term"] = ratio(total(duration, fig8), fig8_terms, 1e6)

    expands = pick("asymptotics.expand")
    m["asymptotics.expand.calls"] = len(expands)
    m["asymptotics.expand.self_s"] = total(own, expands)
    m["asymptotics.expand.oracle_share"] = ratio(
        total(duration, pick("jones.sum", parent="asymptotics.expand")), total(duration, expands))
    classify = pick("asymptotics.classify")
    m["asymptotics.classify.calls"] = len(classify)
    m["asymptotics.classify.busy_s"] = total(duration, classify)

    for layer in ("charvar", "cstorsion"):
        ids = pick(layer=layer)
        m[layer + ".calls"] = len(ids)
        m[layer + ".busy_s"] = total(duration, ids)

    cli = pick("cli.main")
    m["cli.self_s"] = total(own, cli)
    m["cli.bytes_out"] = sum(spans[i][WORK] for i in cli)
    for layer in LAYERS:
        m[layer + ".errors"] = sum(1 for i in pick(layer=layer) if spans[i][ERROR])
    return m
