"""Line and circle quadrature for analytic function handles.

Both rules are the trapezoid rule, refined by halving the step: a halving
evaluates only the new midpoints and keeps every earlier sample.  On a
truncated line the integrand is analytic in a strip and decays at the ends,
and on a circle it is periodic, so in both cases the rule converges
geometrically (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014).  Refinement stops when two
consecutive levels agree to the requested relative tolerance.

All routines are deterministic: samples are generated in a fixed order and
sums are accumulated in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from mpmath import mp, mpc, mpf, exp, pi

from .errors import NonDecayingIntegrand, ToleranceNotReached
from .precision import DEFAULT_PRECISION, Precision, to_mpc

_MAX_LINE_NODES = 4096 * 32
_MAX_CIRCLE_NODES = 1 << 16


@dataclass(frozen=True)
class LineContour:
    """Truncated straight line: base_point + e^{i*angle} * t, |t| <= half_length."""

    base_point: complex
    angle: float
    half_length: float

    def __post_init__(self) -> None:
        if not float(self.half_length) > 0:
            raise ValueError("half_length must be positive")


def _halvings(g, lo, width, n: int) -> Iterator[tuple[int, list]]:
    """Nested trapezoid refinement of [lo, lo + width], starting from n intervals.

    Each step halves the step and yields the new interval count and g at the
    new midpoints, in ascending order; earlier nodes are never evaluated again.
    """
    while True:
        step = width / n
        yield 2 * n, [g(lo + (2 * j + 1) * step / 2) for j in range(n)]
        n *= 2


def integrate_line(
    f: Callable[[mpc], mpc],
    contour: LineContour,
    precision: Precision = DEFAULT_PRECISION,
    min_panels: int = 8,
) -> mpc:
    """Integrate an analytic handle along a truncated line.

    The integrand must decay at the truncation ends: the endpoint magnitude is
    required to fall below target_rel_tol times the maximum sampled magnitude,
    with the half-length doubled at most twice before giving up.  The 65
    equispaced samples of that check are the first trapezoid level; refinement
    then halves the step until two consecutive levels agree.  No level with
    fewer than 4 * max(4, min_panels) intervals is accepted.

    Raises:
        NonDecayingIntegrand: tail magnitude test fails after two doublings.
        ToleranceNotReached: step halving stalls.
    """
    with precision.workdps():
        base = to_mpc(contour.base_point)
        phi = mpf(contour.angle)
        half_length = mpf(contour.half_length)
        direction = exp(mpc(0, 1) * phi)
        tol = precision.rel_tol

        def g(t):
            return f(base + direction * t)

        for attempt in range(3):
            samples = [g(-half_length + half_length * k / 32) for k in range(65)]
            max_mag = max(abs(v) for v in samples)
            end_mag = max(abs(samples[0]), abs(samples[-1]))
            if max_mag == 0 or end_mag <= tol * max_mag:
                break
            if attempt == 2:
                raise NonDecayingIntegrand(
                    "integrand magnitude %s at truncation ends exceeds %s after "
                    "doubling half_length twice" % (mp.nstr(end_mag, 3), mp.nstr(tol * max_mag, 3))
                )
            half_length *= 2

        # a vanishing integral can only be pinned in absolute terms, at the
        # scale set by the integrand magnitude over the contour length
        zero_floor = tol * max_mag * 2 * half_length

        width = 2 * half_length
        min_intervals = 4 * max(4, int(min_panels))
        n = len(samples) - 1
        total = (samples[0] + samples[-1]) / 2 + sum(samples[1:-1])
        halvings = _halvings(g, -half_length, width, n)
        previous = None
        while True:
            value = total * (width / n) * direction
            if previous is not None and n >= min_intervals:
                delta = abs(value - previous)
                scale = max(abs(value), abs(previous))
                if delta <= max(tol * scale, zero_floor):
                    return value
            if n >= _MAX_LINE_NODES:
                raise ToleranceNotReached(
                    "line quadrature did not converge within %d nodes" % _MAX_LINE_NODES
                )
            previous = value
            n, new = next(halvings)
            total += sum(new)


def laurent_coefficients(
    f: Callable[[mpc], mpc],
    z0,
    radius,
    orders: Iterable[int],
    precision: Precision = DEFAULT_PRECISION,
) -> list:
    """Laurent coefficients of f about z0 on a circle with no pole on or
    inside it other than z0.

    ``orders`` may include -1 (the residue) when z0 is a simple pole of f.
    """
    orders = list(orders)
    with precision.workdps():
        z0 = to_mpc(z0)
        radius = mpf(radius)
        if not radius > 0:
            raise ValueError("radius must be positive")
        tol = precision.rel_tol

        def g(theta):
            w = radius * exp(mpc(0, 1) * theta)
            return w, f(z0 + w)

        # c_k = (1/2 pi i) oint f(z) (z - z0)^{-k-1} dz is the mean of
        # f(z0 + w) w^{-k} over the n nodes w; max |f| is the error scale
        two_pi = 2 * pi
        n = 32
        new = [g(two_pi * m / n) for m in range(n)]
        halvings = _halvings(g, mpf(0), two_pi, n)
        sums = [mpc(0)] * len(orders)
        max_mag = mpf(0)
        previous = None
        while True:
            max_mag = max(max_mag, max(abs(fw) for _, fw in new))
            sums = [acc + sum(fw * w ** (-k) for w, fw in new) for acc, k in zip(sums, orders)]
            values = [acc / n for acc in sums]
            # quadrature error of c_k scales like max|f| / radius^k
            if previous is not None and all(
                abs(v - pv) <= max(tol * abs(v), tol * max_mag * radius ** (-k))
                for v, pv, k in zip(values, previous, orders)
            ):
                return values
            if n >= _MAX_CIRCLE_NODES:
                raise ToleranceNotReached(
                    "circle quadrature did not converge within %d nodes" % _MAX_CIRCLE_NODES
                )
            previous = values
            n, new = next(halvings)
