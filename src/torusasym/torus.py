"""Closed-form invariants of the (a,b) torus knot.

The torsion kernel tau(z) = 2 sinh(az) sinh(bz) / sinh(abz), its genuine
poles, the Alexander polynomial, derivative ladders extracted by circle
quadrature, and the even Taylor data of z*tau(z) at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf, im, log, pi, re, sinh

from .contour import cauchy_derivatives
from .errors import PoleHit
from .precision import DEFAULT_PRECISION, Precision, to_mpc


@dataclass(frozen=True)
class TorusKnot:
    """Coprime pair (a, b) with b odd; nontrivial, so a >= 2 and b >= 3."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 2 or self.b < 3:
            raise ValueError("need a >= 2 and b >= 3")
        if self.b % 2 == 0:
            raise ValueError("b must be odd")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("a and b must be coprime")

    @property
    def ab(self) -> int:
        return self.a * self.b

    def __str__(self) -> str:
        return f"T({self.a},{self.b})"


def pole_indices(knot: TorusKnot, k_max: int) -> list[int]:
    """All k in [1, k_max] with a ∤ k and b ∤ k, ascending."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [k for k in range(1, k_max + 1) if k % knot.a and k % knot.b]


@dataclass(frozen=True)
class PoleSet:
    """Genuine poles of tau: k*pi*i/(ab) for integer k not divisible by a or b."""

    knot: TorusKnot

    def indices(self, k_max: int) -> list[int]:
        return pole_indices(self.knot, k_max)

    def location(self, k: int) -> mpc:
        return mpc(0, 1) * k * pi / self.knot.ab

    def index_near(self, z, tol) -> int | None:
        """Index k of the pole within distance tol of z, or None."""
        z = to_mpc(z)
        k = int(mp.nint(im(z) * self.knot.ab / pi))
        if k % self.knot.a == 0 or k % self.knot.b == 0:
            return None
        if abs(z - self.location(k)) < tol:
            return k
        return None

    def min_kernel_zero_distance(self, z, exclude_self_tol=None) -> mpf:
        """Distance from z to the nearest zero m*pi*i/(ab) of sinh(ab z).

        A point sitting on a (removable) zero excludes itself when
        ``exclude_self_tol`` is given, so circle radii stay positive there.
        """
        z = to_mpc(z)
        ab = self.knot.ab
        m0 = int(mp.nint(im(z) * ab / pi))
        best = None
        for m in (m0 - 1, m0, m0 + 1):
            d = abs(z - mpc(0, 1) * m * pi / ab)
            if exclude_self_tol is not None and d < exclude_self_tol:
                continue
            if best is None or d < best:
                best = d
        return best


def _pole_tolerance(knot: TorusKnot, precision: Precision) -> mpf:
    # scale-aware guard: half the working digits relative to the pole spacing
    return precision.half_eps * pi / knot.ab


def _removable_limit(f, z, ab: int) -> mpc:
    """Richardson limit of f at a removable 0/0 point z: the mean of f at the
    four points z +- h, z +- ih with h = 10^(-dps/4) pi/(ab)."""
    h = mpf(10) ** (-(mp.dps // 4)) * pi / ab
    shifts = (h, -h, mpc(0, 1) * h, -mpc(0, 1) * h)
    return sum(f(z + s) for s in shifts) / 4


def _framing_exponent(knot: TorusKnot, xi, N: int) -> mpc:
    """(ab - a/b - b/a) xi / (4N), the exponent of the framing factor."""
    return (knot.ab - mpf(knot.a) / knot.b - mpf(knot.b) / knot.a) * xi / (4 * N)


def _tau_raw(knot: TorusKnot, z, precision: Precision, depth: int = 0) -> mpc:
    """tau without the pole guard; removable 0/0 points get a Richardson limit."""
    a, b, ab = knot.a, knot.b, knot.ab
    den = sinh(ab * z)
    if abs(den) < mpf(10) ** (-(mp.dps // 2)) and depth == 0:
        # near a kernel zero; genuine poles were excluded by the caller
        return _removable_limit(lambda w: _tau_raw(knot, w, precision, depth=1), z, ab)
    return 2 * sinh(a * z) * sinh(b * z) / den


def tau(knot: TorusKnot, z, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """Torsion kernel 2 sinh(az) sinh(bz) / sinh(abz).

    Removable singularities (kernel zeros with a | k or b | k) are evaluated
    by a 4-point Richardson limit; genuine poles raise PoleHit when z is
    within 10^(-working_digits/2) * pi/(ab) of the pole.
    """
    with precision.workdps():
        z = to_mpc(z)
        poles = PoleSet(knot)
        hit = poles.index_near(z, _pole_tolerance(knot, precision))
        if hit is not None:
            raise PoleHit(f"z within pole tolerance of index k={hit} for {knot}")
        return _tau_raw(knot, z, precision)


def alexander(knot: TorusKnot, t, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """Alexander polynomial of the torus knot at t.

    Evaluated through z = log(t)/2 as sinh(ab z) sinh(z) / (sinh(az) sinh(bz)),
    which realizes the symmetric normalization with value 1 at t = 1.  The
    removable points (t a root of unity killing the denominator) get a
    Richardson limit.
    """
    with precision.workdps():
        t = to_mpc(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        z = log(t) / 2
        return _alexander_at_log(knot, z, precision)


def _alexander_at_log(knot: TorusKnot, z, precision: Precision, depth: int = 0) -> mpc:
    a, b, ab = knot.a, knot.b, knot.ab
    den = sinh(a * z) * sinh(b * z)
    scale = max(mpf(1), abs(sinh(ab * z) * sinh(z)))
    if abs(den) < mpf(10) ** (-(mp.dps // 2)) * scale and depth == 0:
        return _removable_limit(lambda w: _alexander_at_log(knot, w, precision, depth=1), z, ab)
    return sinh(ab * z) * sinh(z) / den


def tau_even_derivatives(
    knot: TorusKnot, z0, j_max: int, precision: Precision = DEFAULT_PRECISION
) -> list:
    """[tau^(2j)(z0) for j = 0..j_max] by circle quadrature.

    The circle radius is half the distance from z0 to the nearest zero of
    sinh(ab z), keeping a safety margin against pole proximity.
    """
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    with precision.workdps():
        z0 = to_mpc(z0)
        poles = PoleSet(knot)
        tol = _pole_tolerance(knot, precision)
        if poles.index_near(z0, tol) is not None:
            raise PoleHit(f"derivative ladder requested on a pole of tau for {knot}")
        radius = poles.min_kernel_zero_distance(z0, exclude_self_tol=tol) / 2
        orders = [2 * j for j in range(j_max + 1)]
        f = lambda z: _tau_raw(knot, z, precision)
        return cauchy_derivatives(f, z0, radius, orders, precision=precision)


def ztau_even_derivatives(
    knot: TorusKnot, l_max: int, precision: Precision = DEFAULT_PRECISION
) -> list:
    """Even derivatives of z*tau(z) at 0: the correction-series coefficients.

    Entry l is the (2l)-th derivative, an even analytic function's Taylor
    data; entry 0 vanishes since z*tau(z) ~ 2 z^2 near the origin.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    with precision.workdps():
        radius = pi / (2 * knot.ab)
        orders = [2 * l for l in range(l_max + 1)]
        f = lambda z: z * _tau_raw(knot, z, precision)
        return cauchy_derivatives(f, mpc(0), radius, orders, precision=precision)
