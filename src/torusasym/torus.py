"""Closed-form invariants of the (a,b) torus knot.

The torsion kernel tau(z) = 2 sinh(az) sinh(bz) / sinh(abz), its genuine
poles, the Alexander polynomial, derivative ladders extracted by circle
quadrature, and the even Taylor data of z*tau(z) at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf, im, log, pi, sinh

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

    def is_pole_index(self, k: int) -> bool:
        """Whether k pi i/(ab) is a genuine pole of tau: a ∤ k and b ∤ k."""
        return bool(k % self.a and k % self.b)


def pole_indices(knot: TorusKnot, k_max: int) -> list[int]:
    """All k in [1, k_max] with a ∤ k and b ∤ k, ascending; empty for k_max < 1."""
    return [k for k in range(1, k_max + 1) if knot.is_pole_index(k)]


def _pole_tolerance(knot: TorusKnot, precision: Precision) -> mpf:
    # scale-aware guard: half the working digits relative to the pole spacing
    return precision.half_eps * pi / knot.ab


def _pole_index_near(knot: TorusKnot, z, precision: Precision) -> int | None:
    """Index k of the genuine pole k pi i/(ab) within pole tolerance of z, or None."""
    z = to_mpc(z)
    k = int(mp.nint(im(z) * knot.ab / pi))
    tol = _pole_tolerance(knot, precision)
    if knot.is_pole_index(k) and abs(z - mpc(0, 1) * k * pi / knot.ab) < tol:
        return k
    return None


def _kernel_zero_distance(knot: TorusKnot, z, precision: Precision) -> mpf:
    """Distance from z to the nearest zero m pi i/(ab) of sinh(ab z) other than
    z itself (a zero within pole tolerance of z), so circle radii stay positive."""
    z = to_mpc(z)
    ab = knot.ab
    m0 = int(mp.nint(im(z) * ab / pi))
    tol = _pole_tolerance(knot, precision)
    distances = (abs(z - mpc(0, 1) * m * pi / ab) for m in (m0 - 1, m0, m0 + 1))
    return min(d for d in distances if not d < tol)


def _removable_eps() -> mpf:
    """A denominator below 10^(-dps/2) marks a removable 0/0 point."""
    return mpf(10) ** (-(mp.dps // 2))


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
    if abs(den) < _removable_eps() and depth == 0:
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
        hit = _pole_index_near(knot, z, precision)
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
    if abs(den) < _removable_eps() * scale and depth == 0:
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
        if _pole_index_near(knot, z0, precision) is not None:
            raise PoleHit(f"derivative ladder requested on a pole of tau for {knot}")
        radius = _kernel_zero_distance(knot, z0, precision) / 2
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
