"""Closed-form invariants of the (a,b) torus knot.

The torsion kernel tau(z) = 2 sinh(az) sinh(bz) / sinh(abz), its genuine
poles, the Alexander polynomial, and the even derivative ladders of tau and
of z*tau(z).  The ladders are Taylor coefficients built from the closed-form
series of the three sinh factors: the numerator series is multiplied out and
divided by the denominator series (Knuth, TAOCP vol. 2, section 4.7).  Near
a zero of sinh(abz) the series is taken about that exact zero, where the
pole or the 0/0 cancels symbolically, and then shifted to the point asked
for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import cosh, mp, mpc, mpf, im, log, pi, sinh

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


def _pole_index_near(knot: TorusKnot, z, precision: Precision) -> int | None:
    """Index k of the genuine pole k pi i/(ab) within half the working digits
    of the pole spacing pi/(ab) from z, or None."""
    z = to_mpc(z)
    k = int(mp.nint(im(z) * knot.ab / pi))
    if knot.is_pole_index(k) and abs(z - mpc(0, k) * pi / knot.ab) < precision.half_eps * pi / knot.ab:
        return k
    return None


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


def _tau_raw(knot: TorusKnot, z, precision: Precision) -> mpc:
    """tau without the pole guard; near a removable 0/0 point the series about
    the kernel zero gives the value."""
    den = sinh(knot.ab * z)
    if abs(den) < _removable_eps():
        # near a kernel zero; genuine poles were excluded by the caller
        return _tau_derivatives(knot, z, 1)[0]
    return 2 * sinh(knot.a * z) * sinh(knot.b * z) / den


def tau(knot: TorusKnot, z, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """Torsion kernel 2 sinh(az) sinh(bz) / sinh(abz).

    Removable singularities (kernel zeros with a | k or b | k) are evaluated
    from the Taylor series about the zero; genuine poles raise PoleHit when z is
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


# offsets from the nearest zero of sinh(ab z), in units of the zero spacing
# pi/(ab), below which the series is taken about that zero and shifted
_NEAR_ZERO = 1 / 32

# bits carried beyond the working precision by the series arithmetic
_SERIES_GUARD = 16


def _sinh_series(c: int, s, ch, n: int) -> list:
    """First n Taylor coefficients of sinh(c (z + h)) in h, from s = sinh(c z)
    and ch = cosh(c z): c^k/k! times s for even k, ch for odd k."""
    return [mpf(c) ** k / mp.factorial(k) * (ch if k % 2 else s) for k in range(n)]


def _tau_series(sa: list, sb: list, den: list) -> list:
    """Series of 2 sa sb / den, as long as the shortest operand; den[0] != 0."""
    out = []
    for k in range(min(len(sa), len(sb), len(den))):
        num = 2 * sum(sa[i] * sb[k - i] for i in range(k + 1))
        out.append((num - sum(den[i] * out[k - i] for i in range(1, k + 1))) / den[0])
    return out


def _tau_derivatives(knot: TorusKnot, z0, n: int) -> list:
    """[g^(k)(z0) for k = 0..n-1], g being tau less its principal part at z0.

    Away from the zeros of sinh(ab z) the sinh series about z0 are divided
    directly, with guard bits for the digits the recurrence loses near a
    zero.  Within _NEAR_ZERO spacings of a zero z* = m pi i/(ab) they are
    taken about z*: a factor whose argument is an exact multiple of pi i
    gets an exact 0, and sinh(ab(z* + u)) = (-1)^m sinh(ab u) is divided by
    u, so the pole or the 0/0 cancels symbolically.  That series is shifted
    by z0 - z*, computed at doubled precision; an offset within the rounding
    of z0 counts as 0, and a genuine pole there keeps its principal part out.
    """
    a, b, ab = knot.a, knot.b, knot.ab
    prec = mp.prec
    wp = prec + _SERIES_GUARD
    z0 = to_mpc(z0)
    m = int(mp.nint(im(z0) * ab / pi))
    with mp.workprec(2 * prec):
        delta = z0 - mpc(0, m) * pi / ab
        rho = abs(delta) * ab / pi
    if rho >= _NEAR_ZERO:
        # about log2(4/_NEAR_ZERO) bits per order, and those of sinh(ab z0)'s argument
        with mp.workprec(wp + 7 * n + int(abs(z0) * ab).bit_length()):
            coeffs = _tau_series(*(_sinh_series(c, sinh(c * z0), cosh(c * z0), n) for c in (a, b, ab)))
    else:
        terms = n
        if abs(delta) <= mp.ldexp(abs(z0), 4 - prec):
            delta = 0
        else:
            # the coefficients about z* fall like rho^j, so after `terms` of
            # them the shift's tail is about C(terms, n) rho^(terms - n)
            log_rho = float(mp.log(rho, 2))
            terms = n + 2
            while math.log2(math.comb(terms, n)) + (terms - n) * log_rho > -wp:
                terms += 1
        with mp.workprec(wp):
            # c z* = pi i x with x = m/(ab/c): sinh = i sin(pi x), cosh = cos(pi x)
            sa, sb = (
                _sinh_series(c, mpc(0, mp.sinpi(x)), mp.cospi(x), terms + 1)
                for c, x in ((a, mpf(m) / b), (b, mpf(m) / a))
            )
            den = _sinh_series(ab, mpf(0), 1 - 2 * (m % 2), terms + 2)[1:]
            residue, *coeffs = _tau_series(sa, sb, den)
            if delta:
                # Taylor shift by delta (Knuth, TAOCP vol. 2, 4.6.4), then
                # the principal part residue/(delta + h)
                for i in range(n):
                    for j in range(terms - 2, i - 1, -1):
                        coeffs[j] += delta * coeffs[j + 1]
                coeffs = [c + residue * (-1 / delta) ** k / delta for k, c in enumerate(coeffs[:n])]
    return [mp.factorial(k) * c for k, c in enumerate(coeffs[:n])]


def tau_even_derivatives(
    knot: TorusKnot, z0, j_max: int, precision: Precision = DEFAULT_PRECISION
) -> list:
    """[tau^(2j)(z0) for j = 0..j_max] from the Taylor series of tau at z0."""
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    with precision.workdps():
        z0 = to_mpc(z0)
        if _pole_index_near(knot, z0, precision) is not None:
            raise PoleHit(f"derivative ladder requested on a pole of tau for {knot}")
        return _tau_derivatives(knot, z0, 2 * j_max + 1)[::2]


def ztau_even_derivatives(
    knot: TorusKnot, l_max: int, precision: Precision = DEFAULT_PRECISION
) -> list:
    """Even derivatives of z*tau(z) at 0: the correction-series coefficients.

    Entry l is the (2l)-th derivative, an even analytic function's Taylor
    data; entry 0 vanishes since z*tau(z) ~ 2 z^2 near the origin.  The
    series of z*tau is that of tau shifted by one order, so entry l is
    2l tau^(2l-1)(0).
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    with precision.workdps():
        odd = _tau_derivatives(knot, 0, max(2 * l_max, 1))
        return [mpc(0)] + [2 * l * odd[2 * l - 1] for l in range(1, l_max + 1)]
