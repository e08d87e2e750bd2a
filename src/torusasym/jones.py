"""Two independent evaluators of the colored Jones polynomial of a torus knot.

jones_sum is the exact finite cyclotomic sum (O(N) terms); jones_integral is
the contour-integral representation, a Gaussian times the torsion kernel along
a tilted line, used as an independent verification path.  Both normalize the
unknot to 1 and read every power of q = e^(xi/N) as exp(xi * x / N), so no
root or branch ambiguity enters.

The sum calls exp only to seed a walk: its exponents are quadratic in the
summation index, so each term is the previous one times a ratio that grows
by a constant factor, and the sum runs that recurrence in fixed point on
Python integers, recomputing term and ratio exactly every _RESEED steps.
Each walk runs toward decreasing term modulus and stops once the term falls
below its last fraction bit (the tail cut), so Re xi > 0 at large N costs a
few dozen terms.  The bits lost to cancellation are measured after the walk;
when they eat into the working precision plus a guard, the walk is redone
at enough bits to absorb them, and past _MAX_LOST_BITS it raises
CancellationLimit.

Chirality convention: the sum realizes J_2(T(2,3); q) = q^-1 + q^-3 - q^-4,
i.e. the mirror for which the contour representation holds verbatim; it is
applied uniformly to all (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import arg, cos, cosh, exp, im, log, mp, mpc, mpf, pi, re, sin, sinh, sqrt
from mpmath.libmp import to_fixed

from .contour import LineContour, integrate_line
from .errors import CancellationLimit, DegenerateDenominator, InvalidXi
from .precision import DEFAULT_PRECISION, Precision, to_mpc
from .torus import TorusKnot, _framing_exponent, _pole_index_near, _tau_raw

# absolute guard for recognizing xi as an exact multiple of 2 pi i
ROOT_OF_UNITY_SNAP = mpf("1e-9")

# verification path only; beyond this the sum is the intended evaluator
_INTEGRAL_MAX_N = 5000

# Im xi below this counts as negative, outside every evaluator's domain
_IM_XI_FLOOR = -1e-15

# steps between exact recomputations of a walk's running term and ratio
_RESEED = 128

# fraction bits carried beyond the working precision and the bitlen(N) bits
# the error of an N-term walk can grow by
_GUARD_BITS = 32

# cancellation, in bits, a sum absorbs by carrying more fraction bits; past
# it the sum raises CancellationLimit.  The benchmark's Re xi < 0 ladders
# lose up to about 2340 bits (T(3,5), xi = -0.27+0.2i, N = 1600).
_MAX_LOST_BITS = 4096


def _im_xi_negative(xi) -> bool:
    """Whether xi lies below the upper half plane Im xi >= 0 (up to _IM_XI_FLOOR)."""
    return float(im(to_mpc(xi))) < _IM_XI_FLOOR


@dataclass(frozen=True)
class EvalPoint:
    """Spectral parameter xi (Im xi >= 0) and color N >= 1."""

    xi: complex
    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if _im_xi_negative(self.xi):
            raise ValueError("Im xi must be non-negative")

    @property
    def u(self) -> mpc:
        """xi - 2 pi i at the default working precision."""
        with DEFAULT_PRECISION.workdps():
            return to_mpc(self.xi) - 2 * pi * mpc(0, 1)

    def region(self, knot: TorusKnot) -> str:
        """Convergence class of xi for the given knot."""
        from .asymptotics import classify_region

        return classify_region(knot, self.xi)

    def xi_half_is_pole(self, knot: TorusKnot, precision: Precision = DEFAULT_PRECISION) -> bool:
        """Whether xi/2 sits on a genuine pole of the torsion kernel."""
        with precision.workdps():
            return _pole_index_near(knot, to_mpc(self.xi) / 2, precision) is not None


def _nearest_2pii_multiple(xi) -> int | None:
    """m with |xi - 2 pi i m| < ROOT_OF_UNITY_SNAP, or None: the one test for
    xi on a multiple of 2 pi i, used by every evaluator and the classifier."""
    m = int(mp.nint(im(xi) / (2 * pi)))
    if abs(xi - 2 * pi * mpc(0, 1) * m) < ROOT_OF_UNITY_SNAP:
        return m
    return None


def _fixed(z, bits: int) -> tuple[int, int]:
    """z * 2^bits, each part rounded down to a Python int."""
    return to_fixed(z.real._mpf_, bits), to_fixed(z.imag._mpf_, bits)


def _guarded_walk(walk, working_bits: int, guard: int, n: int):
    """Value of walk(bits) -> (value, lost) at enough fraction bits that the
    bits lost to cancellation leave working_bits + guard.

    The first walk carries bitlen(n) bits of slack, so the few bits a sum of
    n terms commonly cancels cost no second walk.  A walk whose loss eats
    into the guard is redone: when more than 2 bitlen(n) bits survive, the
    loss is measured and the redo carries needed + lost + bitlen(n) bits;
    otherwise the loss is total, only a lower bound, and the redo adds the
    lost bits, about doubling the fraction bits.  A loss above
    _MAX_LOST_BITS raises CancellationLimit.
    """
    needed = working_bits + guard
    slack = n.bit_length()
    bits = needed + slack
    while True:
        value, lost = walk(bits)
        if lost > _MAX_LOST_BITS:
            raise CancellationLimit(
                "the sum cancels %d bits, more than the %d it may absorb" % (lost, _MAX_LOST_BITS)
            )
        if bits - lost >= needed:
            return value
        bits = needed + lost + slack if bits - lost > 2 * slack else bits + lost


def _quadratic_run(c, shift, poly, start, step, count, bits, weighted):
    """sum of w_t e^(c p(t) - shift) * 2^bits over count indices t = start,
    start + step, ..., as a pair of Python ints.

    p(t) = (A t + B) t + C has integer coefficients and w_t is p(t) when
    weighted, else 1.  Consecutive terms differ by the ratio
    e^(c (p(t + step) - p(t))), and consecutive ratios by e^(2 A c), so each
    step costs two complex integer multiplies; term and ratio are recomputed
    exactly every _RESEED steps.  The caller walks toward decreasing
    |e^(c p(t))|, so the fixed-point error never grows along a run, and the
    run stops once a term falls below 2^-bits: every later one is smaller.
    Complex products take three integer multiplies (Gauss), exactly.
    """
    A, B, C = poly
    gr, gi = _fixed(exp(2 * A * c), bits)
    g_sum, g_diff = gr + gi, gi - gr
    acc_r = acc_i = 0
    t = start
    while count > 0:
        p = (A * t + B) * t + C
        d = (A * (t + step) + B) * (t + step) + C - p
        tr, ti = _fixed(exp(c * p - shift), bits)
        rr, ri = _fixed(exp(c * d), bits)
        block = min(_RESEED, count)
        for _ in range(block):
            if -2 < tr < 2 and -2 < ti < 2:
                return acc_r, acc_i
            if weighted:
                acc_r += p * tr
                acc_i += p * ti
                p += d
                d += 2 * A
            else:
                acc_r += tr
                acc_i += ti
            k = rr * (tr + ti)
            tr, ti = (k - ti * (rr + ri)) >> bits, (k + tr * (ri - rr)) >> bits
            k = gr * (rr + ri)
            rr, ri = (k - ri * g_sum) >> bits, (k + rr * g_diff) >> bits
        t += step * block
        count -= block
    return acc_r, acc_i


def _sum_walk(knot: TorusKnot, N: int, xi, weighted: bool, bits: int) -> tuple[mpc, int]:
    """(numerator, lost bits) of the finite sum at xi with `bits` fraction bits.

    The numerator is sum_t w(P_t) e^(c P_t) - w(Q_t) e^(c Q_t), c = xi/(4N),
    with P_t, Q_t the two exponents of term t times 4N and w(x) = x when
    weighted, else 1.  With r = 2t - (N-1) they are
    ab r^2 + 2(a +- b) r + ab(1 - N^2) +- 2, quadratics in t with the vertex
    near (N-1)/2.  Every term is scaled by S = e^(max Re(c) P), in closed
    form from the endpoints and the vertex.  For Re c >= 0 the modulus falls
    from both ends toward the vertex, for Re c < 0 from the vertex outward,
    and each series is walked that way in two runs.  lost is log2 of the
    largest weighted term over the numerator.
    """
    a, b, ab = knot.a, knot.b, knot.ab
    polys = [
        (4 * ab, 4 * (a + s * b) - 4 * ab * (N - 1), 2 * s - 2 * (N - 1) * (ab + a + s * b))
        for s in (1, -1)
    ]
    # last index at or left of each vertex, and the indices where p takes
    # its extreme values on [0, N-1]
    vertices = [min(max(-B // (2 * A), -1), N - 1) for A, B, _ in polys]
    extremes = [
        (A * t + B) * t + C
        for (A, B, C), v in zip(polys, vertices)
        for t in (0, N - 1, max(v, 0), min(v + 1, N - 1))
    ]
    p_max = max(abs(p) for p in extremes)
    w_bits = p_max.bit_length() if weighted else 0
    acc_r = acc_i = 0
    # exp needs its argument, of size up to |xi| p_max / (4N), to `bits` bits
    with mp.workprec(bits + int(abs(xi) * p_max / (4 * N)).bit_length() + 16):
        c = xi / (4 * N)
        shift = max(re(c) * p for p in extremes)
        for sign, poly, v in zip((1, -1), polys, vertices):
            if re(c) >= 0:
                runs = ((0, 1, v + 1), (N - 1, -1, N - 1 - v))
            else:
                runs = ((v, -1, v + 1), (v + 1, 1, N - 1 - v))
            for start, step, count in runs:
                run_r, run_i = _quadratic_run(c, shift, poly, start, step, count, bits, weighted)
                acc_r += sign * run_r
                acc_i += sign * run_i
    lost = bits + w_bits - max(abs(acc_r), abs(acc_i)).bit_length()
    return mpc(mp.ldexp(acc_r, -bits), mp.ldexp(acc_i, -bits)) * exp(shift), lost


def jones_sum(
    knot: TorusKnot, N: int, xi, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """J_N(T(a,b); e^(xi/N)) by the exact finite sum.

    At xi equal (within snap tolerance) to an exact multiple of 2 pi i the
    normalizing denominator 2 sinh(xi/2) vanishes together with the numerator
    and the value is the exact limit, evaluated by the derivative ratio at the
    snapped point.  A denominator that is nearly but not exactly degenerate
    raises DegenerateDenominator.  The numerator is walked in fixed point
    (_sum_walk) at as many bits as its cancellation needs; a cancellation of
    more than _MAX_LOST_BITS raises CancellationLimit.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    with precision.workdps():
        xi = to_mpc(xi)
        working_bits = mp.prec
        guard = _GUARD_BITS + N.bit_length()
        m = _nearest_2pii_multiple(xi)
        if m is not None:
            xi0 = 2 * pi * mpc(0, 1) * m
            num_d = _guarded_walk(
                lambda bits: _sum_walk(knot, N, xi0, True, bits), working_bits, guard, N
            )
            return num_d / (4 * N) / cosh(xi0 / 2)
        den = 2 * sinh(xi / 2)
        if abs(den) < precision.degeneracy_eps:
            raise DegenerateDenominator(
                "2 sinh(xi/2) nearly vanishes but xi is not an exact 2 pi i multiple"
            )
        num = _guarded_walk(lambda bits: _sum_walk(knot, N, xi, False, bits), working_bits, guard, N)
        return num / den


def jones_sum_oracle(
    knot: TorusKnot, N: int, q, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """Sum evaluator addressed by q itself; xi is recovered as N log q.

    The principal logarithm fixes the half-integer powers; callers needing a
    specific branch should use jones_sum with xi directly.
    """
    with precision.workdps():
        q = to_mpc(q)
        if q == 0:
            raise ValueError("q must be nonzero")
        return jones_sum(knot, N, N * log(q), precision=precision)


def _contour_angle(knot: TorusKnot, xi) -> mpf:
    """Contour angle inside the admissible window around arg(xi)/2.

    The midpoint maximizes the Gaussian decay rate.  The angle is nudged,
    deterministically, so that (i) the line is not parallel to the pole
    axis and (ii) the saddle line does not cross the imaginary axis next
    to a genuine kernel pole.
    """
    base = arg(xi) / 2
    window = pi / 4 - mpf("0.06")
    gap = pi / (4 * knot.ab)
    steps = [mpf(0)]
    for j in range(1, 8):
        steps.extend([j * mpf("0.045"), -j * mpf("0.045")])
    for step in steps:
        phi = base + step
        if abs(phi - base) > window or abs(phi - pi / 2) < mpf("0.05"):
            continue
        crossing = (im(xi) - re(xi) * mp.tan(phi)) / 2
        k0 = int(mp.nint(crossing * knot.ab / pi))
        if not knot.is_pole_index(k0):
            return phi  # nearest grid point is a removable zero, not a pole
        if abs(crossing - k0 * pi / knot.ab) >= gap:
            return phi
    return base


def _crossed_pole_terms(knot: TorusKnot, xi, N: int, crossing) -> mpc:
    """2 pi i times the residue sum for poles between the two contour lines.

    The defining line passes through the origin and the saddle line through
    xi/2 crosses the imaginary axis at ``crossing``; shifting one onto the
    other collects the residues of e^(abN(-z^2/xi+z)) tau(z) at the genuine
    poles k pi i/(ab) strictly in between, signed by the shift direction.
    """
    a, b, ab = knot.a, knot.b, knot.ab
    lo, hi = (crossing, mpf(0)) if crossing < 0 else (mpf(0), crossing)
    orientation = 1 if crossing > 0 else -1
    total = mpc(0)
    k = int(mp.floor(lo * ab / pi)) - 1
    upper = int(mp.ceil(hi * ab / pi)) + 1
    while k <= upper:
        y = k * pi / ab
        if lo < y < hi and knot.is_pole_index(k):
            residue = (
                (-1) ** (k + 1)
                * 2
                * sin(k * pi / mpf(a))
                * sin(k * pi / mpf(b))
                / ab
                * exp(N * (k**2 * pi**2 / (ab * xi) + k * pi * mpc(0, 1)))
            )
            total += residue
        k += 1
    return orientation * 2 * pi * mpc(0, 1) * total


def jones_integral(
    knot: TorusKnot, point: EvalPoint, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """J_N by the contour-integral representation.

    The defining integral runs over the line through the origin at an angle
    in the admissible window around arg(xi)/2.  Evaluating it directly is
    numerically hopeless away from real xi (the integrand peak exceeds the
    integral by a factor exponential in N), so the quadrature is performed
    on the parallel line through the saddle xi/2, where the Gaussian factor
    decays monotonically, and the residues of the poles crossed by the shift
    are added in closed form.  By Cauchy's theorem the value is the defining
    integral itself.  This is the verification path; it refuses N above
    _INTEGRAL_MAX_N (5000), where the sum is the intended evaluator.
    """
    if point.N > _INTEGRAL_MAX_N:
        raise ValueError(
            "integral path is a verification device; use jones_sum for N > %d" % _INTEGRAL_MAX_N
        )
    with precision.workdps():
        xi = to_mpc(point.xi)
        N = point.N
        if _nearest_2pii_multiple(xi) is not None:
            raise InvalidXi("integral representation undefined at multiples of 2 pi i")
        ab = knot.ab
        phi = _contour_angle(knot, xi)
        tol = precision.rel_tol

        # Gaussian decay rate along the saddle line; positive inside the window
        decay = cos(2 * phi - arg(xi)) / abs(xi)
        half_length = sqrt((log(1 / tol) + 9) / (ab * N * decay)) + pi / ab + mpf("0.3")

        # resolve the kernel scale pi/(ab) and the mild residual oscillation
        waves = ab * N * half_length * abs(sin(2 * phi - arg(xi))) / (2 * pi * abs(xi))
        min_panels = max(8, int(mp.ceil(half_length * ab)), int(mp.ceil(4 * waves)))

        prefactor = (
            1
            / (2 * sinh(xi / 2))
            * sqrt(ab * N / (pi * xi))
            * exp(-ab * N * xi / 4 + _framing_exponent(knot, xi, N))
        )

        def integrand(z):
            return exp(ab * N * (-z * z / xi + z)) * _tau_raw(knot, z, precision)

        contour = LineContour(
            base_point=complex(xi / 2), angle=float(phi), half_length=float(half_length)
        )
        saddle_part = integrate_line(integrand, contour, precision=precision, min_panels=min_panels)
        crossing = (im(xi) - re(xi) * mp.tan(phi)) / 2
        return prefactor * (saddle_part + _crossed_pole_terms(knot, xi, N, crossing))


def unknot_bracket(N: int, xi, precision: Precision = DEFAULT_PRECISION) -> tuple[mpc, mpc]:
    """Unnormalized unknot value sinh(xi/2)/sinh(xi/(2N)) and its nu factor.

    nu = bracket * xi / (2 N sinh(xi/2)) tends to 1 as N grows; it is the
    correction by which the bracket deviates from its leading 2 sinh(xi/2) N/xi.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    with precision.workdps():
        xi = to_mpc(xi)
        den = sinh(xi / (2 * N))
        if abs(den) < precision.degeneracy_eps:
            raise DegenerateDenominator("sinh(xi/(2N)) vanishes")
        bracket = sinh(xi / 2) / den
        # bracket * xi / (2 N sinh(xi/2)) simplifies to the nonsingular form
        nu = (xi / (2 * N)) / den
        return bracket, nu
