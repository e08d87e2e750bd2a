"""Reference values for the benchmark's output checks.

Nothing here imports torusasym.  The colored Jones sums are evaluated from
their published finite formulas by a different algorithm than the package
uses: the exponents are quadratic in the summation index, so consecutive
terms differ by a ratio that itself changes by a constant factor.  The torus
sum runs that two-multiply recurrence on Python integers, each term scaled by
its own power of two, and the figure-eight product runs in mpmath; both are
reseeded with an exact exponential every RESEED terms.  The precision is raised until it covers the digits that
cancellation between terms costs, which is what makes these references
valid where the package's own sums are not (Re xi < 0 at large N).

Region classes follow the closed-form rule documented in the README:
converges for Re xi > 0 or |xi| < 2 pi/ab, diverges otherwise.
"""

from __future__ import annotations

import math

from mpmath import cosh, exp, mp, mpc, mpf, nint, pi, sinh

# terms between exact reseeds of the recurrences
RESEED = 64

# README: xi typed within this distance of a special point is snapped onto it
XI_SNAP = 1e-4


def snap_xi(a: int, b: int, xi: complex):
    """xi after the CLI's documented snapping, as an exact mpc at 60 digits.

    Targets are the nonzero multiples of 2 pi i and the pole-case points
    2 k pi i/(ab) with a, b not dividing k.  Returns (xi, m) where m is the
    multiple of 2 pi i that xi was snapped to, or 0.
    """
    with mp.workdps(60):
        z = mpc(xi)
        if abs(xi.real) < XI_SNAP:
            m = int(nint(z.imag / (2 * pi)))
            if m != 0 and abs(z.imag - 2 * pi * m) < XI_SNAP:
                return 2 * pi * m * mpc(0, 1), m
            ab = a * b
            k = int(nint(z.imag * ab / (2 * pi)))
            if k != 0 and k % a and k % b and abs(z.imag - 2 * pi * k / ab) < XI_SNAP:
                return 2 * pi * k * mpc(0, 1) / ab, 0
        return z, 0


def _fixed(z, scale: int) -> tuple[int, int]:
    """z * 2^scale rounded to a pair of Python integers."""
    return int(nint(mp.ldexp(z.real, scale))), int(nint(mp.ldexp(z.imag, scale)))


def _exp_sum(step, p0: int, d0: int, second: int, n: int, digits: int, weighted: bool):
    """sum_{t<n} w_t exp(step * p_t) for p_{t+1} = p_t + d_t, d_{t+1} = d_t + second.

    w_t is p_t when weighted, else 1.  Each term is carried as a pair of
    integers scaled by its own power of two (a block floating point), and is
    advanced by the ratio exp(step * d_t), which itself advances by
    exp(step * second).  A term is recomputed exactly every RESEED steps and
    whenever its magnitude has drifted by more than 2^40 since it was last
    computed.  Terms smaller than 10^-(digits + log10 n + 5) times the largest
    are skipped.  The integers carry the ambient mpmath precision less 32 guard
    bits.  Returns (sum, natural log of the largest |w_t term_t|).
    """
    p, d = p0, d0
    p_min = p_max = p0
    for _ in range(n - 1):
        p += d
        d += second
        p_min, p_max = min(p_min, p), max(p_max, p)
    rs = float(step.real)
    log_top = max(rs * p_min, rs * p_max)
    log_max = log_top + (math.log(max(abs(p_min), abs(p_max), 1)) if weighted else 0.0)
    cut = log_top - (digits + math.log10(n) + 5) * math.log(10)
    bits = mp.prec - 32
    acc_scale = bits - int(log_max / math.log(2)) - 2
    cr, ci = _fixed(exp(step * second), bits)
    acc_r = acc_i = 0
    tr = ti = rr = ri = scale = since = 0
    fresh = True
    low, high = bits - 40, bits + 40
    p, d = p0, d0
    for _ in range(n):
        if rs * p < cut:
            fresh = True
        else:
            if fresh or since == RESEED:
                term = exp(step * p)
                scale = bits - int(mp.mag(term))
                tr, ti = _fixed(term, scale)
                rr, ri = _fixed(exp(step * d), bits)
                fresh, since = False, 0
            wr, wi = (p * tr, p * ti) if weighted else (tr, ti)
            shift = scale - acc_scale
            if shift >= 0:
                acc_r += wr >> shift
                acc_i += wi >> shift
            else:
                acc_r += wr << -shift
                acc_i += wi << -shift
            tr, ti = (tr * rr - ti * ri) >> bits, (tr * ri + ti * rr) >> bits
            rr, ri = (rr * cr - ri * ci) >> bits, (rr * ci + ri * cr) >> bits
            since += 1
            size = max(abs(tr), abs(ti)).bit_length()
            if size < low or size > high:
                fresh = True
        p += d
        d += second
    return mpc(mp.ldexp(acc_r, -acc_scale), mp.ldexp(acc_i, -acc_scale)), log_max


def torus_jones(a: int, b: int, N: int, xi: complex, digits: int = 20) -> mpc:
    """J_N(T(a,b); e^(xi/N)) to `digits` correct digits (Morton's formula).

    J_N = sum_j (q^(ab j^2 + (a+b) j + 1/2) - q^(ab j^2 + (a-b) j - 1/2))
          * q^(ab (1 - N^2)/4) / (q^(N/2) - q^(-N/2)),
    j = -(N-1)/2 .. (N-1)/2 in unit steps, every power q^x read as
    exp(xi x / N).  At a multiple of 2 pi i both numerator and denominator
    vanish and the value is the ratio of their xi-derivatives.
    """
    z, m = snap_xi(a, b, xi)
    ab = a * b
    four_n = 4 * N
    # 4N times each exponent at j = -(N-1)/2 is ab (N-1)^2 -+ 2(a+-b)(N-1)
    # + ab(1-N^2) +- 2; stepping j by one adds 4ab(r+1) + 4(a+-b), r = 2j
    r0 = -(N - 1)
    base = ab * (1 - N * N)
    series = [
        (ab * r0 * r0 + 2 * (a + b) * r0 + base + 2, 4 * ab * (r0 + 1) + 4 * (a + b)),
        (ab * r0 * r0 + 2 * (a - b) * r0 + base - 2, 4 * ab * (r0 + 1) + 4 * (a - b)),
    ]
    lost = 10.0
    while True:
        work = digits + lost + math.log10(N * RESEED) + 20
        with mp.workprec(int(work * 3.33) + 96):
            step = z / four_n
            (sp, log_p), (sq, log_q) = (
                _exp_sum(step, p0, d0, 8 * ab, N, digits + lost, m != 0) for p0, d0 in series
            )
            num = sp - sq
            got_lost = max(log_p, log_q) / math.log(10) - float(mp.log10(abs(num)))
            if got_lost <= lost:
                if m != 0:
                    return num / four_n / cosh(z / 2)
                return num / (2 * sinh(z / 2))
        if got_lost > 5000:
            raise ArithmeticError("reference sum cancels beyond 5000 digits")
        lost = got_lost + 10


def fig8_jones(N: int, xi: complex, digits: int = 20) -> mpc:
    """J_N of the figure-eight knot at q = e^(xi/N), to `digits` digits.

    J_N = sum_{n<N} prod_{l=1..n} (q^N + q^-N - q^l - q^-l), the Habiro form
    with each factor (q^((N+l)/2) - q^(-(N+l)/2)) (q^((N-l)/2) - q^(-(N-l)/2))
    multiplied out.
    """
    lost = 10.0
    while True:
        work = int(digits + lost + math.log10(N * RESEED) + 10)
        with mp.workdps(work):
            z = mpc(xi)
            q = exp(z / N)
            q_inv = 1 / q
            c = exp(z) + exp(-z)
            total = mpc(1)
            running = mpc(1)
            biggest = 0
            qp = qm = mpc(1)
            for l in range(1, N):
                if (l - 1) % RESEED == 0:
                    qp = exp(z * l / N)
                    qm = 1 / qp
                else:
                    qp *= q
                    qm *= q_inv
                running *= c - qp - qm
                total += running
                biggest = max(biggest, mp.mag(running))
            got_lost = max(0, biggest - mp.mag(total)) * math.log10(2)
        if got_lost <= lost:
            return total
        lost = got_lost + 10


def region_class(a: int, b: int, x: mpf, y: mpf) -> str:
    """Convergence class of J_N(e^(xi/N)) at xi = x + iy, y >= 0 (README rule)."""
    m = int(nint(y / (2 * pi)))
    if abs(x) < 1e-12 and abs(y - 2 * pi * m) < 1e-9:
        return "excluded_2pii_multiple"
    if x > 0:
        return "converges"
    radius = abs(mpc(x, y))
    threshold = 2 * pi / (a * b)
    if abs(radius - threshold) < 1e-12:
        return "boundary_oscillates"
    return "converges" if radius < threshold else "diverges"


def pole_marker_heights(a: int, b: int, im_min: float, im_max: float) -> list[mpf]:
    """Heights k pi/(ab) of the kernel poles on the imaginary axis in the window."""
    out = []
    k = 1
    while k * pi / (a * b) <= im_max:
        y = k * pi / (a * b)
        if k % a and k % b and y >= im_min:
            out.append(y)
        k += 1
    return out

