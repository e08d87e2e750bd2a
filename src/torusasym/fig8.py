"""Figure-eight knot formulas and the descriptive limit harness.

Closed forms: the longitude eigenvalue l(m) on the geometric component of the
representation variety, the A-polynomial it satisfies, and both twisted
torsion expressions.  The harness assembles the conjectural bracket

    J_N * 2 sinh(xi/2)/nu(xi/N) - sqrt(-pi) e^(H N/xi) (N/xi)^(1/2) sqrt(T_mu)

against the target 2 sinh(xi/2)/Delta(e^xi) with H estimated from the data;
it reports a table and never asserts convergence (the growth-rate estimate
cannot reach the accuracy an exponentially growing subtraction would need,
and the rows say so via the reported uncertainty).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import cosh, exp, fabs, log, mp, mpc, mpf, pi, sinh, sqrt

from .errors import DegenerateDenominator, DegenerateDiscriminant, ExtrapolationUnstable
from .jones import _RESEED, _fixed, _guarded_walk, unknot_bracket
from .precision import DEFAULT_PRECISION, Precision, to_mpc


@dataclass(frozen=True)
class MeridianParam:
    """Squared meridian eigenvalue m with the fixed branch of the discriminant root."""

    m: mpc
    sqrt_disc: mpc


def meridian_param(m, precision: Precision = DEFAULT_PRECISION) -> MeridianParam:
    """Build the parameter record; principal branch of sqrt((m+1/m+1)(m+1/m-3))."""
    with precision.workdps():
        m = to_mpc(m)
        if m == 0:
            raise ValueError("m must be nonzero")
        w = m + 1 / m
        return MeridianParam(m=m, sqrt_disc=sqrt((w + 1) * (w - 3)))


def longitude_eigenvalue(
    param: MeridianParam, branch: int = 1, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """l(m) = (m^2 - m - 2 - 1/m + 1/m^2)/2 + branch * ((m - 1/m)/2) sqrt_disc.

    branch = -1 selects the other A-polynomial root; the two roots multiply
    to 1.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    with precision.workdps():
        m = param.m
        trace_part = (m * m - m - 2 - 1 / m + 1 / (m * m)) / 2
        return trace_part + branch * (m - 1 / m) / 2 * param.sqrt_disc


def a_polynomial_residual(m, l, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """l - (m^2 - m - 2 - 1/m + 1/m^2) + 1/l; zero exactly on the curve."""
    with precision.workdps():
        m, l = to_mpc(m), to_mpc(l)
        if m == 0 or l == 0:
            raise ValueError("m and l must be nonzero")
        return l - (m * m - m - 2 - 1 / m + 1 / (m * m)) + 1 / l


def torsion_lambda_fig8(param: MeridianParam, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """Longitude torsion 1/(2m + 2/m - 1); also 1/sqrt(17 + 4 Tr(longitude))."""
    with precision.workdps():
        den = 2 * param.m + 2 / param.m - 1
        if fabs(den) < precision.degeneracy_eps:
            raise DegenerateDenominator("2m + 2/m - 1 vanishes")
        return 1 / den


def torsion_mu_fig8(
    param: MeridianParam, sign: int = 1, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """Meridian torsion up to sign: sign * 2 / sqrt((m+1/m+1)(m+1/m-3))."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    with precision.workdps():
        if fabs(param.sqrt_disc) < precision.degeneracy_eps:
            raise DegenerateDiscriminant("meridian discriminant vanishes")
        return sign * 2 / param.sqrt_disc


def dell_dm(param: MeridianParam, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """dl/dm = (2m - 1 + 1/m^2 - 2/m^3) / (1 - 1/l^2), implicit from the A-polynomial."""
    with precision.workdps():
        m = param.m
        l = longitude_eigenvalue(param, 1, precision)
        den = 1 - 1 / (l * l)
        if fabs(den) < precision.degeneracy_eps:
            raise DegenerateDiscriminant("l^2 = 1; implicit derivative degenerates")
        return (2 * m - 1 + 1 / (m * m) - 2 / (m * m * m)) / den


def dv_du_fig8(
    param: MeridianParam, sign: int = 1, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """dv/du = sign * 2 m (dl/dm) / l, the log-log slope of the eigenvalue pair."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    with precision.workdps():
        l = longitude_eigenvalue(param, 1, precision)
        return sign * 2 * param.m * dell_dm(param, precision) / l


def alexander_fig8(t, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """Alexander polynomial -t + 3 - 1/t, normalized to 1 at t = 1."""
    with precision.workdps():
        t = to_mpc(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        return -t + 3 - 1 / t


def _fig8_walk(N: int, xi, bits: int) -> tuple[mpc, int]:
    """(J_N, lost bits) of the figure-eight sum with `bits`-bit factors.

    Factor l is 2 cosh(xi) - s_l with s_l = w^l + w^-l = 2 cosh(xi l/N),
    w = e^(xi/N), advanced by s_(l+1) = (w + 1/w) s_l - s_(l-1) and
    recomputed exactly every _RESEED steps.  The running product is a
    `bits`-bit complex integer mantissa times 2^e, renormalised after every
    factor.  The total keeps the exponent of the largest product so far, so
    lost is log2 of the largest product over the total.
    """
    # 2 cosh(xi l/N) reaches e^|xi|: room for its integer bits and its argument's
    with mp.workprec(bits + 2 * int(abs(xi)) + 16):
        cr, ci = _fixed(2 * cosh(xi), bits)
        kr, ki = _fixed(2 * cosh(xi / N), bits)
        rr, ri, e = 1 << bits, 0, -bits  # running product (rr + i ri) 2^e
        tr, ti, te = rr, ri, e  # total (tr + i ti) 2^te
        for l in range(1, N):
            if (l - 1) % _RESEED == 0:
                sr, si = _fixed(2 * cosh(xi * l / N), bits)
                ur, ui = _fixed(2 * cosh(xi * (l - 1) / N), bits)
            else:
                sr, si, ur, ui = ((kr * sr - ki * si) >> bits) - ur, ((kr * si + ki * sr) >> bits) - ui, sr, si
            fr, fi = cr - sr, ci - si
            pr, pi_ = rr * fr - ri * fi, rr * fi + ri * fr
            shift = max(max(abs(pr), abs(pi_)).bit_length() - bits, 0)
            rr, ri = pr >> shift, pi_ >> shift
            e += shift - bits
            if e > te:
                tr, ti, te = tr >> (e - te), ti >> (e - te), e
            tr += rr >> (te - e)
            ti += ri >> (te - e)
    lost = bits - max(abs(tr), abs(ti)).bit_length()
    return mpc(mp.ldexp(tr, te), mp.ldexp(ti, te)), lost


def jones_fig8(N: int, xi, precision: Precision = DEFAULT_PRECISION) -> mpc:
    """Colored Jones of the figure-eight knot by the cyclotomic finite sum.

    J_N = sum_{n=0}^{N-1} prod_{l=1}^{n} 4 sinh(xi (N-l)/(2N)) sinh(xi (N+l)/(2N)),
    each factor written as 2 cosh(xi) - 2 cosh(xi l/N) and walked in
    integer arithmetic (_fig8_walk); no normalizing denominator, so roots of
    unity need no special casing.  The factor difference cancels about
    log2 N bits as l approaches N, hence 2 bitlen(N) + 16 guard bits; a sum
    that cancels more than _MAX_LOST_BITS raises CancellationLimit.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    with precision.workdps():
        xi = to_mpc(xi)
        guard = 2 * N.bit_length() + 16
        return _guarded_walk(lambda bits: _fig8_walk(N, xi, bits), mp.prec, guard, N)


@dataclass(frozen=True)
class SpeculationRow:
    N: int
    jones: mpc
    lhs_bracket: mpc
    residual: mpf
    vs_alexander_limit: mpf


@dataclass(frozen=True)
class SpeculationTable:
    """Descriptive output of the figure-eight limit harness."""

    xi: mpc
    target: mpc
    rows: tuple
    growth_rate: mpc          # estimated H/xi (modulo 2 pi i, enough at integer N)
    growth_uncertainty: float
    sign_choice: int
    nu_replaced_residual: mpf  # residual of the last row with nu set to 1


def _growth_rate_estimate(xi, ns, precision) -> tuple[mpc, float]:
    """Estimate H/xi from unit-step ratios of the cyclotomic sum.

    log(J_{N+1}/J_N) - (1/2) log((N+1)/N) equals H/xi up to O(1/N^2) terms
    (and modulo 2 pi i, which integer N cannot see); a least-squares fit in
    1/N^2 and 1/N^3 extrapolates the sequence.
    """
    samples = []
    for n in ns:
        j0 = jones_fig8(n, xi, precision)
        j1 = jones_fig8(n + 1, xi, precision)
        if j0 == 0 or j1 == 0:
            raise ExtrapolationUnstable("cyclotomic sum vanished; cannot form ratios")
        samples.append(log(j1 / j0) - log(mpf(n + 1) / n) / 2)
    if any(not mp.isfinite(s) for s in samples):
        raise ExtrapolationUnstable("non-finite growth-rate samples")
    rows = mp.matrix([[1, mpf(1) / n**2, mpf(1) / n**3] for n in ns])
    rhs = mp.matrix(samples)
    if rows.rows >= rows.cols:
        coeffs, _ = mp.qr_solve(rows, rhs)
    else:
        # two N values: the minimum-norm solution rows^T (rows rows^T)^-1 rhs
        coeffs = rows.T * mp.lu_solve(rows * rows.T, rhs)
    misfit = max(fabs(v) for v in rows * coeffs - rhs)
    uncertainty = misfit + fabs(coeffs[1]) / min(ns) ** 2 / 100
    return to_mpc(coeffs[0]), float(uncertainty)


def speculation_residual(
    xi, n_list, precision: Precision = DEFAULT_PRECISION
) -> SpeculationTable:
    """Tabulate the conjectural bracket against 2 sinh(xi/2)/Delta(e^xi).

    The meridian parameter of the relevant representation is m = e^xi; the
    sign of the meridian-torsion square root is chosen to minimize the last
    row's residual and reported.  Purely descriptive: no convergence claim
    is made, and rows also track |J_N - 1/Delta(e^xi)| for the small-|xi|
    regime where that is the meaningful limit.
    """
    ns = sorted(set(int(n) for n in n_list))
    if len(ns) < 2:
        raise ValueError("need at least two N values")
    if any(n < 2 for n in ns):
        raise ValueError("N values must be at least 2")
    with precision.workdps():
        xi = to_mpc(xi)
        target = 2 * sinh(xi / 2) / alexander_fig8(exp(xi), precision)
        inv_delta = 1 / alexander_fig8(exp(xi), precision)
        rate, uncertainty = _growth_rate_estimate(xi, ns, precision)
        param = meridian_param(exp(xi), precision)

        jones_values = {n: jones_fig8(n, xi, precision) for n in ns}

        def bracket(n, sign, nu_value):
            amp = sqrt(-pi) * exp(rate * n) * sqrt(mpf(n) / xi)
            amp *= sqrt(torsion_mu_fig8(param, 1, precision)) * sign
            return jones_values[n] * 2 * sinh(xi / 2) / nu_value - amp

        def nu_of(n):
            _, nu = unknot_bracket(n, xi, precision)
            return nu

        last = ns[-1]
        sign_choice = 1
        best = None
        for sign in (1, -1):
            resid = fabs(bracket(last, sign, nu_of(last)) - target)
            if best is None or resid < best:
                best = resid
                sign_choice = sign

        rows = []
        for n in ns:
            lhs = bracket(n, sign_choice, nu_of(n))
            rows.append(
                SpeculationRow(
                    N=n,
                    jones=jones_values[n],
                    lhs_bracket=lhs,
                    residual=fabs(lhs - target),
                    vs_alexander_limit=fabs(jones_values[n] - inv_delta),
                )
            )
        nu_one = fabs(bracket(last, sign_choice, mpc(1)) - target)
        return SpeculationTable(
            xi=xi,
            target=target,
            rows=tuple(rows),
            growth_rate=rate,
            growth_uncertainty=uncertainty,
            sign_choice=sign_choice,
            nu_replaced_residual=nu_one,
        )
