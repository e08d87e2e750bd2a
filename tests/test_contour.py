import pytest
from mpmath import arg, exp, factorial, fabs, im, mp, mpc, mpf, pi, re, sqrt, tan

from torusasym import (
    EvalPoint,
    LineContour,
    NonDecayingIntegrand,
    Precision,
    TorusKnot,
    integrate_line,
    jones_integral,
    jones_sum,
    laurent_coefficients,
    tau,
)
from torusasym.jones import _contour_angle
from conftest import assert_close

P = Precision(30, 1e-12)
K23 = TorusKnot(2, 3)


def tau23(z):
    return tau(K23, z, P)


def counting(f):
    """f together with a list whose length is the number of calls made."""
    calls = []

    def wrapped(z):
        calls.append(z)
        return f(z)

    return wrapped, calls


class TestIntegrateLine:
    def test_gaussian_real_line(self):
        val = integrate_line(lambda z: exp(-z * z), LineContour(0, 0.0, 8.0), P)
        assert_close(val, sqrt(pi), rel=mpf("1e-12"))

    def test_odd_integrand_vanishes(self):
        val = integrate_line(lambda z: z * exp(-z * z), LineContour(0, 0.0, 8.0), P)
        assert fabs(val) < mpf("1e-20")

    @pytest.mark.parametrize("c", [mpc(1), mpc(2, 1), mpc("0.5", "-0.3")])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_gaussian_moments(self, c, m):
        # oracle: int e^{-c z^2} z^{2m} dz = sqrt(pi/c) (2m-1)!! / (2c)^m for Re c > 0
        val = integrate_line(lambda z: exp(-c * z * z) * z ** (2 * m), LineContour(0, 0.0, 14.0), P)
        expected = sqrt(pi / c) * mp.fac2(2 * m - 1) / (2 * c) ** m
        assert_close(val, expected, rel=P.rel_tol * 10)

    def test_tilted_line(self):
        # rotating the contour does not change an entire Gaussian integral
        val = integrate_line(lambda z: exp(-z * z), LineContour(0, 0.3, 9.0), P)
        assert_close(val, sqrt(pi), rel=mpf("1e-12"))

    def test_node_count_independence(self):
        f = lambda z: exp(-2 * z * z) * (1 + z * z)
        a = integrate_line(f, LineContour(0, 0.0, 8.0), P, min_panels=4)
        b = integrate_line(f, LineContour(0, 0.0, 8.0), P, min_panels=16)
        assert_close(a, b, rel=P.rel_tol * 4)

    def test_non_decaying_integrand(self):
        with pytest.raises(NonDecayingIntegrand):
            integrate_line(lambda z: 1 / (1 + z * z), LineContour(0, 0.0, 2.0), P)

    def test_deterministic(self):
        f = lambda z: exp(-z * z) * exp(mpc(0, 3) * z)
        a = integrate_line(f, LineContour(0, 0.1, 8.0), P)
        b = integrate_line(f, LineContour(0, 0.1, 8.0), P)
        assert a == b

    @pytest.mark.parametrize(
        "half_length,min_panels,scans,intervals",
        [
            (8.0, 8, 1, 128),  # the 65-sample scan is level 0; level 1 agrees
            (8.0, 64, 1, 256),  # no level below 4 * 64 intervals is accepted
            (2.0, 8, 3, 128),  # two failed tail scans, then as above
        ],
    )
    def test_every_sample_evaluated_once(self, half_length, min_panels, scans, intervals):
        # a tail scan costs 65 calls; the accepted level of `intervals`
        # intervals adds only its intervals - 64 nodes beyond the final scan
        f, calls = counting(lambda z: exp(-z * z))
        val = integrate_line(f, LineContour(0, 0.0, half_length), P, min_panels=min_panels)
        assert_close(val, sqrt(pi), rel=mpf("1e-12"))
        assert len(calls) == 65 * scans + intervals - 64
        assert len(set(calls[-(intervals + 1):])) == intervals + 1


def _xi_at_pole_gap(knot, k, theta):
    """xi = r e^{i theta} whose saddle line through xi/2 at angle theta/2 crosses
    the imaginary axis just outside the pi/(4ab) gap above the pole k pi i/(ab).

    That line meets the axis at |xi| tan(theta/2)/2; the factor 1 + 1e-9 keeps
    the crossing on the admissible side of the gap after rounding.
    """
    crossing = (k * pi / knot.ab + pi / (4 * knot.ab)) * (1 + mpf("1e-9"))
    return complex(2 * crossing / tan(theta / 2) * exp(mpc(0, theta)))


class TestJonesIntegralAccuracy:
    """The trapezoid line rule inside jones_integral against a 60-digit sum."""

    @pytest.mark.parametrize(
        "pair,xi,N",
        [
            ((2, 3), _xi_at_pole_gap(K23, 1, pi / 2), 12),
            ((2, 3), _xi_at_pole_gap(K23, 1, 2 * pi / 3), 12),  # Re xi < 0
            ((2, 3), complex(-0.5, 3), 16),
            ((3, 5), complex(-0.35, 2.7), 12),
            ((2, 5), complex(1.1, 2.3), 24),
        ],
    )
    def test_matches_high_precision_sum(self, pair, xi, N):
        knot = TorusKnot(*pair)
        tight = Precision(30, 1e-12)
        value = jones_integral(knot, EvalPoint(xi=xi, N=N), tight)
        reference = jones_sum(knot, N, xi, Precision(60, 1e-30))
        assert_close(value, reference, rel=tight.rel_tol, abs_tol=mpf(0))

    @pytest.mark.parametrize("theta", [pi / 2, 2 * pi / 3])
    def test_gap_case_is_the_narrowest_strip(self, theta):
        # the contour keeps its unnudged angle and the saddle line crosses
        # the axis at the minimum distance pi/(4ab) from the pole pi i/6
        xi = mpc(_xi_at_pole_gap(K23, 1, theta))
        phi = _contour_angle(K23, xi)
        assert phi == arg(xi) / 2
        crossing = (im(xi) - re(xi) * tan(phi)) / 2
        gap = pi / (4 * K23.ab)
        assert gap <= crossing - pi / 6 < gap * (1 + mpf("1e-8"))


def cauchy_derivatives(f, z0, radius, orders, precision):
    """f^(n)(z0) for each n in orders: n! times the Laurent coefficient."""
    coeffs = laurent_coefficients(f, z0, radius, orders, precision)
    return [factorial(n) * c for n, c in zip(orders, coeffs)]


class TestCauchyDerivatives:
    def test_exp_derivatives(self):
        vals = cauchy_derivatives(exp, 0, 1.0, [0, 1, 2], P)
        for v in vals:
            assert_close(v, 1)

    def test_exp_derivatives_reuse_samples(self):
        # the 32 nodes of the first level are kept when 64 nodes confirm them
        f, calls = counting(exp)
        vals = cauchy_derivatives(f, 0, 1.0, [0, 1, 2, 3, 4], P)
        for v in vals:
            assert_close(v, 1, rel=mpf("1e-25"))
        assert len(calls) == 64
        assert len(set(calls)) == 64

    def test_tau_first_derivative_at_zero(self):
        # tau(z) = 2z + O(z^3), so tau'(0) = 2
        (d1,) = cauchy_derivatives(tau23, 0, 0.25, [1], P)
        assert_close(d1, 2)

    def test_tau_even_orders_vanish_at_zero(self):
        # all even derivatives of the odd kernel vanish at the origin
        d0, d2, d4 = cauchy_derivatives(tau23, 0, 0.25, [0, 2, 4], P)
        assert fabs(d0) < mpf("1e-25")
        assert fabs(d2) < mpf("1e-25")
        assert fabs(d4) < mpf("1e-22")

    @pytest.mark.parametrize("order", [1, 2])
    def test_against_central_finite_differences(self, order):
        f = lambda z: exp(z) * mp.cos(z)
        (val,) = cauchy_derivatives(f, mpf("0.3"), 0.5, [order], P)
        h = mpf("1e-4")
        x = mpf("0.3")
        if order == 1:
            fd = (f(x + h) - f(x - h)) / (2 * h)
        else:
            fd = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        assert_close(val, fd, rel=mpf("1e-6"))


class TestLaurent:
    def test_simple_pole_plus_constant(self):
        res, const = laurent_coefficients(lambda z: 1 / z + 5, 0, 0.5, [-1, 0], P)
        assert_close(res, 1)
        assert_close(const, 5)

    def test_tau_residue_at_first_pole(self):
        # residue of tau at k pi i/(ab) is (-1)^(k+1) 2 sin(k pi/a) sin(k pi/b)/(ab):
        # sine in both factors, fixed numerically below by an independent limit
        z0 = pi * mpc(0, 1) / 6
        res, _ = laurent_coefficients(tau23, z0, pi / 12, [-1, 0], P)
        assert_close(res, sqrt(mpf(3)) / 6, rel=mpf("1e-15"))

    def test_tau_residue_at_k5(self):
        z0 = 5 * pi * mpc(0, 1) / 6
        res, _ = laurent_coefficients(tau23, z0, pi / 12, [-1, 0], P)
        assert_close(res, -sqrt(mpf(3)) / 6, rel=mpf("1e-15"))

    def test_residue_matches_richardson_limit(self):
        # lim (z - z0) tau(z), approached from 4 directions and extrapolated
        z0 = pi * mpc(0, 1) / 6
        res, _ = laurent_coefficients(tau23, z0, pi / 12, [-1, 0], P)
        with P.workdps():
            for h in (mpf("1e-6"), mpf("1e-7")):
                approaches = [
                    d * tau23(z0 + d) for d in (h, -h, mpc(0, 1) * h, -mpc(0, 1) * h)
                ]
                limit = sum(approaches) / 4
                assert fabs(limit - res) < mpf("1e-8")

    def test_general_orders_include_residue(self):
        vals = laurent_coefficients(lambda z: 2 / z + 3 + 7 * z, 0, 0.5, [-1, 0, 1], P)
        assert_close(vals[0], 2)
        assert_close(vals[1], 3)
        assert_close(vals[2], 7)
