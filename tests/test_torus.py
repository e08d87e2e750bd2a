import pytest
import sympy
from hypothesis import given, settings, strategies as st
from mpmath import exp, factorial, fabs, mp, mpc, mpf, pi, sinh

from torusasym import (
    PoleHit,
    Precision,
    TorusKnot,
    alexander,
    laurent_coefficients,
    pole_indices,
    tau,
    tau_even_derivatives,
    ztau_even_derivatives,
)
from torusasym.torus import _tau_derivatives, _tau_raw
from conftest import assert_close

P = Precision(30, 1e-12)

KNOT_POOL = [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 5), TorusKnot(3, 7), TorusKnot(4, 5)]


class TestTorusKnot:
    def test_valid(self):
        k = TorusKnot(2, 3)
        assert k.ab == 6

    @pytest.mark.parametrize("a,b", [(2, 4), (3, 9), (1, 3), (2, 1), (6, 3)])
    def test_invalid(self, a, b):
        with pytest.raises(ValueError):
            TorusKnot(a, b)


def sympy_alexander(knot: TorusKnot):
    """Independent symbolic oracle: the quotient formula reduced to a Laurent polynomial."""
    s = sympy.symbols("s")
    a, b, ab = knot.a, knot.b, knot.ab
    expr = ((s**ab - s**-ab) * (s - 1 / s)) / ((s**a - s**-a) * (s**b - s**-b))
    return sympy.cancel(sympy.together(expr)), s


class TestAlexander:
    def test_at_one(self):
        assert_close(alexander(TorusKnot(2, 3), 1, P), 1)

    def test_symmetry(self):
        t = mpc("1.7", "0.3")
        knot = TorusKnot(2, 3)
        assert_close(alexander(knot, t, P), alexander(knot, 1 / t, P))

    def test_trefoil_at_two(self):
        # closed form for (2,3) is t - 1 + 1/t
        assert_close(alexander(TorusKnot(2, 3), 2, P), mpf("1.5"))

    @pytest.mark.parametrize("knot", [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 5)])
    def test_against_symbolic_oracle(self, knot):
        poly, s = sympy_alexander(knot)
        for t_val in (mpf("1.37"), mpc("0.8", "0.45"), mpc("-1.2", "0.7")):
            with P.workdps():
                s_val = exp(mp.log(t_val) / 2)
                want = complex(poly.subs(s, complex(s_val)))
                got = alexander(knot, t_val, P)
                assert_close(got, mpc(want), rel=mpf("1e-12"))

    def test_removable_at_root_of_unity(self):
        # t = exp(2 pi i / 3) kills sinh(bz) for (2,3); value must still be finite
        knot = TorusKnot(2, 3)
        with P.workdps():
            t = exp(2 * pi * mpc(0, 1) / 3)
            val = alexander(knot, t, P)
        # closed form t - 1 + 1/t at a primitive cube root: (-1/2) - 1 + (-1/2) = -2
        assert_close(val, -2, rel=mpf("1e-20"))


class TestTau:
    def test_zero_limit(self):
        v = tau(TorusKnot(2, 3), mpf("1e-9"), P)
        assert fabs(v) < mpf("1e-8")

    def test_defining_identity(self):
        knot = TorusKnot(2, 3)
        z = mpf("0.4")
        with P.workdps():
            want = 2 * sinh(z) / alexander(knot, exp(2 * z), P)
        assert_close(tau(knot, z, P), want, rel=mpf("1e-25"))

    def test_pole_hit(self):
        with pytest.raises(PoleHit):
            tau(TorusKnot(2, 3), pi * mpc(0, 1) / 6, P)

    def test_removable_point_value(self):
        # z = pi i/2 is a kernel zero with 3 | k for (2,3); the limit is -2i/3
        with P.workdps():
            z0 = pi * mpc(0, 1) / 2
            val = tau(TorusKnot(2, 3), z0, P)
            near = tau(TorusKnot(2, 3), z0 + mpf("1e-9"), P)
        assert_close(val, mpc(0, mpf(-2) / 3), rel=mpf("1e-20"))
        assert fabs(val - near) < mpf("1e-7")

    @pytest.mark.parametrize("knot", [TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 5)])
    def test_removable_values_against_high_precision(self, knot):
        # on and next to every removable zero up to 2 pi i, to the guard digits
        a, b, ab = knot.a, knot.b, knot.ab
        for m in range(1, 2 * ab + 1):
            if knot.is_pole_index(m):
                continue
            for offset in (0, mpf("1e-25"), mpc("3e-21", "-2e-22")):
                with P.workdps():
                    z = mpc(0, m) * pi / ab + offset
                got = tau(knot, z, P)
                # z is rounded, so it is never an exact zero: 200 digits see it
                with mp.workdps(200):
                    want = 2 * sinh(a * z) * sinh(b * z) / sinh(ab * z)
                    assert fabs(got - want) < mpf("1e-37") * max(fabs(want), 1)

    @pytest.mark.parametrize("knot", [TorusKnot(2, 3), TorusKnot(3, 5)])
    def test_identity_on_grid(self, knot):
        # 100-point grid in [-1,1] x [0,1]i, off the imaginary axis
        with P.workdps():
            worst = mpf(0)
            for ix in range(10):
                for iy in range(10):
                    z = mpc(-1 + (2 * ix + 1) / mpf(10), iy / mpf(10))
                    lhs = tau(knot, z, P)
                    rhs = 2 * sinh(z) / alexander(knot, exp(2 * z), P)
                    worst = max(worst, fabs(lhs - rhs) / fabs(rhs))
            assert worst < mpf("1e-12")

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=1.5),
        y=st.floats(min_value=-1.5, max_value=1.5),
        flip=st.booleans(),
    )
    def test_oddness(self, x, y, flip):
        knot = TorusKnot(2, 3) if flip else TorusKnot(3, 5)
        z = mpc(x, y)
        assert_close(tau(knot, -z, P), -tau(knot, z, P), rel=mpf("1e-24"))

    @pytest.mark.parametrize("knot", [TorusKnot(2, 3), TorusKnot(3, 5)])
    def test_half_period_sign(self, knot):
        # tau(z + pi i) = (-1)^(a+b+ab) tau(z); with b odd the sign is always -1
        sign = (-1) ** (knot.a + knot.b + knot.ab)
        assert sign == -1
        with P.workdps():
            for j in range(20):
                z = mpc(mpf("0.11") + j * mpf("0.07"), mpf("-0.4") + j * mpf("0.04"))
                assert_close(
                    tau(knot, z + pi * mpc(0, 1), P), sign * tau(knot, z, P), rel=mpf("1e-24")
                )


class TestPoleIndices:
    @pytest.mark.parametrize(
        "knot,k_max,expected",
        [
            (TorusKnot(2, 3), 6, [1, 5]),
            (TorusKnot(2, 3), 12, [1, 5, 7, 11]),
            (TorusKnot(3, 5), 5, [1, 2, 4]),
            (TorusKnot(2, 3), 0, []),
            (TorusKnot(3, 5), -1, []),
        ],
    )
    def test_examples(self, knot, k_max, expected):
        assert pole_indices(knot, k_max) == expected

    @settings(max_examples=60, deadline=None)
    @given(knot=st.sampled_from(KNOT_POOL), k_max=st.integers(min_value=1, max_value=300))
    def test_inclusion_exclusion_count(self, knot, k_max):
        got = pole_indices(knot, k_max)
        a, b, ab = knot.a, knot.b, knot.ab
        assert len(got) == k_max - k_max // a - k_max // b + k_max // ab
        assert got == sorted(set(got))


class TestDerivativeLadders:
    def test_odd_function_at_zero(self):
        vals = tau_even_derivatives(TorusKnot(2, 3), 0, 1, P)
        assert fabs(vals[0]) < mpf("1e-25")
        assert fabs(vals[1]) < mpf("1e-25")

    def test_order_zero_is_tau(self):
        knot = TorusKnot(2, 3)
        (v,) = tau_even_derivatives(knot, mpf("0.5"), 0, P)
        assert_close(v, tau(knot, mpf("0.5"), P))

    def test_second_derivative_vs_finite_difference(self):
        knot = TorusKnot(2, 3)
        vals = tau_even_derivatives(knot, mpf("0.5"), 1, P)
        with P.workdps():
            h = mpf("1e-4")
            z = mpf("0.5")
            fd = (tau(knot, z + h, P) - 2 * tau(knot, z, P) + tau(knot, z - h, P)) / (h * h)
        assert_close(vals[1], fd, rel=mpf("1e-6"))

    def test_pole_hit(self):
        with pytest.raises(PoleHit):
            tau_even_derivatives(TorusKnot(2, 3), pi * mpc(0, 1) / 6, 1, P)

    def test_ztau_zeroth_and_first(self):
        for knot in (TorusKnot(2, 3), TorusKnot(3, 5)):
            vals = ztau_even_derivatives(knot, 1, P)
            assert fabs(vals[0]) < mpf("1e-25")
            assert_close(vals[1], 4)  # z*tau ~ 2 z^2

    def test_ztau_against_symbolic_series(self):
        # sympy oracle: (2l)-th derivative = (2l)! * series coefficient of z^(2l)
        z = sympy.symbols("z")
        series = sympy.series(
            2 * z * sympy.sinh(2 * z) * sympy.sinh(3 * z) / sympy.sinh(6 * z), z, 0, 10
        ).removeO()
        vals = ztau_even_derivatives(TorusKnot(2, 3), 3, P)
        for l in range(4):
            exact = sympy.Rational(sympy.factorial(2 * l) * series.coeff(z, 2 * l))
            want = mpf(exact.p) / mpf(exact.q)
            assert_close(vals[l], want, rel=mpf("1e-20"), abs_tol=mpf("1e-20"))

    def test_ztau_fourth_vs_finite_difference(self):
        knot = TorusKnot(2, 3)
        vals = ztau_even_derivatives(knot, 2, P)
        with P.workdps():
            h = mpf("2e-4")
            g = lambda w: w * tau(knot, w, P) if w != 0 else mpc(0)
            fd = (
                g(2 * h) - 4 * g(h) + 6 * g(mpf(0)) - 4 * g(-h) + g(-2 * h)
            ) / h**4
        assert_close(vals[2], fd, rel=mpf("1e-5"))

    # (knot, m): removable and genuine-pole zeros m pi i/(ab) of sinh(ab z)
    @pytest.mark.parametrize(
        "knot,m",
        [
            (TorusKnot(2, 3), 2), (TorusKnot(2, 3), 1), (TorusKnot(2, 5), 5), (TorusKnot(2, 5), 3),
            (TorusKnot(3, 5), 6), (TorusKnot(3, 5), 7), (TorusKnot(3, 7), 0), (TorusKnot(3, 7), 4),
        ],
    )
    def test_near_kernel_zero_against_high_precision(self, knot, m):
        # offsets down to 1e-19; next to a genuine pole they stop short of
        # the pole tolerance, 10^-15 pi/(ab)
        a, b, ab = knot.a, knot.b, knot.ab
        f = lambda z: 2 * sinh(a * z) * sinh(b * z) / sinh(ab * z)
        for e in (1, 4, 7, 10, 13, 16, 19):
            if knot.is_pole_index(m) and e > 13:
                continue
            with P.workdps():
                z0 = mpc(0, m) * pi / ab + mpc(3, 4) / 5 * mpf(10) ** -e
            got = tau_even_derivatives(knot, z0, 4, P)
            with mp.workdps(160):
                want = [mp.diff(f, z0, 2 * j) for j in range(5)]
            for g, w in zip(got, want):
                assert_close(g, w, rel=mpf("1e-30"), abs_tol=mpf(0))

    @pytest.mark.parametrize("knot,k", [(TorusKnot(2, 3), 1), (TorusKnot(3, 5), 7)])
    def test_regular_part_at_pole_against_circle_quadrature(self, knot, k):
        # the pole-case ladder: tau less k's principal part, from a 50-digit
        # circle quadrature inside the pole spacing
        fine = Precision(50, 1e-40)
        with fine.workdps():
            pole = mpc(0, k) * pi / knot.ab
            orders = [0, 2, 4, 6]
            coeffs = laurent_coefficients(
                lambda z: _tau_raw(knot, z, fine), pole, pi / (2 * knot.ab), orders, fine
            )
            want = [factorial(n) * c for n, c in zip(orders, coeffs)]
        with P.workdps():
            got = _tau_derivatives(knot, mpc(0, k) * pi / knot.ab, 7)[::2]
        for g, w in zip(got, want):
            assert_close(g, w, rel=mpf("1e-30"))
