import random

import pytest
from mpmath import exp, fabs, mp, mpc, mpf, pi, sinh, sqrt

from torusasym import (
    Precision,
    a_polynomial_residual,
    alexander_fig8,
    dell_dm,
    dv_du_fig8,
    jones_fig8,
    longitude_eigenvalue,
    meridian_param,
    speculation_residual,
    torsion_lambda_fig8,
    torsion_mu_fig8,
    unknot_bracket,
)
from conftest import assert_close

P = Precision(30, 1e-12)


def sample_points(count=20, radius="1.3", seed=5):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        theta = rng.uniform(0.1, 2 * 3.14159)
        pts.append(mpf(radius) * exp(mpc(0, theta)))
    return pts


class TestLongitudeEigenvalue:
    def test_at_one(self):
        val = longitude_eigenvalue(meridian_param(1, P), 1, P)
        assert_close(val, -1)

    def test_on_curve(self):
        for m in sample_points():
            param = meridian_param(m, P)
            l = longitude_eigenvalue(param, 1, P)
            assert fabs(a_polynomial_residual(m, l, P)) < mpf("1e-12")

    def test_two_branches_multiply_to_one(self):
        for m in sample_points(8, seed=9):
            param = meridian_param(m, P)
            l_plus = longitude_eigenvalue(param, 1, P)
            l_minus = longitude_eigenvalue(param, -1, P)
            assert_close(l_plus * l_minus, 1, rel=mpf("1e-22"))


class TestAPolynomial:
    def test_on_curve_point(self):
        assert fabs(a_polynomial_residual(1, -1, P)) < mpf("1e-25")

    def test_off_curve_control(self):
        assert_close(a_polynomial_residual(1, 1, P), 4)


class TestTorsion:
    def test_lambda_at_one(self):
        param = meridian_param(1, P)
        val = torsion_lambda_fig8(param, P)
        assert_close(val, mpf(1) / 3)
        # cross-check through the trace form: Tr = l + 1/l = -2, sqrt(17-8) = 3
        l = longitude_eigenvalue(param, 1, P)
        assert_close(1 / sqrt(17 + 4 * (l + 1 / l)), mpf(1) / 3)

    def test_lambda_at_two(self):
        assert_close(torsion_lambda_fig8(meridian_param(2, P), P), mpf(1) / 4)

    def test_trace_identity(self):
        # (2m + 2/m - 1)^2 = 17 + 4 (l + 1/l) on the curve
        for m in sample_points(20, seed=13):
            param = meridian_param(m, P)
            l = longitude_eigenvalue(param, 1, P)
            lhs = (2 * m + 2 / m - 1) ** 2
            assert_close(lhs, 17 + 4 * (l + 1 / l), rel=mpf("1e-20"))

    def test_mu_at_one(self):
        val = torsion_mu_fig8(meridian_param(1, P), 1, P)
        assert_close(fabs(val), 2 / sqrt(mpf(3)))
        # disc = (3)(-1) = -3, principal sqrt = i sqrt(3): value is -2i/sqrt(3)
        assert_close(val, mpc(0, -2) / sqrt(mpf(3)), rel=mpf("1e-22"))

    def test_mu_consistent_with_base_change(self):
        # mu torsion = +- (dv/du) * lambda torsion
        for m in sample_points(20, seed=17):
            param = meridian_param(m, P)
            lhs = torsion_mu_fig8(param, 1, P)
            rhs = dv_du_fig8(param, 1, P) * torsion_lambda_fig8(param, P)
            assert min(fabs(lhs - rhs), fabs(lhs + rhs)) < mpf("1e-10") * fabs(lhs)

    def test_dell_dm_vs_finite_difference(self):
        param = meridian_param(mpf("1.5"), P)
        got = dell_dm(param, P)
        with P.workdps():
            h = mpf("1e-8")
            lp = longitude_eigenvalue(meridian_param(mpf("1.5") + h, P), 1, P)
            lm = longitude_eigenvalue(meridian_param(mpf("1.5") - h, P), 1, P)
            fd = (lp - lm) / (2 * h)
        assert fabs(got - fd) < mpf("1e-8") * fabs(got)


class TestJonesFig8:
    def test_color_one(self):
        assert_close(jones_fig8(1, mpf("0.7"), P), 1)

    def test_color_two_polynomial(self):
        # J_2 = q^2 + q^-2 - q - q^-1 + 1 (amphichiral, so no mirror choice)
        for xi in (mpf("0.8"), mpc("0.3", "1.1")):
            q = exp(xi / 2)
            want = q**2 + q**-2 - q - q**-1 + 1
            assert_close(jones_fig8(2, xi, P), want, rel=mpf("1e-22"))

    def test_volume_growth_at_root_of_unity(self):
        # |J_N(e^(2 pi i/N))| ~ e^(N vol/(2 pi)); check the rate over a
        # doubling against the hyperbolic volume 2.029883...
        from mpmath import log

        v200 = jones_fig8(200, 2 * pi * mpc(0, 1), P)
        v400 = jones_fig8(400, 2 * pi * mpc(0, 1), P)
        rate = (log(fabs(v400)) - log(fabs(v200))) / 200
        assert fabs(rate - mpf("2.029883") / (2 * pi)) < mpf("0.01")


def direct_product_sum(N, xi, dps=60):
    """The figure-eight sum with two sinh calls per factor, at dps digits."""
    with mp.workdps(dps):
        total = running = mpc(1)
        for l in range(1, N):
            running *= 4 * sinh(xi * (N - l) / (2 * N)) * sinh(xi * (N + l) / (2 * N))
            total += running
        return total


class TestJonesFig8Walk:
    @pytest.mark.parametrize("N", [2, 200, 3000])
    @pytest.mark.parametrize("xi", [mpf(0.9), 2 * pi * mpc(0, 1)], ids=["real", "2pii"])
    def test_matches_direct_product(self, N, xi):
        assert_close(jones_fig8(N, xi, P), direct_product_sum(N, xi), rel=mpf("1e-28"))


class TestSpeculationHarness:
    def test_alexander_normalization(self):
        assert_close(alexander_fig8(1, P), 1)

    def test_small_real_xi_tracks_inverse_alexander(self):
        table = speculation_residual(mpf("0.5"), [50, 100, 200], P)
        errs = [row.vs_alexander_limit for row in table.rows]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        with P.workdps():
            target = 1 / alexander_fig8(exp(mpf("0.5")), P)
        assert fabs(table.rows[-1].jones - target) < mpf("1e-2")

    def test_near_root_of_unity_table_shape(self):
        xi = 2 * pi * mpc(0, 1) + mpf("0.1")
        table = speculation_residual(xi, [40, 80, 160], P)
        assert len(table.rows) == 3
        assert table.sign_choice in (1, -1)
        assert table.growth_uncertainty >= 0
        for row in table.rows:
            assert mp.isfinite(row.lhs_bracket)
            assert mp.isfinite(row.residual)
        # descriptive only: print the trend for the record
        print("speculation residuals:", [mp.nstr(r.residual, 5) for r in table.rows])

    def test_nu_sensitivity_reported(self):
        xi = 2 * pi * mpc(0, 1) + mpf("0.1")
        table = speculation_residual(xi, [40, 80], P)
        assert mp.isfinite(table.nu_replaced_residual)

    def test_rejects_short_lists(self):
        with pytest.raises(ValueError):
            speculation_residual(mpf("0.5"), [100], P)
