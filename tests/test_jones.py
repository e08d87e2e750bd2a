import pytest
import sympy
from mpmath import exp, fabs, mp, mpc, mpf, pi, sinh

import torusasym.jones as jones_module
from torusasym import (
    CancellationLimit,
    DegenerateDenominator,
    EvalPoint,
    InvalidXi,
    Precision,
    TorusKnot,
    alexander,
    jones_integral,
    jones_sum,
    jones_sum_oracle,
    unknot_bracket,
)
from conftest import assert_close

P = Precision(30, 1e-12)
K23 = TorusKnot(2, 3)


class TestEvalPoint:
    def test_u(self):
        pt = EvalPoint(xi=1 + 2j, N=5)
        assert_close(pt.u, mpc(1, 2) - 2 * pi * mpc(0, 1), rel=mpf("1e-14"))

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalPoint(xi=1 + 0j, N=0)
        with pytest.raises(ValueError):
            EvalPoint(xi=1 - 2j, N=3)


class TestSumEvaluator:
    @pytest.mark.parametrize("knot", [K23, TorusKnot(2, 5), TorusKnot(3, 5)])
    @pytest.mark.parametrize("xi", [mpf(1), mpc(1, 2)])
    def test_color_one_is_one(self, knot, xi):
        assert_close(jones_sum(knot, 1, xi, P), 1, rel=mpf("1e-25"))

    def test_two_coloring_matches_laurent_polynomial(self):
        # symbolic oracle: the N=2 term exponents are {-5, 0} and {-3, -4},
        # and the quotient by q - 1/q reduces to a Laurent polynomial in q.
        # That polynomial is the package's chirality convention in fixed form.
        q = sympy.symbols("q", positive=True)
        j2 = sympy.cancel((q**-5 + 1 - q**-3 - q**-4) / (q - 1 / q))
        assert sympy.expand(j2 - (q**-1 + q**-3 - q**-4)) == 0
        for xi in (mpf("0.7"), mpc("0.4", "1.3")):
            qv = exp(xi / 2)
            want = qv**-1 + qv**-3 - qv**-4
            assert_close(jones_sum(K23, 2, xi, P), want, rel=mpf("1e-24"))

    def test_oracle_wrapper_uses_principal_log(self):
        got = jones_sum_oracle(K23, 3, exp(mpf(1) / 3), P)
        want = jones_sum(K23, 3, mpf(1), P)
        assert_close(got, want, rel=mpf("1e-24"))

    def test_root_of_unity_limit_is_continuous(self):
        exact = jones_sum(K23, 5, 2 * pi * mpc(0, 1), P)
        nearby = jones_sum(K23, 5, 2 * pi * mpc(0, 1) + mpf("1e-6"), P)
        assert fabs(exact - nearby) / fabs(exact) < mpf("1e-3")

    def test_root_of_unity_growth_is_finite(self):
        v = jones_sum(K23, 200, 2 * pi * mpc(0, 1), P)
        assert mp.isfinite(v)
        assert fabs(v) > 1


def direct_sum(knot, N, xi, dps):
    """J_N term by term, every power of q through exp, at dps digits."""
    a, b, ab = knot.a, knot.b, knot.ab
    with mp.workdps(dps):
        xi = mpc(xi)
        total = mpc(0)
        for t in range(N):
            r = 2 * t - (N - 1)
            common = ab * r * r + ab * (1 - N * N)
            p4, q4 = common + 2 * (a + b) * r + 2, common + 2 * (a - b) * r - 2
            total += exp(xi * p4 / (4 * N)) - exp(xi * q4 / (4 * N))
        return total / (2 * sinh(xi / 2))


class TestSumWalk:
    @pytest.mark.parametrize(
        "N,xi", [(1000, mpc("-0.5", "0.5")), (1600, mpc("-0.3", "0.5"))]
    )
    def test_negative_real_part_against_direct_sum(self, N, xi):
        # the terms reach e^(|Re xi| ab N/4), some 300 digits above the value
        got = jones_sum(K23, N, xi, P)
        assert_close(got, direct_sum(K23, N, xi, 700), rel=mpf("1e-25"))

    def test_negative_real_part_value(self):
        got = jones_sum(K23, 1000, mpc("-0.5", "0.5"), P)
        assert_close(got, mpc("0.8101", "0.4140"), abs_tol=mpf("1e-4"), rel=mpf(0))

    def test_cancellation_past_the_limit_raises(self):
        # about 4330 bits cancel, more than _MAX_LOST_BITS
        with pytest.raises(CancellationLimit):
            jones_sum(K23, 2000, mpc("-1.0", "0.2"), P)

    def test_measured_loss_redone_at_the_needed_bits(self, monkeypatch):
        # the walks at 184, 360 and 712 bits lose everything; the one at 1420
        # measures the true loss, 1334 bits, and the redo carries that loss
        # plus the guard rather than 1420 + 1334 = 2754 bits
        walks = []
        walk = jones_module._sum_walk

        def recording_walk(*args):
            walks.append(args[-1])
            return walk(*args)

        monkeypatch.setattr(jones_module, "_sum_walk", recording_walk)
        knot, xi = TorusKnot(3, 5), mpc("-0.3", "0.5")
        got = jones_sum(knot, 1600, xi, P)
        assert walks[-1] < 2000
        assert_close(got, direct_sum(knot, 1600, xi, 700), rel=mpf("1e-25"))

    def test_tail_cut_needs_few_exponentials(self, monkeypatch):
        calls = []

        def counting_exp(z):
            calls.append(z)
            return exp(z)

        monkeypatch.setattr(jones_module, "exp", counting_exp)
        got = jones_sum(TorusKnot(3, 5), 99944, mpf(1.3862), P)
        assert len(calls) < 100
        # the term-by-term sum of 199 888 exponentials at 38 digits
        assert_close(got, mpf("0.00512429749198264133519493711753459544"), rel=mpf("1e-30"))


class TestIntegralEvaluator:
    @pytest.mark.parametrize("xi", [1 + 1j, 1 + 0j, -0.5 + 3j])
    def test_color_one_is_one(self, xi):
        val = jones_integral(K23, EvalPoint(xi=xi, N=1), P)
        assert_close(val, 1, rel=mpf("1e-10"))

    def test_matches_sum_at_n20(self):
        vi = jones_integral(K23, EvalPoint(xi=1 + 0j, N=20), P)
        vs = jones_sum(K23, 20, 1, P)
        assert fabs(vi - vs) / fabs(vs) < mpf("1e-8")

    def test_matches_oracle_wrapper_at_n3(self):
        vi = jones_integral(K23, EvalPoint(xi=1 + 0j, N=3), P)
        vo = jones_sum_oracle(K23, 3, exp(mpf(1) / 3), P)
        assert fabs(vi - vo) / fabs(vo) < mpf("1e-8")

    def test_near_inverse_alexander_at_n100(self):
        vi = jones_integral(K23, EvalPoint(xi=1 + 0j, N=100), P)
        target = 1 / alexander(K23, exp(mpf(1)), P)
        assert fabs(vi - target) < mpf("1e-2")

    def test_rejects_2pii_multiples(self):
        with pytest.raises(InvalidXi):
            jones_integral(K23, EvalPoint(xi=complex(0, float(2 * pi)), N=10), P)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            jones_integral(K23, EvalPoint(xi=1 + 0j, N=6000), P)

    @pytest.mark.parametrize(
        "knot,n,xi",
        [
            (K23, 9, mpc(1, 2)),
            (TorusKnot(2, 5), 17, mpc("-0.5", 3)),
            (TorusKnot(3, 5), 6, mpf(1)),
        ],
    )
    def test_oracle_agreement_sample(self, knot, n, xi):
        vi = jones_integral(knot, EvalPoint(xi=complex(xi), N=n), P)
        vs = jones_sum(knot, n, xi, P)
        assert fabs(vi - vs) / fabs(vs) < mpf("1e-6")


class TestConvergenceToInverseAlexander:
    def test_decreasing_along_n(self):
        target = 1 / alexander(K23, exp(mpf(1)), P)
        errors = [fabs(jones_sum(K23, n, 1, P) - target) for n in (50, 100, 200, 400)]
        assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))


class TestUnknotBracket:
    def test_color_one(self):
        bracket, _ = unknot_bracket(1, mpc("0.3", "1.1"), P)
        assert_close(bracket, 1, rel=mpf("1e-24"))

    def test_nu_limit(self):
        _, nu = unknot_bracket(10**6, 1, P)
        assert fabs(nu - 1) < mpf("1e-12")

    def test_two_term_expansion(self):
        xi = mpf(1)
        n = 100
        bracket, _ = unknot_bracket(n, xi, P)
        from mpmath import sinh

        approx = 2 * sinh(xi / 2) * n / xi - sinh(xi / 2) / 12 * (xi / n)
        assert fabs(bracket - approx) < mpf("1e-5") * fabs(bracket)

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            unknot_bracket(3, 6 * pi * mpc(0, 1), P)
