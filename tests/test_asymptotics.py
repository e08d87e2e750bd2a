import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import exp, fabs, log, mp, mpc, mpf, pi, re, sqrt

from torusasym import (
    A,
    CASE_NOT_POLE_NONPOS_RE,
    CASE_NOT_POLE_POS_RE,
    CASE_POLE,
    CASE_ROOT_OF_UNITY,
    CaseUndefined,
    ExpansionSpec,
    InvalidXi,
    Precision,
    S,
    T,
    TorusKnot,
    classify_region,
    expand,
    expand_root_of_unity,
)
from conftest import assert_close

P = Precision(30, 1e-12)
K23 = TorusKnot(2, 3)
K35 = TorusKnot(3, 5)


class TestSaddleExponent:
    def test_zero_at_matching_xi(self):
        for k in (1, 2, 7):
            xi = 2 * k * pi * mpc(0, 1) / K23.ab
            assert fabs(S(K23, k, xi, P)) < mpf("1e-30")

    def test_value_at_2pii(self):
        # -(2 pi i - 12 pi i)^2 / 24 = 25 pi^2 / 6
        got = S(K23, 1, 2 * pi * mpc(0, 1), P)
        assert_close(got, 25 * pi * pi / 6)

    def test_zero_at_k_equals_ab(self):
        assert fabs(S(K23, 6, 2 * pi * mpc(0, 1), P)) < mpf("1e-28")

    def test_negation_shift(self):
        # S_{-k} - S_k = -2 k pi i xi, so exp(S N / xi) is k -> -k invariant
        xi = mpc("0.7", "1.3")
        for k in (1, 2, 5):
            diff = S(K23, -k, xi, P) - S(K23, k, xi, P)
            assert_close(diff, -2 * k * pi * mpc(0, 1) * xi)
            n = 7
            ratio = exp(diff * n / xi)
            assert_close(ratio, 1, rel=mpf("1e-24"))


class TestTorsionWeight:
    @pytest.mark.parametrize("k,expected", [(1, 2), (5, 2), (6, 0)])
    def test_trefoil_values(self, k, expected):
        assert_close(T(K23, k, P), expected, abs_tol=mpf("1e-30"))

    def test_vanishes_iff_divisible(self):
        knot = TorusKnot(3, 5)
        for k in range(1, 16):
            w = T(knot, k, P)
            if k % 3 == 0 or k % 5 == 0:
                assert fabs(w) < mpf("1e-28")
            else:
                assert w > mpf("1e-6")


class TestResidueTerm:
    def test_vanishes_at_divisible_k(self):
        assert fabs(A(K23, 6, mpc(1, 1), 10, P)) < mpf("1e-28")

    def test_magnitude_at_2pii(self):
        # |A_1| = sqrt(pi) sqrt(N/|xi|) sqrt(2): pure phase in the exponential
        got = fabs(A(K23, 1, 2 * pi * mpc(0, 1), 10, P))
        want = sqrt(pi) * sqrt(mpf(10) / (2 * pi)) * sqrt(mpf(2))
        assert_close(got, want)
        assert_close(got, sqrt(mpf(10)))

    def test_decay_sign_criterion(self):
        # Re(S_k/xi) = (k^2 pi^2/(ab |xi|^2) - ab/4) Re xi: positive iff
        # Re xi > 0 and k > ab|xi|/(2 pi), or Re xi < 0 and k < ab|xi|/(2 pi)
        rng = random.Random(7)
        with P.workdps():
            for _ in range(50):
                k = rng.randint(1, 12)
                xi = mpc(rng.uniform(-3, 3), rng.uniform(0, 3))
                if fabs(re(xi)) < mpf("0.05"):
                    continue
                val = re(S(K23, k, xi, P) / xi)
                threshold = K23.ab * fabs(xi) / (2 * pi)
                if re(xi) > 0:
                    expected_positive = k > threshold
                else:
                    expected_positive = k < threshold
                assert (val > 0) == expected_positive


class TestExpand:
    def test_positive_re_case(self):
        rep = expand(ExpansionSpec(K23, 1 + 0j, 200, 0), P)
        assert rep.case_tag == CASE_NOT_POLE_POS_RE
        assert rep.exp_terms == ()
        assert rep.residual < mpf("0.002")

    def test_residual_scales_like_next_order(self):
        r100 = expand(ExpansionSpec(K23, 1 + 0j, 100, 0), P).residual
        r400 = expand(ExpansionSpec(K23, 1 + 0j, 400, 0), P).residual
        assert 2.5 < float(r100 / r400) < 6.5  # ~N^{-1}

    def test_correction_additivity(self):
        spec2 = ExpansionSpec(K23, 1 + 2j, 150, 2)
        spec3 = ExpansionSpec(K23, 1 + 2j, 150, 3)
        rep2 = expand(spec2, P)
        rep3 = expand(spec3, P)
        delta = rep3.approximant - rep2.approximant
        assert_close(delta, rep3.prefactor * rep3.corrections[2], rel=mpf("1e-20"))

    def test_nonpositive_re_case_has_oscillatory_terms(self):
        rep = expand(ExpansionSpec(K23, complex(0, 3), 100, 2), P)
        assert rep.case_tag == CASE_NOT_POLE_NONPOS_RE
        # floor(6*3/(2 pi)) = 2, and k = 2 vanishes, so only k = 1 appears
        assert [k for k, _ in rep.exp_terms] == [1]
        assert rep.residual < mpf("1e-6")

    def test_pole_case_structure(self):
        rep = expand(ExpansionSpec(K23, complex(0, float(pi / 3)), 100, 2), P)
        assert rep.case_tag == CASE_POLE
        assert [k for k, _ in rep.exp_terms] == [1]
        # the boundary term carries weight 1/2, sign (+) at M = 1
        full = A(K23, 1, pi * mpc(0, 1) / 3, 100, P)
        assert_close(rep.exp_terms[0][1], full / 2, rel=mpf("1e-18"))
        rep800 = expand(ExpansionSpec(K23, complex(0, float(pi / 3)), 800, 2), P)
        assert rep800.residual < rep.residual

    def test_parts_total_recomposes(self):
        for spec in (
            ExpansionSpec(K23, 1 + 0j, 100, 2),
            ExpansionSpec(K23, complex(0, 3), 100, 1),
            ExpansionSpec(K23, complex(0, float(pi / 3)), 100, 1),
        ):
            rep = expand(spec, P)
            assert_close(rep.prefactor * rep.parts_total(), rep.approximant, rel=mpf("1e-22"))

    def test_pole_case_with_several_residue_terms(self):
        # xi/2 = 7 pi i/15 is the k = 7 pole of T(3,5): the genuine k = 1, 2, 4
        # below it enter with full weight, only the boundary term with half
        xi = complex(0, float(14 * pi / 15))
        reps = [expand(ExpansionSpec(K35, xi, n, 2), P) for n in (100, 200, 400, 800)]
        assert reps[0].case_tag == CASE_POLE
        assert [k for k, _ in reps[0].exp_terms] == [1, 2, 4, 7]
        with P.workdps():
            exact = 14 * pi * mpc(0, 1) / 15
            for k, term in reps[0].exp_terms:
                full = (-1) ** (k + 1) * A(K35, k, exact, 100, P)
                assert_close(term, full / 2 if k == 7 else full, rel=mpf("1e-25"))
        residuals = [rep.residual for rep in reps]
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[-1] < mpf("1e-7")

    @pytest.mark.parametrize(
        "knot,xi,N,J,case",
        [
            (K23, 1 + 2j, 100, 2, CASE_NOT_POLE_POS_RE),
            (K23, complex(-0.3, 0.5), 100, 1, CASE_NOT_POLE_NONPOS_RE),
            (K23, complex(0, 3), 100, 2, CASE_NOT_POLE_NONPOS_RE),
            (K35, complex(0, float(14 * pi / 15)), 100, 2, CASE_POLE),
            (K23, complex(0, float(2 * pi)), 200, 2, CASE_ROOT_OF_UNITY),
        ],
    )
    def test_parts_total_is_the_approximant_exactly(self, knot, xi, N, J, case):
        rep = expand(ExpansionSpec(knot, xi, N, J), P)
        assert rep.case_tag == case
        with P.workdps():
            assert rep.prefactor * rep.parts_total() == rep.approximant

    @pytest.mark.parametrize("dps", [15, 60])
    def test_parts_total_ignores_ambient_precision(self, dps):
        rep = expand(ExpansionSpec(K23, complex(0, 3), 100, 2), P)
        with mp.workdps(dps):
            total = rep.parts_total()
        with P.workdps():
            assert total == rep.parts_total()
            assert rep.prefactor * total == rep.approximant

    def test_case_undefined_at_higher_multiples(self):
        with pytest.raises(CaseUndefined):
            expand(ExpansionSpec(K23, complex(0, float(4 * pi)), 100, 0), P)

    def test_dispatches_to_root_of_unity(self):
        rep = expand(ExpansionSpec(K23, complex(0, float(2 * pi)), 300, 2), P)
        assert rep.case_tag == CASE_ROOT_OF_UNITY


class TestRootOfUnityExpansion:
    def test_term_indices(self):
        rep = expand_root_of_unity(K23, 400, 3, P)
        assert [k for k, _ in rep.exp_terms] == [1, 5]

    def test_residual_small_and_decreasing(self):
        r500 = expand_root_of_unity(K23, 500, 3, P)
        r1000 = expand_root_of_unity(K23, 1000, 3, P)
        assert r500.residual < mpf("1e-2")
        assert r1000.residual < r500.residual

    def test_parts_total_excludes_leading(self):
        rep = expand_root_of_unity(K23, 200, 2, P)
        assert_close(rep.prefactor * rep.parts_total(), rep.approximant, rel=mpf("1e-22"))
        assert_close(sum(t for _, t in rep.exp_terms), rep.leading, rel=mpf("1e-22"))


class TestClassifyRegion:
    @pytest.mark.parametrize(
        "xi,expected",
        [
            (1 + 0j, "converges"),
            (complex(-0.05, 0.1), "converges"),
            (complex(0, 3), "diverges"),
            (complex(0, float(2 * pi / 6)), "boundary_oscillates"),
            (complex(-2, 1), "diverges"),
        ],
    )
    def test_examples(self, xi, expected):
        assert classify_region(K23, xi, P) == expected

    def test_rejects_2pii_multiples(self):
        with pytest.raises(InvalidXi):
            classify_region(K23, complex(0, float(2 * pi)), P)

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.floats(min_value=-4, max_value=4),
        y=st.floats(min_value=0, max_value=4),
    )
    def test_total_and_pure(self, x, y):
        xi = mpc(x, y)
        m = int(mp.nint(y / float(2 * pi)))
        if abs(x) < 1e-6 and abs(y - m * float(2 * pi)) < 1e-6:
            return
        got = classify_region(K23, xi, P)
        assert got in {"converges", "diverges", "boundary_oscillates"}
        # pure function of (sign of Re, |xi| against 2 pi/ab)
        if x > 0:
            assert got == "converges"
        elif fabs(fabs(xi) - 2 * pi / 6) < mpf("1e-12"):
            assert got == "boundary_oscillates"
        elif fabs(xi) < 2 * pi / 6:
            assert got == "converges"
        else:
            assert got == "diverges"


class TestSlopes:
    @pytest.mark.parametrize("order", [0, 1])
    def test_log_residual_slope(self, order):
        ns = [100, 200, 400]
        xs, ys = [], []
        for n in ns:
            rep = expand(ExpansionSpec(K23, 1 + 0j, n, order), P)
            xs.append(float(log(n)))
            ys.append(float(log(rep.residual)))
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert abs(slope + (order + 1)) < 0.1 * (order + 1)
