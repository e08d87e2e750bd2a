"""Asymptotic expansions of the colored Jones polynomial for large color N.

Off the multiples of 2 pi i every expansion case has the same parts: the
framing prefactor, the even derivative ladder of the torsion kernel tau at
xi/2, and the signed residue terms (-1)^(k+1) A_k of the genuine poles
k pi i/(ab) with k <= k_max.  The three cases differ only in k_max and in
how the ladder is read:

* Re xi > 0: k_max = 0, no residue terms;
* Re xi <= 0: k_max = floor(ab |xi| / (2 pi)), which is 0 inside the
  convergent semicircle |xi| < 2 pi/(ab);
* xi/2 on the genuine pole M pi i/(ab) (the pole case): k_max = M, the
  ladder is that of tau less its principal part there, read from the same
  Taylor series, and the boundary term k = M carries half weight.

A fourth case handles xi = 2 pi i itself, where q is a primitive root of
unity and the leading growth is (N/xi)^(3/2).  All four cases share one
report assembly next to the exact-sum oracle.

Sign conventions, fixed once and validated against the exact sum evaluator:

* sqrt(-pi) and (N/xi)^(1/2) use the principal branch;
* the square root of the torsion weight T_k is taken SIGNED,
  4 sin(k pi/a) sin(k pi/b) / sqrt(ab), which is what the residue calculus
  produces (an unsigned root is off by the sign of the sine product);
* the boundary term of the pole case is weighted (1/2)(-1)^(M+1), matching
  the (-1)^(k+1) alternation of the interior terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from mpmath import exp, fabs, floor, mp, mpc, mpf, pi, re, sin, sinh, sqrt

from .errors import CaseUndefined, InvalidXi
from .precision import DEFAULT_PRECISION, Precision, to_mpc
from .jones import _im_xi_negative, _nearest_2pii_multiple, jones_sum
from .torus import TorusKnot, _framing_exponent, _tau_derivatives, pole_indices
from .torus import tau_even_derivatives, ztau_even_derivatives

# guard for recognizing ab|xi|/(2 pi) as an exact integer / xi as purely imaginary
_BOUNDARY_GUARD = mpf("1e-12")

CASE_NOT_POLE_POS_RE = "not_pole_pos_re"
CASE_NOT_POLE_NONPOS_RE = "not_pole_nonpos_re"
CASE_POLE = "pole_case"
CASE_ROOT_OF_UNITY = "kt_2pii"


def saddle_exponent(
    knot: TorusKnot, k: int, xi, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """S_k(xi) = -(2 k pi i - ab xi)^2 / (4 ab)."""
    with precision.workdps():
        xi = to_mpc(xi)
        z = 2 * k * pi * mpc(0, 1) - knot.ab * xi
        return -(z * z) / (4 * knot.ab)


def torsion_weight(
    knot: TorusKnot, k: int, precision: Precision = DEFAULT_PRECISION
) -> mpf:
    """T_k = 16 sin^2(k pi/a) sin^2(k pi/b) / (ab); zero iff a | k or b | k."""
    if not knot.is_pole_index(k):
        return mpf(0)
    with precision.workdps():
        sa = sin(k * pi / knot.a)
        sb = sin(k * pi / knot.b)
        return 16 * sa * sa * sb * sb / knot.ab


def torsion_weight_sqrt_signed(
    knot: TorusKnot, k: int, precision: Precision = DEFAULT_PRECISION
) -> mpf:
    """Signed square root 4 sin(k pi/a) sin(k pi/b) / sqrt(ab) of T_k.

    Exactly zero on divisible k, where a rounded sine residue would
    otherwise survive multiplication by a large exponential factor.
    """
    if not knot.is_pole_index(k):
        return mpf(0)
    with precision.workdps():
        return 4 * sin(k * pi / knot.a) * sin(k * pi / knot.b) / sqrt(mpf(knot.ab))


def residue_term(
    knot: TorusKnot, k: int, xi, N: int, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """A_k(xi; N) = sqrt(-pi) exp(S_k N/xi) (N/xi)^(1/2) T_k^(1/2), signed root."""
    with precision.workdps():
        xi = to_mpc(xi)
        if xi == 0:
            raise ValueError("xi must be nonzero")
        s = saddle_exponent(knot, k, xi, precision)
        return (
            sqrt(-pi)
            * exp(s * N / xi)
            * sqrt(N / xi)
            * torsion_weight_sqrt_signed(knot, k, precision)
        )


# single-letter aliases matching the classical notation
S = saddle_exponent
T = torsion_weight
A = residue_term


@dataclass(frozen=True)
class ExpansionSpec:
    """What to expand: knot, spectral parameter, color, correction order."""

    knot: TorusKnot
    xi: complex
    N: int
    correction_order: int = 0

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.correction_order < 0:
            raise ValueError("correction_order must be non-negative")
        if _im_xi_negative(self.xi):
            raise ValueError("Im xi must be non-negative")


@dataclass(frozen=True)
class ExpansionReport:
    """Assembled approximant next to the exact-sum oracle.

    approximant = prefactor * parts_total(), the bracket summed as
    (leading + sum of exp_term values) + sum of corrections, except in the
    root-of-unity case where the exp_terms are the per-k pieces of the
    leading sum itself (so leading is left out there).  residual is relative
    while |oracle| > 1e-300, absolute below that.  precision is the contract
    the report was assembled under; parts_total sums at it, whatever the
    ambient mpmath precision.
    """

    case_tag: str
    knot: TorusKnot
    xi: complex
    N: int
    correction_order: int
    prefactor: mpc
    leading: mpc
    exp_terms: tuple = ()
    corrections: tuple = ()
    approximant: mpc = mpc(0)
    oracle: mpc = mpc(0)
    residual: mpf = mpf(0)
    precision: Precision = DEFAULT_PRECISION

    def parts_total(self) -> mpc:
        """The bracket the prefactor multiplies into the approximant."""
        with self.precision.workdps():
            total = sum((t for _, t in self.exp_terms), mpc(0))
            if self.case_tag != CASE_ROOT_OF_UNITY:
                total = self.leading + total
            return total + sum(self.corrections, mpc(0))


def _residual(approximant, oracle) -> mpf:
    if fabs(oracle) > mpf("1e-300"):
        return fabs(approximant - oracle) / fabs(oracle)
    return fabs(approximant - oracle)


def _pole_case_index(knot: TorusKnot, xi) -> int | None:
    """k with xi = 2 k pi i / ab and xi/2 a genuine pole, or None."""
    if fabs(re(xi)) > _BOUNDARY_GUARD * max(1, fabs(xi)):
        return None
    ratio = knot.ab * fabs(xi) / (2 * pi)
    k = int(mp.nint(ratio))
    if k < 1 or fabs(ratio - k) > _BOUNDARY_GUARD or not knot.is_pole_index(k):
        return None
    return k


def _guarded_floor(x) -> int:
    """floor with a snap: values within 1e-12 of an integer floor to it."""
    k = int(mp.nint(x))
    if fabs(x - k) <= _BOUNDARY_GUARD:
        return k
    return int(floor(x))


def _case_prefactor(knot: TorusKnot, xi, N: int) -> mpc:
    """e^((ab - a/b - b/a) xi / (4N)) / (2 sinh(xi/2))."""
    return exp(_framing_exponent(knot, xi, N)) / (2 * sinh(xi / 2))


def _report(oracle_xi, precision: Precision, **parts) -> ExpansionReport:
    """Report of one expansion case from its parts (the ExpansionReport fields
    up to corrections), with the exact sum at oracle_xi as the oracle."""
    report = ExpansionReport(precision=precision, **parts)
    approximant = report.prefactor * report.parts_total()
    oracle = jones_sum(report.knot, report.N, oracle_xi, precision)
    return replace(
        report, approximant=approximant, oracle=oracle, residual=_residual(approximant, oracle)
    )


def expand(spec: ExpansionSpec, precision: Precision = DEFAULT_PRECISION) -> ExpansionReport:
    """Assemble the expansion case selected by (Re xi, xi/2 pole, |xi|).

    Dispatches to the root-of-unity expansion at xi = 2 pi i; other
    multiples of 2 pi i (including 0) have no defined case and raise
    CaseUndefined.
    """
    knot, N, J = spec.knot, spec.N, spec.correction_order
    with precision.workdps():
        xi = to_mpc(spec.xi)
        ab = knot.ab

        m = _nearest_2pii_multiple(xi)
        if m is not None:
            if m == 1:
                return expand_root_of_unity(knot, N, J, precision)
            raise CaseUndefined(
                "no expansion case at xi = %d * 2 pi i; only 2 pi i itself is covered" % m
            )

        # the case fixes the highest residue index and how the ladder is read
        k_pole = _pole_case_index(knot, xi)
        if k_pole is not None:
            # snap xi onto the exact pole-case point; tau_even_derivatives
            # refuses a pole, so the ladder is the regular part's there
            xi = 2 * k_pole * pi * mpc(0, 1) / ab
            ladder = _tau_derivatives(knot, xi / 2, 2 * J + 1)[::2]
            case, k_max = CASE_POLE, k_pole
        else:
            ladder = tau_even_derivatives(knot, xi / 2, J, precision)
            if re(xi) > 0:
                case, k_max = CASE_NOT_POLE_POS_RE, 0
            else:
                case, k_max = CASE_NOT_POLE_NONPOS_RE, _guarded_floor(ab * fabs(xi) / (2 * pi))

        exp_terms = [
            (k, (-1) ** (k + 1) * residue_term(knot, k, xi, N, precision))
            for k in pole_indices(knot, k_max)
        ]
        if case == CASE_POLE:
            # the boundary term at xi/2 itself carries half weight
            exp_terms[-1] = (k_pole, exp_terms[-1][1] / 2)
        corrections = [
            ladder[j] / mp.factorial(j) * (xi / (4 * ab * N)) ** j for j in range(1, J + 1)
        ]
        return _report(
            xi, precision, case_tag=case, knot=knot, xi=spec.xi, N=N, correction_order=J,
            prefactor=_case_prefactor(knot, xi, N), leading=ladder[0],
            exp_terms=tuple(exp_terms), corrections=tuple(corrections),
        )


def expand_root_of_unity(
    knot: TorusKnot, N: int, j_max: int, precision: Precision = DEFAULT_PRECISION
) -> ExpansionReport:
    """Expansion at xi = 2 pi i, where q = e^(xi/N) is a primitive N-th root.

    The leading part is (pi^(3/2) / (2ab)) (N/xi)^(3/2) times the alternating
    k^2-weighted sum over k = 1..ab-1 (terms with a | k or b | k vanish); the
    corrections are (1/4) a_j / j! (xi/(4abN))^(j-1) with a_j the even
    derivative ladder of z tau(z) at the origin.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    with precision.workdps():
        ab = knot.ab
        xi = 2 * pi * mpc(0, 1)
        front = pi ** mpf("1.5") / (2 * ab) * (N / xi) ** mpf("1.5")
        exp_terms = [
            (
                k,
                front
                * (-1) ** (k + 1)
                * k**2
                * exp(saddle_exponent(knot, k, xi, precision) * N / xi)
                * torsion_weight_sqrt_signed(knot, k, precision),
            )
            for k in pole_indices(knot, ab - 1)
        ]
        a_coeffs = ztau_even_derivatives(knot, max(j_max, 1), precision)
        corrections = [
            a_coeffs[j] / (4 * mp.factorial(j)) * (xi / (4 * ab * N)) ** (j - 1)
            for j in range(1, j_max + 1)
        ]
        return _report(
            xi, precision, case_tag=CASE_ROOT_OF_UNITY, knot=knot, xi=complex(0, float(2 * pi)),
            N=N, correction_order=j_max, prefactor=exp(_framing_exponent(knot, xi, N)),
            leading=sum((t for _, t in exp_terms), mpc(0)),
            exp_terms=tuple(exp_terms), corrections=tuple(corrections),
        )


def classify_region(knot: TorusKnot, xi, precision: Precision = DEFAULT_PRECISION) -> str:
    """Convergence class of J_N(e^(xi/N)) as N grows.

    converges for Re xi > 0 or inside the semicircle |xi| < 2 pi/(ab);
    diverges outside it when Re xi <= 0; on the semicircle itself the first
    oscillatory term neither grows nor decays.  Only defined away from the
    multiples of 2 pi i and for Im xi >= 0.
    """
    with precision.workdps():
        xi = to_mpc(xi)
        if _im_xi_negative(xi):
            raise InvalidXi("Im xi must be non-negative")
        if _nearest_2pii_multiple(xi) is not None:
            raise InvalidXi("classification undefined at multiples of 2 pi i")
        if re(xi) > 0:
            return "converges"
        threshold = 2 * pi / knot.ab
        radius = fabs(xi)
        if fabs(radius - threshold) < _BOUNDARY_GUARD:
            return "boundary_oscillates"
        return "converges" if radius < threshold else "diverges"
