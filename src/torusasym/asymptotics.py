"""Asymptotic expansions of the colored Jones polynomial for large color N.

Three expansion cases cover xi off the multiples of 2 pi i, selected by the
sign of Re xi and by whether xi/2 is a genuine pole of the torsion kernel;
a fourth case handles xi = 2 pi i itself, where q is a primitive root of
unity and the leading growth is (N/xi)^(3/2).

Sign conventions, fixed once and validated against the exact sum evaluator:

* sqrt(-pi) and (N/xi)^(1/2) use the principal branch;
* the square root of the torsion weight T_k is taken SIGNED,
  4 sin(k pi/a) sin(k pi/b) / sqrt(ab), which is what the residue calculus
  produces (an unsigned root is off by the sign of the sine product);
* the boundary term of the pole case is weighted (1/2)(-1)^(M+1), matching
  the (-1)^(k+1) alternation of the interior terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import exp, fabs, floor, im, mp, mpc, mpf, pi, re, sin, sinh, sqrt

from .errors import CaseUndefined, InvalidXi
from .precision import DEFAULT_PRECISION, Precision, to_mpc
from .contour import laurent_coefficients
from .jones import _nearest_2pii_multiple, jones_sum
from .torus import TorusKnot, _framing_exponent, _tau_raw
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
    if k % knot.a == 0 or k % knot.b == 0:
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
    if k % knot.a == 0 or k % knot.b == 0:
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
        if float(im(to_mpc(self.xi))) < -1e-15:
            raise ValueError("Im xi must be non-negative")


@dataclass(frozen=True)
class ExpansionReport:
    """Assembled approximant next to the exact-sum oracle.

    approximant = prefactor * (leading + sum of exp_term values + sum of
    corrections), except in the root-of-unity case where the exp_terms are
    the per-k pieces of the leading sum itself (so leading is excluded from
    the part total there).  residual is relative while |oracle| > 1e-300,
    absolute below that.
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

    def parts_total(self) -> mpc:
        total = sum((t for _, t in self.exp_terms), mpc(0)) + sum(self.corrections, mpc(0))
        if self.case_tag != CASE_ROOT_OF_UNITY:
            total += self.leading
        return total


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
    if k < 1 or fabs(ratio - k) > _BOUNDARY_GUARD:
        return None
    if k % knot.a == 0 or k % knot.b == 0:
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

        k_pole = _pole_case_index(knot, xi)

        if k_pole is not None:
            # snap xi onto the exact pole-case point before evaluating
            xi = 2 * k_pole * pi * mpc(0, 1) / ab
            prefactor = _case_prefactor(knot, xi, N)
            z0 = xi / 2
            radius = pi / (2 * ab)
            orders = [0] + [2 * j for j in range(1, J + 1)]
            coeffs = laurent_coefficients(
                lambda z: _tau_raw(knot, z, precision), z0, radius, orders, precision=precision
            )
            leading = coeffs[0]
            exp_terms = []
            for k in range(1, k_pole):
                if k % knot.a == 0 or k % knot.b == 0:
                    continue
                exp_terms.append((k, (-1) ** (k + 1) * residue_term(knot, k, xi, N, precision)))
            boundary = mpf(1) / 2 * (-1) ** (k_pole + 1) * residue_term(knot, k_pole, xi, N, precision)
            exp_terms.append((k_pole, boundary))
            corrections = []
            for idx, j in enumerate(range(1, J + 1)):
                c2j = coeffs[1 + idx]
                corrections.append(
                    mp.factorial(2 * j) * c2j / mp.factorial(j) * (xi / (4 * ab * N)) ** j
                )
            case = CASE_POLE
        else:
            prefactor = _case_prefactor(knot, xi, N)
            derivs = tau_even_derivatives(knot, xi / 2, J, precision)
            leading = derivs[0]
            exp_terms = []
            if re(xi) <= 0:
                k_max = _guarded_floor(ab * fabs(xi) / (2 * pi))
                for k in range(1, k_max + 1):
                    if k % knot.a == 0 or k % knot.b == 0:
                        continue
                    exp_terms.append(
                        (k, (-1) ** (k + 1) * residue_term(knot, k, xi, N, precision))
                    )
                case = CASE_NOT_POLE_NONPOS_RE
            else:
                case = CASE_NOT_POLE_POS_RE
            corrections = [
                derivs[j] / mp.factorial(j) * (xi / (4 * ab * N)) ** j for j in range(1, J + 1)
            ]

        parts = leading + sum((t for _, t in exp_terms), mpc(0)) + sum(corrections, mpc(0))
        approximant = prefactor * parts
        oracle = jones_sum(knot, N, xi, precision)
        return ExpansionReport(
            case_tag=case,
            knot=knot,
            xi=spec.xi,
            N=N,
            correction_order=J,
            prefactor=prefactor,
            leading=leading,
            exp_terms=tuple(exp_terms),
            corrections=tuple(corrections),
            approximant=approximant,
            oracle=oracle,
            residual=_residual(approximant, oracle),
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
        prefactor = exp(_framing_exponent(knot, xi, N))
        front = pi ** mpf("1.5") / (2 * ab) * (N / xi) ** mpf("1.5")
        exp_terms = []
        for k in range(1, ab):
            if k % knot.a == 0 or k % knot.b == 0:
                continue
            term = (
                front
                * (-1) ** (k + 1)
                * k**2
                * exp(saddle_exponent(knot, k, xi, precision) * N / xi)
                * torsion_weight_sqrt_signed(knot, k, precision)
            )
            exp_terms.append((k, term))
        leading = sum((t for _, t in exp_terms), mpc(0))
        a_coeffs = ztau_even_derivatives(knot, max(j_max, 1), precision)
        corrections = [
            a_coeffs[j] / (4 * mp.factorial(j)) * (xi / (4 * ab * N)) ** (j - 1)
            for j in range(1, j_max + 1)
        ]
        approximant = prefactor * (leading + sum(corrections, mpc(0)))
        oracle = jones_sum(knot, N, xi, precision)
        return ExpansionReport(
            case_tag=CASE_ROOT_OF_UNITY,
            knot=knot,
            xi=complex(0, float(2 * pi)),
            N=N,
            correction_order=j_max,
            prefactor=prefactor,
            leading=leading,
            exp_terms=tuple(exp_terms),
            corrections=tuple(corrections),
            approximant=approximant,
            oracle=oracle,
            residual=_residual(approximant, oracle),
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
        if im(xi) < -mpf("1e-15"):
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
