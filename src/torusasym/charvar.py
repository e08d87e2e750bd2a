"""Component combinatorics of the SL(2,C) character variety of a torus knot.

Pure integer arithmetic: the two-to-one correspondence between residue
indices k and component labels (alpha, beta), the congruence pair (k1, k2)
solved exactly by the Chinese remainder theorem, reducible-representation
traces, and the chosen logarithmic lift of the longitude holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpc, pi

from .errors import InvalidK, ParityViolation
from .precision import DEFAULT_PRECISION, Precision, to_mpc
from .torus import TorusKnot, pole_indices


@dataclass(frozen=True)
class RepIndex:
    """A residue index k together with its component data.

    alpha and beta label the irreducible component; k1 and k2 are the two
    residues mod ab where the component's closure meets the reducible one.
    """

    knot: TorusKnot
    k: int
    alpha: int
    beta: int
    k1: int
    k2: int


def valid_k_values(knot: TorusKnot) -> list[int]:
    """Residue indices 1 <= k <= ab-1 with a ∤ k and b ∤ k, ascending."""
    return pole_indices(knot, knot.ab - 1)


def alpha_beta_from_k(knot: TorusKnot, k: int) -> tuple[int, int]:
    """Component label (alpha, beta) of the index k.

    alpha is the residue of k mod a in [1, a-1]; beta is the residue of k
    mod b in [1, b-1], replaced by its complement b - beta when the parities
    disagree.  Since b is odd the result always satisfies alpha ≡ beta mod 2.
    """
    if k < 1:
        raise InvalidK("k must be positive")
    if not knot.is_pole_index(k):
        raise InvalidK(f"k={k} divisible by a or b for {knot}")
    alpha = k % knot.a
    beta_prime = k % knot.b
    beta = beta_prime if (alpha - beta_prime) % 2 == 0 else knot.b - beta_prime
    return alpha, beta


def _crt(r_a: int, r_b: int, a: int, b: int) -> int:
    """Unique x mod ab with x ≡ r_a (mod a) and x ≡ r_b (mod b); exact integers."""
    m = a * b
    x = (r_a * b * pow(b, -1, a) + r_b * a * pow(a, -1, b)) % m
    return x


def k_pair_from_alpha_beta(knot: TorusKnot, alpha: int, beta: int) -> tuple[int, int]:
    """(k1, k2) with k1 ≡ alpha, -beta and k2 ≡ alpha, beta mod (a, b).

    Solutions are normalized to [1, ab-1]; they are the two preimages of the
    component under the index map, congruent to (k, -k) mod ab in some order.
    """
    if not (1 <= alpha <= knot.a - 1 and 1 <= beta <= knot.b - 1):
        raise ValueError(f"component label ({alpha},{beta}) out of range for {knot}")
    if (alpha - beta) % 2 != 0:
        raise ParityViolation(f"alpha={alpha} and beta={beta} have different parity")
    k1 = _crt(alpha % knot.a, (-beta) % knot.b, knot.a, knot.b)
    k2 = _crt(alpha % knot.a, beta % knot.b, knot.a, knot.b)
    return k1, k2


def rep_index(knot: TorusKnot, k: int) -> RepIndex:
    """Full component record of a residue index."""
    alpha, beta = alpha_beta_from_k(knot, k)
    k1, k2 = k_pair_from_alpha_beta(knot, alpha, beta)
    return RepIndex(knot=knot, k=k, alpha=alpha, beta=beta, k1=k1, k2=k2)


def enumerate_components(knot: TorusKnot) -> list[RepIndex]:
    """One record per irreducible component, (a-1)(b-1)/2 in total.

    Records are keyed by (alpha, beta) in lexicographic order, with k the
    smaller of the two preimages.
    """
    by_label: dict[tuple[int, int], RepIndex] = {}
    for k in valid_k_values(knot):
        idx = rep_index(knot, k)
        label = (idx.alpha, idx.beta)
        if label not in by_label:
            by_label[label] = idx
    return [by_label[label] for label in sorted(by_label)]


def reducible_traces(knot: TorusKnot, t) -> tuple[mpc, mpc]:
    """Traces (x, y) of the diagonal representation parametrized by t != 0."""
    t = to_mpc(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return t**knot.b + t**-knot.b, t**knot.a + t**-knot.a


def longitude_log_lift(
    knot: TorusKnot, k: int, u, precision: Precision = DEFAULT_PRECISION
) -> mpc:
    """The chosen log-lift of the longitude holonomy: -ab(u + 2 pi i) + 2(k-1) pi i.

    Affine in u with constant slope -ab; equal to twice the xi-derivative of
    the saddle exponent at xi = u + 2 pi i, minus 2 pi i.
    """
    with precision.workdps():
        u = to_mpc(u)
        return -knot.ab * (u + 2 * pi * mpc(0, 1)) + 2 * (k - 1) * pi * mpc(0, 1)
