"""Closed-form identity checks behind `torusasym verify` and the acceptance suite.

One function per identity, taking its knots, precision, random stream and
perturbation explicitly; each returns the largest deviation over its samples
next to the tolerance it is held to.  ``perturb`` is a test-only fault added
to one side of each comparison to show a check is sensitive; the integer
combinatorics check cannot see one below its 0.5 tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from itertools import starmap

from mpmath import fabs, mpc, mpf, pi, sin

from .asymptotics import torsion_weight
from .charvar import alpha_beta_from_k, enumerate_components, longitude_log_lift
from .charvar import rep_index, valid_k_values
from .cstorsion import BundleElement, cs_closed_form, cs_extract, equivalent, g_act
from .cstorsion import torsion_lambda, transported_component_form
from .errors import TorusAsymError
from .precision import Precision
from .torus import TorusKnot

# relations of the group generated by X, Y, B: each left word acts as the right one
_RELATIONS = [("XY", "YX"), ("XBXB", ""), ("YBYB", ""), ("BB", "")]


@dataclass(frozen=True)
class IdentityCheck:
    """Largest deviation of one identity over its samples; a recorded
    (informational) check reports a count and never fails."""

    identity: str
    samples: int
    deviation: mpf | float
    tolerance: float
    recorded: bool = False

    @property
    def status(self) -> str:
        if self.recorded:
            return "RECORDED"
        return "PASS" if float(self.deviation) < float(self.tolerance) else "FAIL"


def knots_up_to(bound: int) -> list[TorusKnot]:
    """Every torus knot T(a, b) with ab <= bound, by ascending a, then b."""
    return [TorusKnot(a, b) for a in range(2, bound // 3 + 1)
            for b in range(3, bound // a + 1, 2) if math.gcd(a, b) == 1]


def _check(identity: str, tolerance: float, deviations) -> IdentityCheck:
    deviations = list(deviations)
    return IdentityCheck(identity, len(deviations), max(deviations, default=mpf(0)), tolerance)


def _valid_pairs(knots: list[TorusKnot]):
    return ((knot, k) for knot in knots for k in valid_k_values(knot))


def _random_xi(rng: random.Random) -> tuple[mpc, mpc]:
    """u uniform in the square |Re u|, |Im u| <= 0.4, and xi = u + 2 pi i."""
    u = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
    return u, u + 2 * pi * mpc(0, 1)


def component_combinatorics(knots: list[TorusKnot], perturb: float) -> IdentityCheck:
    """(a-1)(b-1)/2 components per knot, each the image of exactly two valid k.

    Checks the count, 2 valid k per component, rep_index sending each k to a
    component that lists it, and the preimage pairs partitioning the valid
    k values; a miss counts 1.
    """
    dev = 0
    for knot in knots:
        comps = enumerate_components(knot)
        ks = valid_k_values(knot)
        dev = max(dev, abs(len(comps) - (knot.a - 1) * (knot.b - 1) // 2))
        dev = max(dev, abs(len(ks) - 2 * len(comps)))
        for k in ks:
            idx = rep_index(knot, k)
            if k not in (idx.k1, idx.k2):
                dev = max(dev, 1)
        if sorted(k for c in comps for k in (c.k1, c.k2)) != ks:
            dev = max(dev, 1)
    return IdentityCheck("component-count-and-two-to-one", len(knots), dev + perturb, 0.5)


def sin2_label_invariance(
    knots: list[TorusKnot], precision: Precision, perturb: float
) -> IdentityCheck:
    """sin^2(alpha pi/a) sin^2(beta pi/b) equals the same product at k itself."""

    def deviation(knot, k):
        alpha, beta = alpha_beta_from_k(knot, k)
        lhs = (sin(alpha * pi / knot.a) * sin(beta * pi / knot.b)) ** 2
        rhs = (sin(k * pi / knot.a) * sin(k * pi / knot.b)) ** 2
        return fabs(lhs + perturb - rhs)

    with precision.workdps():
        return _check("sin2-label-invariance", 1e-12, starmap(deviation, _valid_pairs(knots)))


def meridian_torsion(
    knots: list[TorusKnot], precision: Precision, perturb: float
) -> IdentityCheck:
    """The torsion weight T_k equals ab times the meridian torsion magnitude."""

    def deviation(knot, k):
        alpha, beta = alpha_beta_from_k(knot, k)
        lhs = torsion_weight(knot, k, precision)
        return fabs(lhs + perturb - knot.ab * torsion_lambda(knot, alpha, beta, precision))

    with precision.workdps():
        return _check("meridian-torsion-identity", 1e-13, starmap(deviation, _valid_pairs(knots)))


def group_action_relations(
    precision: Precision, rng: random.Random, perturb: float
) -> IdentityCheck:
    """The group relations act as the identity on 50 random bundle elements."""

    def draw():
        return mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))

    def deviation(e, left, right):
        lhs = reduce(lambda x, gen: g_act(gen, x, precision), left, e)
        rhs = reduce(lambda x, gen: g_act(gen, x, precision), right, e)
        return max(fabs(lhs.s + perturb - rhs.s), fabs(lhs.t - rhs.t),
                   fabs(lhs.z - rhs.z) / fabs(rhs.z))

    with precision.workdps():
        elements = [BundleElement(draw(), draw(), draw() + 3) for _ in range(50)]
        return _check("group-action-relations", 1e-12,
                      (deviation(e, *words) for e in elements for words in _RELATIONS))


def cs_closed_vs_component(
    knots: list[TorusKnot], precision: Precision, rng: random.Random, perturb: float
) -> IdentityCheck:
    """The closed-form CS value equals the transported component form.

    Five random u per component, both preimages k, both signs.  The
    deviation is the mod-pi^2 distance of the extracted values; a transported
    element not G-equivalent to the closed form counts 1.
    """

    def deviations():
        for knot in knots:
            for comp in enumerate_components(knot):
                for _ in range(5):
                    u, xi = _random_xi(rng)
                    for k in (comp.k1, comp.k2):
                        closed = cs_closed_form(knot, k, xi, precision)
                        v = longitude_log_lift(knot, k, u, precision)
                        reference = cs_extract(closed, u, v, precision)
                        for sign in (1, -1):
                            moved = transported_component_form(knot, k, u, sign, precision)
                            moved = BundleElement(moved.s, moved.t, moved.z + perturb)
                            dev = cs_extract(moved, u, v, precision).distance(reference, precision)
                            yield dev if equivalent(moved, closed, precision) else max(dev, mpf(1))

    with precision.workdps():
        return _check("cs-closed-form-vs-component-form", 1e-10, deviations())


def longitude_lift(
    knots: list[TorusKnot], precision: Precision, rng: random.Random, perturb: float
) -> IdentityCheck:
    """The longitude log-lift equals twice the saddle-exponent slope minus 2 pi i."""

    def deviation(knot, k):
        u, xi = _random_xi(rng)
        slope = (2 * k * pi * mpc(0, 1) - knot.ab * xi) / 2
        lhs = longitude_log_lift(knot, k, u, precision)
        return fabs(lhs + perturb - (2 * slope - 2 * pi * mpc(0, 1)))

    with precision.workdps():
        return _check("longitude-lift-derivative", 1e-12, starmap(deviation, _valid_pairs(knots)))


def partner_preimages(
    knots: list[TorusKnot], precision: Precision, rng: random.Random
) -> IdentityCheck:
    """Informational: the count of components whose two closed-form elements
    are not (or cannot be shown) G-equivalent."""

    def differ(knot, comp):
        _, xi = _random_xi(rng)
        e1 = cs_closed_form(knot, comp.k1, xi, precision)
        e2 = cs_closed_form(knot, comp.k2, xi, precision)
        try:
            return not equivalent(e1, e2, precision)
        except TorusAsymError:
            return True

    with precision.workdps():
        flags = [differ(knot, comp) for knot in knots for comp in enumerate_components(knot)]
    return IdentityCheck(
        "partner-preimage-equivalence", len(flags), sum(flags), len(flags) + 1, recorded=True
    )


def suite(
    knots: list[TorusKnot], precision: Precision, rng: random.Random, perturb: float
) -> list[IdentityCheck]:
    """Every check, in the order that fixes the draws from rng."""
    return [
        component_combinatorics(knots, perturb),
        sin2_label_invariance(knots, precision, perturb),
        meridian_torsion(knots, precision, perturb),
        group_action_relations(precision, rng, perturb),
        cs_closed_vs_component(knots, precision, rng, perturb),
        longitude_lift(knots, precision, rng, perturb),
        partner_preimages(knots, precision, rng),
    ]
