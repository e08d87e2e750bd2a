"""Working-precision contract and small mpmath helpers.

Every numerical routine in the package takes a :class:`Precision` and runs
inside ``precision.workdps()`` so results are reproducible across call sites
regardless of the ambient mpmath state.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf, mpmathify

# Extra digits carried internally beyond the requested working precision.
GUARD_DIGITS = 8


@dataclass(frozen=True)
class Precision:
    """Precision contract: decimal working digits and a relative target.

    ``target_rel_tol`` is the relative error quadrature refinement aims for;
    it cannot meaningfully be tighter than about two digits above the working
    precision, which the constructor enforces.
    """

    working_digits: int = 30
    target_rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.working_digits < 15:
            raise ValueError("working_digits must be at least 15")
        if not self.target_rel_tol > 0:
            raise ValueError("target_rel_tol must be positive")
        if mpf(self.target_rel_tol) < mpf(10) ** (2 - self.working_digits):
            raise ValueError(
                "target_rel_tol %g unreachable at %d working digits"
                % (self.target_rel_tol, self.working_digits)
            )

    def workdps(self, extra: int = GUARD_DIGITS):
        """Context manager setting mpmath precision to working + guard digits."""
        return mp.workdps(self.working_digits + extra)

    @property
    def rel_tol(self) -> mpf:
        return mpf(self.target_rel_tol)

    @property
    def half_eps(self) -> mpf:
        """Scale-free guard at half the working digits (pole / snap tests)."""
        return mpf(10) ** (-(self.working_digits // 2))

    @property
    def degeneracy_eps(self) -> mpf:
        """Degeneracy guard four digits short of working precision: a smaller
        denominator counts as vanishing."""
        return mpf(10) ** (-(self.working_digits - 4))


DEFAULT_PRECISION = Precision()


def to_mpc(x) -> mpc:
    """Coerce int/float/complex/mpf/mpc/str to mpc at the current precision."""
    return mpc(mpmathify(x))
