"""Heisenberg group arithmetic, quasi-lattices, and the projective action
on time functions.

The group is R^3 with product

    (x1, x2, x3) * (y1, y2, y3) = (x1 + y1, x2 + y2, x3 + y3 + x1*y2),

the polarized law under which the lattice Z^3 is a subgroup.  Coordinates
may be floats or exact rationals (fractions.Fraction); the arithmetic is
plain Python and preserves exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .windows import Window


def _check_finite(*xs):
    for x in xs:
        if isinstance(x, float) and not math.isfinite(x):
            raise DomainError("coordinates must be finite")


@dataclass(frozen=True)
class GroupPoint:
    """Element (x1, x2, x3): translation, modulation, central coordinate."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        _check_finite(self.x1, self.x2, self.x3)


def group_mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product; the cocycle term is x1*y2 on the central coordinate."""
    return GroupPoint(a.x1 + b.x1, a.x2 + b.x2, a.x3 + b.x3 + a.x1 * b.x2)


def group_inv(a: GroupPoint) -> GroupPoint:
    """Inverse (-x1, -x2, -x3 + x1*x2)."""
    return GroupPoint(-a.x1, -a.x2, -a.x3 + a.x1 * a.x2)


@dataclass(frozen=True)
class QuasiLatticeSpec:
    """Lattice densities: the sample set is alpha*Z x beta*Z x Z.

    alpha and beta are accepted as arbitrary positive reals; whether they
    are integers is surfaced in reports, not enforced.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        ab = self.alpha * self.beta
        if not (self.alpha > 0 and self.beta > 0 and 0 < ab < math.inf
                and 1.0 / ab < math.inf):
            raise DomainError("alpha, beta, alpha*beta and 1/(alpha*beta) "
                              "must be positive and finite")

    @property
    def is_integer(self) -> bool:
        return float(self.alpha).is_integer() and float(self.beta).is_integer()


@dataclass(frozen=True)
class LatticeIndex:
    """Integer index (k, l, m) of the point (alpha*k, beta*l, m)."""

    k: int
    l: int
    m: int

    def realize(self, spec: QuasiLatticeSpec) -> GroupPoint:
        return GroupPoint(spec.alpha * self.k, spec.beta * self.l, float(self.m))

    def astuple(self):
        return (self.k, self.l, self.m)


def _check_bounds(*bounds):
    """Raise DomainError unless every truncation bound is nonnegative."""
    if min(bounds) < 0:
        raise DomainError("bounds must be nonnegative")


def schrodinger_apply(lam: float, x: GroupPoint, f: Window) -> Window:
    """Apply the irreducible representation at parameter lam to a window:

        (pi_lam(x) f)(t) = e^{2 pi i lam x3} e^{-2 pi i lam x2 t} f(t - x1).

    Unitary on L2; exact on the window family.
    """
    if lam == 0:
        raise DomainError("representation parameter must be nonzero")
    phase = complex(math.cos(2.0 * math.pi * lam * x.x3),
                    math.sin(2.0 * math.pi * lam * x.x3))
    return f.translate(x.x1).modulate(-lam * x.x2).scaled(phase)
