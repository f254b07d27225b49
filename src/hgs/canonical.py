"""The interpolating indicator field over [-1, 1] and its exact interval
combinatorics.

The field assigns to lam in (0, 1] the indicator of [1/lam - 1, 1/lam] and
to lam in [-1, 0) the indicator of [-1, 0]; every slice has unit norm, the
scaled slices pass the painless criterion exactly, and the unit-density
lattice translates form an orthonormal basis.  The interval arithmetic here
is plain Python so exact rationals (fractions.Fraction) stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .grids import FieldSample, LambdaGrid, SpectralSet, point_grid
from .windows import MAX_DEGREE, Window

_UNIT_BAND = SpectralSet([(-1.0, 1.0)])


def canonical_profile(lams) -> FieldSample:
    """Unit-norm indicator slices at an array of spectral values in
    [-1, 1] \\ {0}, as a term table on point_grid(lams): the array profile
    of the canonical field."""
    lams = np.asarray(lams, dtype=float)
    bad = (lams == 0) | ~(np.abs(lams) <= 1)
    if bad.any():
        raise DomainError(f"lam={lams[bad][0]} outside [-1, 1] minus 0")
    pos = lams > 0
    inv = 1.0 / np.where(pos, lams, 1.0)
    lo = np.where(pos, inv - 1.0, -1.0)
    hi = np.where(pos, inv, 0.0)
    live = np.flatnonzero(hi > lo)
    coef = np.zeros((live.size, MAX_DEGREE + 1), dtype=complex)
    coef[:, 0] = 1.0
    return FieldSample(point_grid(lams, _UNIT_BAND), live,
                       lo[live], hi[live], coef, np.zeros(live.size))


def canonical_window(lam) -> Window:
    """Unit-norm indicator slice at spectral value lam in [-1, 1] \\ {0}."""
    return canonical_profile([lam]).slice(0)


def canonical_field(grid: LambdaGrid) -> FieldSample:
    """Indicator field sampled on the grid, with the analytic profile kept
    attached so off-grid slices evaluate exactly."""
    return FieldSample.from_array_profile(grid, canonical_profile)


@dataclass(frozen=True)
class IntervalPair:
    """Images of the two slice supports under the unfolding substitution:
    i_prev from the slice at lam - 1, i_cur from the slice at lam."""

    i_prev: tuple
    i_cur: tuple


def intervals_Ik(lam, k) -> IntervalPair:
    """Exact unfolded intervals for translation index k at lam in (0, 1]:

        i_prev = [-(1-lam) k, -(1-lam) k + (1-lam)],
        i_cur  = [1 + lam k - lam, 1 + lam k].

    Works with floats or Fractions; at lam = 1 the first interval is
    degenerate (length 0) and treated as empty by consumers.
    """
    if not 0 < lam <= 1:
        raise DomainError("lam must lie in (0, 1]")
    one = lam / lam  # stays a Fraction for Fraction input
    prev = (-(one - lam) * k, -(one - lam) * k + (one - lam))
    cur = (one + lam * k - lam, one + lam * k)
    return IntervalPair(prev, cur)


def _eq(a, b):
    """Endpoint equality: exact for rationals, ulp-scaled for floats."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= 1e-12 * scale


def tiling_check(lam, k) -> bool:
    """True iff i_prev and i_cur have disjoint interiors and
    (i_prev + k) and i_cur tile [lam k, lam k + 1] up to endpoints.

    Exact for rational (fractions.Fraction) inputs; floats are compared up
    to a relative 1e-12."""
    if not 0 < lam < 1:
        raise DomainError("lam must lie in (0, 1)")
    pair = intervals_Ik(lam, k)
    p_lo, p_hi = pair.i_prev
    c_lo, c_hi = pair.i_cur
    # disjoint interiors of the raw intervals
    if min(p_hi, c_hi) > max(p_lo, c_lo) and not _eq(min(p_hi, c_hi),
                                                     max(p_lo, c_lo)):
        return False
    # shifted union must be [lam k, lam k + 1] with interiors meeting at
    # exactly one point
    s_lo, s_hi = p_lo + k, p_hi + k
    one = lam / lam
    lo, hi = lam * k, lam * k + one
    if not (_eq(s_lo, lo) and _eq(c_hi, hi)):
        return False
    return _eq(s_hi, c_lo)


@dataclass(frozen=True)
class SincIntervals:
    """Overlap intervals entering the reproducing kernel, possibly empty."""

    j_x: tuple | None
    i_xlambda: tuple | None


def _intersect(a, b):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if hi > lo else None


def sinc_intervals(x, lam, reading: str = "printed") -> SincIntervals:
    """Self-overlap intervals at shift x.

    j_x is always [-1, 0] cap ([-1, 0] + x).  For i_xlambda the left
    endpoint of the base interval is ambiguous in its source: the printed
    reading uses [-1/lam - 1, 1/lam], the derived reading uses the actual
    slice support [1/lam - 1, 1/lam].  The quadrature kernel oracle decides
    which one is meant; both are exposed.
    """
    if not 0 < lam <= 1:
        raise DomainError("lam must lie in (0, 1]")
    if reading not in ("printed", "derived"):
        raise DomainError(f"unknown reading {reading!r}")
    j = _intersect((-1.0, 0.0), (-1.0 + x, 0.0 + x))
    if reading == "printed":
        base = (-1.0 / lam - 1.0, 1.0 / lam)
    else:
        base = (1.0 / lam - 1.0, 1.0 / lam)
    i = _intersect(base, (base[0] + x, base[1] + x))
    return SincIntervals(j_x=j, i_xlambda=i)
