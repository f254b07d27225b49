"""The explicit reconstruction kernel of the indicator field: spectral
profiles, closed forms, and an independent quadrature oracle.

The kernel at (x, y, z) is a weighted spectral integral, s0 over the part
of the spectral set E in [-1, 0) and s1 over its part in [0, 1].  Each is
a sum over E's pieces [a, b] of one divided difference of the indicator
transform IT(a, b, w) = windows.interval_moments(a, b, w, 0), taken by
_divided_difference; s0 takes the pieces reflected to [-b, -a].  So the
derived closed forms hold on every E, and S0_closed and S1_closed are the
full band's.  The printed two-case expression for s0 is a full-band formula
with a global sign error (its zero-frequency limit gives -(1-|x|)/2 where
the defining integral gives +(1-|x|)/2), so both readings are exposed and,
where E covers [-1, 0], the quadrature oracle arbitrates.  The positive-side
overlap interval likewise has two endpoint readings (see
canonical.sinc_intervals); all combinations are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import sinc_intervals
from .errors import DomainError
from .grids import FieldSample, LambdaGrid, field_inner_per_node
from .windows import indicator_transform, interval_moments

_NEAR = 1e-6  # |c y| b below this takes the moment rows, not the quotient
_FULL = ((0.0, 1.0),)  # pieces of the full band, each side
_DEV_EPS = 1e-3  # deviations are |closed - quad| / (|quad| + _DEV_EPS)
_STRIP_X, _STRIP_YZ = (-0.95, 0.95), (-0.45, 0.45)  # seeded point ranges


def G_xy(lam: float, x: float, y: float,
         reading: str = "printed") -> complex:
    """Positive-side spectral profile: lam * 1_[0,1](lam) * FT(1_{I_{x,lam}})(lam*y).

    The overlap interval follows the requested endpoint reading."""
    if not 0.0 <= lam <= 1.0 or lam == 0.0:
        return 0.0 + 0.0j
    si = sinc_intervals(x, lam, reading=reading)
    if si.i_xlambda is None:
        return 0.0 + 0.0j
    a, b = si.i_xlambda
    return complex(lam * indicator_transform(a, b, lam * y)[()])


def _band_pieces(E):
    """Pieces of E cap [-1, 0), each [a, b] reflected to [-b, -a], and of
    E cap [0, 1]; sorted, touching pieces merged."""
    sides = ([(-min(b, 0.0), -max(a, -1.0)) for a, b in E.intervals],
             [(max(a, 0.0), min(b, 1.0)) for a, b in E.intervals])
    out = ([], [])
    for side, pieces in zip(sides, out):
        for lo, hi in sorted(iv for iv in side if iv[1] > iv[0]):
            if pieces and lo <= pieces[-1][1]:
                lo = pieces.pop()[0]
            pieces.append((lo, hi))
    return tuple(map(tuple, out))


def _divided_difference(pieces, w, c, y):
    """Sum over the pieces [a, b] of [0, 1] of (IT(a, b, w + d) -
    IT(a, b, w)) / (2 pi i y), d = c y, elementwise over arrays w, c, y.
    Where |d| b < 1e-6 it is c (T_1 + pi i d T_2), T_p = int_a^b t^p
    e^{2 pi i w t} dt from the p = 1, 2 rows of interval_moments
    recentred, finite as y -> 0.  Both the quotient's rounding, eps / |d b|
    relative, and the terms the rows drop, (2 pi d b)^2, scale with d b."""
    d = c * y
    acc = np.zeros(d.shape, dtype=complex)
    for a, b in pieces:
        near = np.abs(d) * b < _NEAR
        pmax = 2 if near.any() else 0
        # row 0 has the same bits at either depth
        m = interval_moments(a, b, np.stack((w + d, w)), pmax)
        val = (m[0, 0] - m[0, 1]) / (2j * math.pi * np.where(near, 1.0, y))
        if pmax:
            mid = 0.5 * (a + b)
            t1 = m[1, 1] + mid * m[0, 1]
            t2 = m[2, 1] + mid * (2.0 * m[1, 1] + mid * m[0, 1])
            val = np.where(near, c * (t1 + 1j * math.pi * d * t2), val)
        acc += val
    return acc


def _closed(x, y, z, pieces, part):
    """Part "s1", or "s0" in the printed reading, at arrays x, y, z over
    pieces; +0 outside |x| < 1, so 0.0 - s0 is the derived reading."""
    inside = np.abs(x) < 1.0
    c = 1.0 - np.abs(np.where(inside, x, 0.0))
    u = z + y * np.where(x >= 0.0, c, 1.0)
    if part == "s0":
        val = _divided_difference(pieces, u, -c, y)
    else:
        val = np.exp(2j * math.pi * y) * _divided_difference(pieces, -u, c, y)
    return np.where(inside, val, 0.0)


def S0_closed(x: float, y: float, z: float,
              reading: str = "printed") -> complex:
    """Closed form of the negative-side kernel part on the full band.

    reading="printed" evaluates the two-case expression as displayed
    (value -1/(3 pi^2) at (1/2, 1, 1)); reading="derived" is its negation,
    which matches the defining integral and the quadrature oracle.  The
    exceptional lines (y = 0, z = 0, vanishing denominators) need no cases.
    """
    if reading not in ("printed", "derived"):
        raise DomainError(f"unknown reading {reading!r}")
    val = _closed(*np.array([[x], [y], [z]], dtype=float), _FULL, "s0")
    return complex((val if reading == "printed" else 0.0 - val)[0])


def S1_closed(x: float, y: float, z: float) -> complex:
    """Positive-side part on the full band, derived overlap interval:
    e^{2 pi i y} [IT(0, 1, -z) - IT(0, 1, -(z + y(1-x)))] / (2 pi i y) for
    0 <= x < 1, with xy - z and -(z + y) for -1 < x < 0."""
    return complex(_closed(*np.array([[x], [y], [z]], dtype=float), _FULL,
                           "s1")[0])


def S_quadrature(x: float, y: float, z: float, grid: LambdaGrid,
                 fld: FieldSample):
    """Oracle: weighted spectral quadrature of the diagonal matrix
    coefficient <e_lam, pi_lam(x, y, z) e_lam>, split into the negative-
    and positive-side parts.  Per-slice inner products are the exact
    overlap integrals of modulated indicators."""
    moved = fld.heisenberg_translate(x, y, z)
    vals = grid.weights * field_inner_per_node(fld, moved)
    neg = grid.nodes < 0
    return SincValue(s0=complex(vals[neg].sum()),
                     s1=complex(vals[~neg].sum()))


@dataclass(frozen=True)
class SincValue:
    s0: complex
    s1: complex

    @property
    def s(self):
        return self.s0 + self.s1


@dataclass(frozen=True)
class SincComparison:
    point: tuple
    s0_quad: complex
    s1_quad: complex
    s0_printed: complex
    s0_derived: complex
    s1_printed: complex
    s1_derived: complex

    def deviation(self, which: str) -> float:
        quad = self.s0_quad if which.startswith("s0") else self.s1_quad
        closed = getattr(self, which)
        return abs(closed - quad) / (abs(quad) + _DEV_EPS)


@dataclass(frozen=True)
class SincCompareReport:
    rows: tuple
    printed_s0_applies: bool  # E covers [-1, 0], the printed formula's band

    def max_deviation(self, which: str) -> float:
        return max((r.deviation(which) for r in self.rows), default=0.0)

    def _matching(self, part):
        if not self.rows:
            return None
        printed = self.max_deviation(f"{part}_printed")
        derived = self.max_deviation(f"{part}_derived")
        return "derived" if derived <= printed else "printed"

    @property
    def matching_s0_reading(self):
        return self._matching("s0") if self.printed_s0_applies else None

    @property
    def matching_s1_reading(self):
        return self._matching("s1")


def _s1_numeric(x, y, z, grid, reading):
    """Positive-side value from the spectral profile G_xy on every grid
    node in (0, 1] at once, independent of the window machinery; empty
    overlaps contribute zero through interval_moments."""
    if reading not in ("printed", "derived"):
        raise DomainError(f"unknown reading {reading!r}")
    keep = (grid.nodes > 0.0) & (grid.nodes <= 1.0)
    lam, w = grid.nodes[keep], grid.weights[keep]
    b1 = 1.0 / lam
    b0 = (-b1 if reading == "printed" else b1) - 1.0
    lo = np.maximum(b0, b0 + x)
    hi = np.minimum(b1, b1 + x)
    prof = lam * indicator_transform(lo, hi, lam * y)
    return complex(np.sum(prof * np.exp(-2j * math.pi * lam * z)
                          * w / np.abs(lam)))


def sinc_compare(points, grid: LambdaGrid,
                 fld: FieldSample) -> SincCompareReport:
    """Cross-validate the closed forms on the grid's spectral set against
    the quadrature oracle at the given (x, y, z) points, for both readings,
    each closed-form column in one array call (printed s0: the full band)."""
    neg, pos = _band_pieces(grid.spectral_set)
    x, y, z = np.array(points, dtype=float).reshape(-1, 3).T.copy()
    printed = _closed(x, y, z, _FULL, "s0")
    derived = 0.0 - (printed if neg == _FULL else _closed(x, y, z, neg, "s0"))
    s1 = _closed(x, y, z, pos, "s1")
    rows = []
    for k, (x, y, z) in enumerate(points):
        q = S_quadrature(x, y, z, grid, fld)
        rows.append(SincComparison(
            point=(x, y, z), s0_quad=q.s0, s1_quad=q.s1,
            s0_printed=complex(printed[k]), s0_derived=complex(derived[k]),
            s1_printed=_s1_numeric(x, y, z, grid, "printed"),
            s1_derived=complex(s1[k])))
    return SincCompareReport(rows=tuple(rows),
                             printed_s0_applies=neg == _FULL)


def seeded_strip_points(count: int, seed: int):
    """Deterministic sample of points inside the strip |x| < 1, kept away
    from the exceptional lines by rejection."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        x = rng.uniform(*_STRIP_X)
        y = rng.uniform(*_STRIP_YZ)
        z = rng.uniform(*_STRIP_YZ)
        denoms = [y, z, z - x * y, z + y, z + y * (1 - x), z + y * (1 + x)]
        if min(abs(d) for d in denoms) < 5e-3:
            continue
        pts.append((x, y, z))
    return pts
