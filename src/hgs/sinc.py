"""The explicit reconstruction kernel of the indicator field: spectral
profiles, closed forms, and an independent quadrature oracle.

The kernel value at a group point (x, y, z) is the weighted spectral
integral of the diagonal matrix coefficient of the slice window under the
group action.  The negative-side part s0 has an elementary closed form;
the printed two-case expression for it carries a global sign error (its
zero-frequency limit gives -(1-|x|)/2 where the defining integral gives
+(1-|x|)/2), so both readings are exposed and the quadrature oracle
arbitrates.  The positive-side overlap interval likewise has two endpoint
readings (see canonical.sinc_intervals); all combinations are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import sinc_intervals
from .errors import DomainError
from .grids import FieldSample, LambdaGrid, field_inner_per_node
from .windows import indicator_transform

_SMALL = 0.25 / math.pi  # |2 pi w| < 0.5 switches psi to its series
_DEV_EPS = 1e-3  # deviations are |closed - quad| / (|quad| + _DEV_EPS)
_STRIP_X, _STRIP_YZ = (-0.95, 0.95), (-0.45, 0.45)  # seeded point ranges


def _psi(w, p=0):
    """p-th derivative of psi(w) = (e^{2 pi i w} - 1)/(2 pi i w), p <= 2;
    (1/(2 pi i))^p psi^(p)(w) = int_0^1 t^p e^{2 pi i w t} dt."""
    u = 2j * math.pi * w
    if abs(w) < _SMALL:
        # sum_j u^j / (j! (j + p + 1))
        acc, term = 1.0 / (p + 1) + 0.0j, 1.0 + 0.0j
        for n in range(1, 16):
            term *= u / n
            acc += term / (n + p + 1)
        return (2j * math.pi) ** p * acc
    e = np.exp(u)
    num = (e - 1.0 if p == 0 else e * (u - 1.0) + 1.0 if p == 1
           else e * (u * u - 2.0 * u + 2.0) - 2.0)
    return (2j * math.pi) ** p * num / u ** (p + 1)


def F_xy(lam: float, x: float, y: float) -> complex:
    """Negative-side spectral profile: -lam * 1_[-1,0](lam) * FT(1_{J_x})(lam*y)."""
    if not -1.0 <= lam <= 0.0:
        return 0.0 + 0.0j
    si = sinc_intervals(x, 0.5)  # j_x does not depend on lam
    if si.j_x is None:
        return 0.0 + 0.0j
    a, b = si.j_x
    return complex(-lam * indicator_transform(a, b, lam * y)[()])


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


def _s0_bracket(x, y, z, sign):
    """sign * (1/(2 pi i y)) [psi(w1) - psi(w1 + c y)] with the two cases
    of the piecewise formula; stable for every zero denominator."""
    if abs(x) >= 1.0:
        return 0.0 + 0.0j
    if x >= 0.0:
        w2 = z + y * (1.0 - x)
        c = 1.0 - x
    else:
        w2 = z + y
        c = 1.0 + x
    d = c * y  # w1 = w2 - d
    if abs(d) < 1e-6:
        # difference quotient via derivatives at w2
        val = (c / (2j * math.pi)) * (_psi(w2, 1) - 0.5 * d * _psi(w2, 2))
        return sign * val
    w1 = w2 - d
    return sign * (-(1.0 / (2j * math.pi * y))) * (_psi(w1) - _psi(w2))


def S0_closed(x: float, y: float, z: float,
              reading: str = "printed") -> complex:
    """Closed form of the negative-side kernel part.

    reading="printed" evaluates the two-case expression as displayed
    (value -1/(3 pi^2) at (1/2, 1, 1)); reading="derived" is its negation,
    which matches the defining integral and the quadrature oracle.  All
    exceptional lines (y = 0, z = 0, vanishing case denominators) are
    handled by the analytic limit of (e^{i theta} - 1)/(i theta).
    """
    if reading == "printed":
        return _s0_bracket(x, y, z, -1.0)
    if reading == "derived":
        return _s0_bracket(x, y, z, +1.0)
    raise DomainError(f"unknown reading {reading!r}")


def S1_closed(x: float, y: float, z: float) -> complex:
    """Closed form of the positive-side part with the support-consistent
    overlap interval (derived reading).

    For 0 <= x < 1 the spectral integral reduces to

        (e^{2 pi i y}/(2 pi i y)) [psi(-z) - psi(-(z + y(1-x)))]

    and for -1 < x < 0 to the same expression with arguments
    psi(xy - z) - psi(-(z + y)); in both cases the arguments differ by
    y * (1 - |x|), so the y -> 0 limit uses the psi derivatives.
    """
    if abs(x) >= 1.0:
        return 0.0 + 0.0j
    c = 1.0 - abs(x)
    w2 = -(z + y * c) if x >= 0.0 else -(z + y)
    d = y * c  # the other argument is w2 + d
    phase = np.exp(2j * math.pi * y)
    if abs(d) < 1e-6:
        val = (c / (2j * math.pi)) * (_psi(w2, 1) + 0.5 * d * _psi(w2, 2))
        return complex(phase * val)
    val = (1.0 / (2j * math.pi * y)) * (_psi(w2 + d) - _psi(w2))
    return complex(phase * val)


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
                     s1=complex(vals[~neg].sum()), method="quadrature")


@dataclass(frozen=True)
class SincValue:
    s0: complex
    s1: complex
    method: str

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

    def max_deviation(self, which: str) -> float:
        return max((r.deviation(which) for r in self.rows),
                   default=0.0)

    def _matching(self, part):
        if not self.rows:
            return None
        printed = self.max_deviation(f"{part}_printed")
        derived = self.max_deviation(f"{part}_derived")
        return "derived" if derived <= printed else "printed"

    @property
    def matching_s0_reading(self):
        return self._matching("s0")

    @property
    def matching_s1_reading(self):
        return self._matching("s1")


def _s1_numeric(x, y, z, grid, reading):
    """Positive-side value from the spectral profile on the grid nodes;
    independent of the window machinery.

    G_xy evaluated on every node in (0, 1] at once: the overlap interval of
    canonical.sinc_intervals becomes an array, and empty overlaps contribute
    zero through interval_moments."""
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
    """Cross-validate the closed forms against the quadrature oracle at the
    given (x, y, z) points, for both endpoint/sign readings."""
    rows = []
    for (x, y, z) in points:
        q = S_quadrature(x, y, z, grid, fld)
        rows.append(SincComparison(
            point=(x, y, z),
            s0_quad=q.s0, s1_quad=q.s1,
            s0_printed=S0_closed(x, y, z, reading="printed"),
            s0_derived=S0_closed(x, y, z, reading="derived"),
            s1_printed=_s1_numeric(x, y, z, grid, "printed"),
            s1_derived=S1_closed(x, y, z)))
    return SincCompareReport(rows=tuple(rows))


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
