"""Per-slice Gabor systems and their Parseval verification.

For a window u and lattice densities (alpha, beta), the system at spectral
parameter lam consists of the atoms

    u_{k,l}(t) = exp(-2 pi i lam beta l t) u(t - alpha k),  k, l in Z.

When u is supported on an interval no longer than 1/(beta |lam|), the frame
operator is multiplication by the periodization of |u|^2, which makes the
Parseval property an exact, finitely checkable identity (the painless
criterion).  An empirical frame-bound estimator covers windows outside that
regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotApplicableError, WindowStructureError
from .group import QuasiLatticeSpec
from .windows import Window, _recenter

DEFAULT_SEED = 0x5EED
_SUPPORT_SLACK = 1e-9


def gabor_atom(u: Window, lam: float, k: int, l: int,
               spec: QuasiLatticeSpec) -> Window:
    """Translated and modulated copy of u; norm preserved exactly."""
    if lam == 0:
        raise DomainError("lam must be nonzero")
    return u.translate(spec.alpha * k).modulate(-lam * spec.beta * l)


def _fold_quadratics(breaks, quad, alpha):
    """Fold the pieces of |u|^2 into one period [0, alpha) and return the
    breakpoint partition with accumulated quadratic coefficients.

    A piece end shifted by n alpha carries the rounding of n alpha, so two
    ends that meet exactly can fold to points a few ulps apart; the sliver
    cell between them is dropped rather than read as a gap or a double
    cover."""
    folded = []
    for c in range(breaks.size - 1):
        lo, hi = breaks[c], breaks[c + 1]
        mid = 0.5 * (lo + hi)
        n0 = int(np.floor(lo / alpha))
        n1 = int(np.floor(hi / alpha)) + 1
        for n in range(n0, n1 + 1):
            a, b = lo - n * alpha, hi - n * alpha
            cl, ch = max(a, 0.0), min(b, alpha)
            if ch > cl:
                folded.append((cl, ch, mid - n * alpha, quad[c]))
    pts = sorted({0.0, alpha}
                 | {p for lo, hi, _, _ in folded for p in (lo, hi)})
    pts = np.array(pts)
    sliver = 8.0 * np.finfo(float).eps * max(alpha, np.abs(breaks).max())
    cells = []
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a <= sliver:
            continue
        m = 0.5 * (a + b)
        acc = np.zeros(3)
        for lo, hi, mid, q in folded:
            if lo <= a and hi >= b:
                # recenter the quadratic at the cell midpoint
                acc += _recenter(q, m - mid)
        cells.append((a, b, acc))
    return cells


def painless_residual(u: Window, spec: QuasiLatticeSpec, lam: float) -> float:
    """sup_t | periodization of |u(t - alpha k)|^2 / (beta |lam|) - 1 |.

    Exact for unmodulated piecewise-polynomial windows supported on an
    interval of length <= 1/(beta |lam|); zero iff the system is a Parseval
    frame.  Raises NotApplicableError when the support condition fails or
    the window carries modulated terms.
    """
    if lam == 0:
        raise DomainError("lam must be nonzero")
    sup = u.support()
    if sup is None:
        return 1.0  # zero window: periodization is identically 0
    length = sup[1] - sup[0]
    limit = 1.0 / (spec.beta * abs(lam))
    if length > limit * (1.0 + _SUPPORT_SLACK):
        raise NotApplicableError(
            f"support length {length} exceeds 1/(beta*|lam|) = {limit}")
    try:
        breaks, quad = u.squared_modulus_pieces()
    except WindowStructureError as exc:
        raise NotApplicableError(str(exc)) from None
    cells = _fold_quadratics(breaks, quad, spec.alpha)
    scale = 1.0 / (spec.beta * abs(lam))
    worst = 0.0
    for a, b, (q0, q1, q2) in cells:
        h = 0.5 * (b - a)
        # candidates: cell ends and the interior vertex of the parabola
        ss = [-h, h]
        if q2 != 0.0:
            v = -q1 / (2.0 * q2)
            if -h < v < h:
                ss.append(v)
        for s in ss:
            val = scale * (q0 + q1 * s + q2 * s * s) - 1.0
            worst = max(worst, abs(val))
    return worst


def _random_test_function(rng, interval, n_breaks=9):
    """Seeded continuous piecewise-linear function vanishing at the ends of
    the given interval; regenerated if it degenerates to zero."""
    a, b = interval
    for _ in range(100):
        breaks = np.sort(np.concatenate(
            [[a, b], rng.uniform(a, b, n_breaks - 2)]))
        if np.any(np.diff(breaks) <= 0):
            continue
        vals = rng.normal(size=n_breaks) + 1j * rng.normal(size=n_breaks)
        vals[0] = vals[-1] = 0.0
        w = Window.piecewise_linear(breaks, vals)
        if w.norm2() > 1e-12:
            return w
    raise RuntimeError("could not generate a nonzero test function")


def frame_bounds_empirical(u: Window, spec: QuasiLatticeSpec, lam: float,
                           trials: int = 8, kmax: int = 8, lmax: int = 64,
                           seed: int = DEFAULT_SEED):
    """Empirical (A, B) from truncated frame sums over seeded test functions.

    Returns (A_est, B_est) = min/max over trials of
    sum_{|k|<=kmax, |l|<=lmax} |<f, u_{k,l}>|^2 / ||f||^2.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if u.n_terms == 0 or u.norm2() == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    interval = u.support()
    ls = np.arange(-lmax, lmax + 1)
    ratios = []
    for _ in range(trials):
        f = _random_test_function(rng, interval)
        total = 0.0
        for k in range(-kmax, kmax + 1):
            shifted = u.translate(spec.alpha * k)
            coeffs = f.inner_freq_sweep(shifted, -lam * spec.beta * ls)
            total += float(np.sum(np.abs(coeffs) ** 2))
        ratios.append(total / f.norm2())
    return min(ratios), max(ratios)


@dataclass(frozen=True)
class NormConditionReport:
    """Norm identity required of every Gabor-field slice."""

    lam: float
    scaled_norm_sq: float   # || |lam|^{1/2} u ||^2
    target: float           # alpha * beta * |lam|
    difference: float
    density_admissible: bool  # alpha * beta * |lam| <= 1

    @property
    def passed(self):
        return self.difference == 0.0 and self.density_admissible

    def within(self, tol):
        return abs(self.difference) <= tol and self.density_admissible


def norm_condition_check(u: Window, spec: QuasiLatticeSpec,
                         lam: float) -> NormConditionReport:
    """Check || |lam|^{1/2} u ||^2 = alpha*beta*|lam| and alpha*beta*|lam| <= 1."""
    if lam == 0:
        raise DomainError("lam must be nonzero")
    scaled = abs(lam) * u.norm2()
    target = spec.alpha * spec.beta * abs(lam)
    return NormConditionReport(
        lam=lam, scaled_norm_sq=scaled, target=target,
        difference=scaled - target,
        density_admissible=spec.alpha * spec.beta * abs(lam) <= 1.0)
