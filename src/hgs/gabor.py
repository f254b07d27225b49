"""Per-slice Gabor systems and their Parseval verification.

For a window u and lattice densities (alpha, beta), the system at spectral
parameter lam consists of the atoms

    u_{k,l}(t) = exp(-2 pi i lam beta l t) u(t - alpha k),  k, l in Z.

When u is supported on an interval no longer than 1/(beta |lam|), the frame
operator is multiplication by the periodization of |u|^2, which makes the
Parseval property an exact, finitely checkable identity (the painless
criterion).  Outside that regime, frame_bounds_empirical estimates the
bounds from one grids._node_table call over seeded test functions.

The painless criterion is evaluated for every slice of a term table at
once: |u|^2 comes as quadratics on the cells cut by the term ends, those
cells are folded into [0, alpha) and summed on the cells cut there (two
calls of windows._cover_sums), and the residual is read at the cell ends
and the parabola vertices.  painless_residual is the one-slice call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotApplicableError
from .grids import FieldSample, SpectralSet, _node_table, point_grid
from .group import QuasiLatticeSpec, _check_bounds
from .testfields import DEFAULT_SEED
from .windows import Window, _cover_sums, _modulus_cells, _ranges

_SUPPORT_SLACK = 1e-9


def _painless_table(node, lo, hi, coef, freq, lams, spec):
    """painless_residual of every slice of a term table (term r in slice
    node_r, at lams[node_r]) as (res, why): res is NaN at the slices where
    the criterion does not apply, and why maps each of them to the reason.

    The cells of |u|^2 are folded into [0, alpha) and summed there.  A
    piece end shifted by n alpha carries the rounding of n alpha, so two
    ends that meet exactly can fold to points a few ulps apart; the sliver
    cell between them is dropped rather than read as a gap or a double
    cover.
    """
    if np.any(lams == 0):
        raise DomainError("lam must be nonzero")
    n, alpha = lams.size, spec.alpha
    sup_lo, sup_hi = np.full(n, np.inf), np.full(n, -np.inf)
    np.minimum.at(sup_lo, node, lo)
    np.maximum.at(sup_hi, node, hi)
    length, limit = sup_hi - sup_lo, 1.0 / (spec.beta * np.abs(lams))
    long = length > limit * (1.0 + _SUPPORT_SLACK)
    why = {i: f"support length {length[i]} exceeds 1/(beta*|lam|) = "
              f"{limit[i]}" for i in np.flatnonzero(long).tolist()}
    live = ~long[node]
    cseg, a, b, quad, bad = _modulus_cells(node[live], lo[live], hi[live],
                                           coef[live], freq[live])
    why.update(bad)
    ok = np.ones(n, dtype=bool)
    ok[list(why)] = False
    filled = np.bincount(node, minlength=n) > 0
    # fold every cell by the shifts n alpha that meet [0, alpha), and sum
    # on [0, alpha) cut at 0 and alpha too; slivers are 8 ulps of the
    # slice's largest end or of alpha
    n0 = np.floor(a / alpha)
    c, k = _ranges(n0, np.floor(b / alpha) - n0 + 2)
    shift = k * alpha
    flo, fhi = np.maximum(a[c] - shift, 0.0), np.minimum(b[c] - shift, alpha)
    f = fhi > flo
    cut = np.flatnonzero(ok & filled)
    reach = np.full(n, float(alpha))
    np.maximum.at(reach, node, np.maximum(np.abs(lo), np.abs(hi)))
    fseg, fa, fb, q = _cover_sums(
        cseg[c[f]], flo[f], fhi[f], (0.5 * (a + b))[c[f]] - shift[f],
        quad[c[f]], cuts=(np.tile(cut, 2), np.repeat([0.0, alpha], cut.size)),
        sliver=8.0 * np.finfo(float).eps * reach)
    # candidates: cell ends and the interior vertex of the parabola
    h = 0.5 * (fb - fa)
    q0, q1, q2 = q.T
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -q1 / (2.0 * q2)
    s = np.stack([-h, h, np.where((q2 != 0.0) & (-h < v) & (v < h), v, h)])
    val = np.abs(limit[fseg] * (q0 + q1 * s + q2 * s * s) - 1.0)
    res = np.where(filled, 0.0, 1.0)   # an empty slice periodizes to 0
    np.fmax.at(res, fseg, np.fmax.reduce(val, axis=0))
    res[~ok] = np.nan
    return res, why


def painless_residual(u: Window, spec: QuasiLatticeSpec, lam: float) -> float:
    """sup_t | periodization of |u(t - alpha k)|^2 / (beta |lam|) - 1 |.

    Exact for unmodulated piecewise-polynomial windows supported on an
    interval of length <= 1/(beta |lam|); zero iff the system is a Parseval
    frame.  Raises NotApplicableError when the support condition fails or
    the window carries modulated terms.
    """
    res, why = _painless_table(np.zeros(u.n_terms, dtype=np.int64), u.lo,
                               u.hi, u.coef, u.freq,
                               np.array([lam], dtype=float), spec)
    if why:
        raise NotApplicableError(why[0])
    return float(res[0])


def _random_test_functions(rng, interval, count, n_breaks=9):
    """count seeded continuous piecewise-linear functions vanishing at the
    ends of the given interval; a draw whose breaks collide is redrawn."""
    out = []
    for _ in range(100 * count):
        breaks = np.sort(np.concatenate(
            [interval, rng.uniform(*interval, n_breaks - 2)]))
        if np.any(np.diff(breaks) <= 0):
            continue
        vals = rng.normal(size=n_breaks) + 1j * rng.normal(size=n_breaks)
        vals[0] = vals[-1] = 0.0
        out.append(Window.piecewise_linear(breaks, vals))
        if len(out) == count:
            return out
    raise RuntimeError("could not generate a test function")


def frame_bounds_empirical(u: Window, spec: QuasiLatticeSpec, lam: float,
                           trials: int = 8, kmax: int = 8, lmax: int = 64,
                           seed: int = DEFAULT_SEED):
    """Empirical (A, B) from truncated frame sums over seeded test functions.

    Returns (A_est, B_est) = min/max over trials of
    sum_{|k|<=kmax, |l|<=lmax} |<f, u_{k,l}>|^2 / ||f||^2.

    The trials sit at the nodes of a point grid that repeats lam, with u at
    every node: one _node_table call gives every <f, u_{k,l}>, and cumsum
    adds the live translations strictly in order.  A trial of squared norm
    <= 1e-12 (a support about that short) raises RuntimeError.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    _check_bounds(kmax, lmax)
    if u.n_terms == 0 or u.norm2() == 0.0:
        return 0.0, 0.0
    grid = point_grid(np.full(trials, float(lam)), SpectralSet([]))
    f = FieldSample.from_windows(grid, _random_test_functions(
        np.random.default_rng(seed), u.support(), trials))
    norms = f.slice_norm2()
    if np.any(norms <= 1e-12):
        raise RuntimeError("could not generate a nonzero test function")
    _, H = _node_table(f, FieldSample.from_windows(grid, [u] * trials),
                       spec, kmax, lmax)
    per_k = np.sum(np.abs(H) ** 2, axis=2)
    total = np.cumsum(per_k, axis=0)[-1] if per_k.size else 0.0
    ratios = total / norms
    return float(ratios.min()), float(ratios.max())


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
    return _norm_reports(np.array([lam], dtype=float),
                         np.array([u.norm2()]), spec)[0]


def _norm_reports(lams, norm2, spec: QuasiLatticeSpec) -> list:
    """norm_condition_check for arrays of lams and squared slice norms."""
    scaled = np.abs(lams) * norm2
    target = spec.alpha * spec.beta * np.abs(lams)
    return [NormConditionReport(lam=lam, scaled_norm_sq=sc, target=t,
                                difference=sc - t, density_admissible=t <= 1.0)
            for lam, sc, t in zip(lams.tolist(), scaled.tolist(),
                                  target.tolist())]
