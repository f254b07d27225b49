import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import fieldcheck, gabor
from hgs.canonical import canonical_field
from hgs.errors import NotApplicableError
from hgs.fieldcheck import gabor_field_verdict
from hgs.gabor import (frame_bounds_empirical, norm_condition_check,
                       painless_residual)
from hgs.grids import FieldSample, LambdaGrid, SpectralSet, lambda_grid
from hgs.group import QuasiLatticeSpec
from hgs.testfields import random_pl_field
from hgs.windows import Window

SPEC11 = QuasiLatticeSpec(1, 1)


def canonical_window(lam):
    if lam > 0:
        return Window.indicator(1 / lam - 1, 1 / lam, 1.0)
    return Window.indicator(-1.0, 0.0, 1.0)


def _periodization(u, spec, lam, ts, krange=40):
    """sum_k |u(t - alpha k)|^2 / (beta |lam|) at every t, pointwise."""
    ks = np.arange(-krange, krange + 1)
    vals = u(np.asarray(ts)[:, None] - spec.alpha * ks[None, :])
    return np.sum(np.abs(vals) ** 2, axis=1) / (spec.beta * abs(lam))


def test_painless_zero_for_canonical_scaled_slices():
    for lam in [0.05, 0.21, 0.5, 0.99, 1.0]:
        u = canonical_window(lam).scaled(np.sqrt(lam))
        assert painless_residual(u, SPEC11, lam) <= 1e-12


def test_painless_unnormalized_indicator():
    # norm-1 indicator without the sqrt(lam) scale at lam = 1/2:
    # periodization is identically 2, residual |2 - 1| = 1
    u = Window.indicator(0, 1, 1.0)
    assert painless_residual(u, SPEC11, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_painless_interior_vertex():
    # |u|^2 = (1 - 2t)^2 covers [0, 1) once: 1 at the cell ends, 0 at the
    # vertex t = 1/2, where the residual |0 - 1| is attained
    u = Window.piecewise_linear([0.0, 1.0], [1.0, -1.0])
    assert painless_residual(u, SPEC11, 1.0) == 1.0


def test_painless_coverage_gap():
    u = Window.indicator(0, 0.5, 1.0)
    assert painless_residual(u, SPEC11, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_painless_support_condition_violated():
    u = Window.indicator(0, 3, 1.0)
    with pytest.raises(NotApplicableError):
        painless_residual(u, SPEC11, 1.0)


def test_painless_modulated_window_not_applicable():
    u = Window.indicator(0, 1).modulate(2.0)
    with pytest.raises(NotApplicableError):
        painless_residual(u, SPEC11, 1.0)


def test_painless_matches_brute_periodization():
    rng = np.random.default_rng(17)
    spec = QuasiLatticeSpec(1, 1)
    for _ in range(10):
        lam = rng.uniform(0.3, 1.0)
        breaks = np.sort(rng.uniform(0, 1 / lam, 4))
        breaks[0], breaks[-1] = 0.0, min(1 / lam, 0.99 / lam)
        if np.any(np.diff(breaks) <= 0):
            continue
        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = Window.piecewise_linear(breaks, vals)
        res = painless_residual(u, spec, lam)
        ts = rng.uniform(0, 1, 200)
        brute = np.max(np.abs(_periodization(u, spec, lam, ts) - 1.0))
        assert res >= brute - 1e-9
        assert res <= brute + 0.75  # sup can exceed a finite scan


def _reference_frame_bounds(u, spec, lam, trials=8, kmax=8, lmax=64,
                            seed=gabor.DEFAULT_SEED):
    """The frame sums as a loop over trials and translations, one
    inner_freq_sweep per (trial, k), over the same seeded test functions."""
    if u.n_terms == 0 or u.norm2() == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    a, b = u.support()
    ls = np.arange(-lmax, lmax + 1)
    ratios = []
    while len(ratios) < trials:
        breaks = np.sort(np.concatenate([[a, b], rng.uniform(a, b, 7)]))
        if np.any(np.diff(breaks) <= 0):
            continue
        vals = rng.normal(size=9) + 1j * rng.normal(size=9)
        vals[0] = vals[-1] = 0.0
        f = Window.piecewise_linear(breaks, vals)
        if f.norm2() <= 1e-12:
            continue
        total = 0.0
        for k in range(-kmax, kmax + 1):
            coeffs = f.inner_freq_sweep(u.translate(spec.alpha * k),
                                        -lam * spec.beta * ls)
            total += float(np.sum(np.abs(coeffs) ** 2))
        ratios.append(total / f.norm2())
    return min(ratios), max(ratios)


def test_frame_bounds_match_translation_loop_at_defaults():
    # the fallback slices of a random piecewise-linear field, at the
    # verdict's default truncation
    g = random_pl_field(lambda_grid(SpectralSet([(-1.0, 1.0)]), 64, 0.05), 0)
    for i in (0, 17, 40, 63):
        u, lam = g.slice(i), g.grid.nodes[i]
        for spec in (SPEC11, QuasiLatticeSpec(0.8, 1.25)):
            assert frame_bounds_empirical(u, spec, lam) == pytest.approx(
                _reference_frame_bounds(u, spec, lam), rel=1e-13, abs=0)


def test_frame_bounds_canonical_near_one():
    lam = 0.5
    u = canonical_window(lam).scaled(np.sqrt(lam))
    a, b = frame_bounds_empirical(u, SPEC11, lam, trials=8, kmax=8, lmax=64)
    assert 0.99 <= a <= b <= 1.01


def test_frame_bounds_zero_window():
    assert frame_bounds_empirical(Window.zero(), SPEC11, 0.5) == (0.0, 0.0)


def test_frame_bounds_degenerate_support_raises():
    # every test function on a support this short has a negligible norm
    with pytest.raises(RuntimeError):
        frame_bounds_empirical(Window.indicator(0.0, 1e-13), SPEC11, 0.5)


def test_frame_bounds_monotone_in_truncation():
    lam = 0.5
    u = canonical_window(lam).scaled(np.sqrt(lam))
    _, b1 = frame_bounds_empirical(u, SPEC11, lam, trials=3, kmax=2, lmax=8)
    _, b2 = frame_bounds_empirical(u, SPEC11, lam, trials=3, kmax=4, lmax=16)
    assert b2 >= b1 - 1e-12


def test_frame_bounds_deterministic_seed():
    lam = 0.5
    u = canonical_window(lam).scaled(np.sqrt(lam))
    r1 = frame_bounds_empirical(u, SPEC11, lam, trials=2, kmax=2, lmax=8, seed=7)
    r2 = frame_bounds_empirical(u, SPEC11, lam, trials=2, kmax=2, lmax=8, seed=7)
    assert r1 == r2


def test_norm_condition_canonical():
    lam = 0.5
    rep = norm_condition_check(canonical_window(lam), SPEC11, lam)
    assert rep.scaled_norm_sq == pytest.approx(0.5, abs=0)
    assert rep.target == pytest.approx(0.5, abs=0)
    assert rep.difference == 0.0
    assert rep.density_admissible and rep.passed


def test_norm_condition_density_failure():
    lam = 2.0
    rep = norm_condition_check(canonical_window(lam), SPEC11, lam)
    assert rep.target == pytest.approx(2.0)
    assert not rep.density_admissible
    assert not rep.passed


def test_norm_condition_zero_window():
    rep = norm_condition_check(Window.zero(), SPEC11, 0.5)
    assert rep.scaled_norm_sq == 0.0
    assert rep.difference != 0.0
    assert not rep.passed


def test_painless_parseval_implies_norm_condition():
    # wherever the painless residual vanishes, the norm identity is exact
    for lam in [0.11, 0.37, 0.73, 1.0]:
        u = canonical_window(lam).scaled(np.sqrt(lam))
        if painless_residual(u, SPEC11, lam) <= 1e-12:
            rep = norm_condition_check(canonical_window(lam), SPEC11, lam)
            assert abs(rep.difference) <= 1e-12


def _transported_window(lam, alpha):
    """Slice at lam of the canonical field moved to alpha Z x (1/alpha) Z x
    Z by the automorphism (x, y, z) -> (alpha x, y / alpha, z)."""
    scale = alpha ** -0.5
    if lam > 0:
        return Window.indicator(alpha * (1 / lam - 1), alpha / lam, scale)
    return Window.indicator(-alpha, 0.0, scale)


def test_painless_non_dyadic_alpha_fold():
    # folding the ends by n alpha leaves points 2.2e-16 apart; the sliver
    # between them is neither a gap nor a double cover
    alpha, lam = 0.8, 0.36171875
    u = _transported_window(lam, alpha).scaled(np.sqrt(lam))
    assert painless_residual(u, QuasiLatticeSpec(alpha, 1.25), lam) <= 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.8, 1.25), (1.25, 0.8)])
def test_gabor_field_verdict_transported_non_dyadic(alpha, beta):
    grid = lambda_grid(SpectralSet([(-1.0, 1.0)]), 64, 0.05)
    f = FieldSample.from_windows(
        grid, [_transported_window(lam, alpha) for lam in grid.nodes])
    rep = gabor_field_verdict(f, QuasiLatticeSpec(alpha, beta))
    assert all(s.painless is not None for s in rep.slices)
    assert rep.passed
    assert rep.worst_residual <= 1e-12


def test_gabor_field_verdict_canonical_builds_no_window(monkeypatch):
    # one table call and one slice_norm2 call: no per-slice painless
    # residual, window norm or window at all
    e = canonical_field(lambda_grid(SpectralSet([(-1.0, 1.0)]), 64, 0.05))

    def boom(*args, **kwargs):
        raise AssertionError("per-slice call")
    monkeypatch.setattr(gabor, "painless_residual", boom)
    monkeypatch.setattr(fieldcheck, "frame_bounds_empirical", boom)
    monkeypatch.setattr(Window, "norm2", boom)
    monkeypatch.setattr(Window, "__init__", boom)
    rep = gabor_field_verdict(e, SPEC11)
    assert rep.passed and rep.worst_residual <= 1e-12
    assert rep.worst_norm_error == 0


# -- the table verdict against one-slice calls on generated fields -----------

_EMPIRICAL = {"trials": 1, "kmax": 1, "lmax": 4}


def _painless_pointwise(u, spec, lam):
    """sup_t |periodization - 1| from pointwise values: on each cell
    between the folded piece ends the periodization is one quadratic,
    fitted through three interior points and read at the cell ends and
    its vertex; cells below 1e-9 are skipped."""
    alpha = spec.alpha
    ends = np.mod(np.concatenate([u.lo, u.hi]), alpha)
    pts = np.unique(np.concatenate([ends, [0.0, alpha]]))
    worst = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-9:
            continue
        ts = a + (b - a) * np.array([0.25, 0.5, 0.75])
        c = np.polyfit(ts - a, _periodization(u, spec, lam, ts), 2)
        cand = [0.0, b - a]
        if c[0] != 0 and 0 < -c[1] / (2 * c[0]) < b - a:
            cand.append(-c[1] / (2 * c[0]))
        worst = max(worst, max(abs(np.polyval(c, x) - 1.0) for x in cand))
    return worst


_eighths = st.integers(-16, 16).map(lambda j: j / 8)
_coefs = st.integers(-4, 4).map(lambda j: j / 2)


@st.composite
def _slices(draw, lam, spec):
    """A window of one of the kinds the verdict tells apart, within the
    support limit 1/(beta |lam|) unless it is meant to be too long."""
    limit = 1.0 / (spec.beta * abs(lam))
    kind = draw(st.sampled_from(["empty", "tight", "indicator", "pl",
                                 "modulated", "long", "quadratic"]))
    a = draw(_eighths)
    w = min(draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])), limit)
    if kind == "empty":
        return Window.zero()
    if kind == "long":
        return Window.indicator(a, a + limit + 0.5)
    if kind == "tight":     # Parseval when alpha <= limit
        return Window.indicator(a, a + spec.alpha, spec.beta ** 0.5)
    if kind == "quadratic":
        return Window([a], [a + w], [[1.0, 0.5, 0.25]], [0.0])
    u = Window.indicator(a, a + w, complex(draw(_coefs), draw(_coefs)))
    if kind == "modulated":
        return u.modulate(0.5)
    if kind == "pl":
        # two overlapping piecewise-linear terms plus the indicator
        for _ in range(2):
            breaks = sorted(draw(st.sets(st.integers(0, 8), min_size=2,
                                         max_size=4)))
            vals = [complex(draw(_coefs), draw(_coefs)) for _ in breaks]
            u = u + Window.piecewise_linear(
                a + w * np.array(breaks) / 8, vals)
    return u


@st.composite
def _fields(draw):
    spec = QuasiLatticeSpec(draw(st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0])),
                            draw(st.sampled_from([0.5, 0.8, 1.0, 1.25])))
    lams = sorted(draw(st.sets(st.sampled_from(
        [-1.0, -0.5, 0.25, 0.4, 0.5, 0.75, 1.0]), min_size=1, max_size=5)))
    windows = [draw(_slices(lam, spec)) for lam in lams]
    grid = LambdaGrid(np.array(lams), np.ones(len(lams)), 0.25,
                      SpectralSet([(-1.0, 1.0)]), "custom")
    return spec, FieldSample.from_windows(grid, windows), windows


@settings(max_examples=60, deadline=None)
@given(_fields(), st.integers(0, 2 ** 32 - 1))
def test_gabor_field_verdict_matches_one_slice_calls_property(case, seed):
    spec, f, windows = case
    rep = gabor_field_verdict(f, spec, empirical_kw=_EMPIRICAL)
    ts = np.random.default_rng(seed).uniform(0.0, spec.alpha, 64)
    for s, w in zip(rep.slices, windows):
        u = w.scaled(np.sqrt(abs(s.lam)))
        assert s.norm.difference == pytest.approx(
            norm_condition_check(w, spec, s.lam).difference, abs=1e-12)
        try:
            want = painless_residual(u, spec, s.lam)
        except NotApplicableError:
            assert s.painless is None
            assert s.empirical == frame_bounds_empirical(u, spec, s.lam,
                                                         **_EMPIRICAL)
            continue
        assert s.empirical is None
        assert s.painless == want
        if w.n_terms == 0:
            assert s.painless == 1.0
            continue
        brute = np.max(np.abs(_periodization(u, spec, s.lam, ts) - 1.0))
        assert s.painless >= brute - 1e-9
        assert s.painless == pytest.approx(
            _painless_pointwise(u, spec, s.lam), rel=1e-9, abs=1e-9)


# -- frame bounds on generated windows ---------------------------------------

@st.composite
def _frame_windows(draw, lam, spec):
    """An empty, indicator, overlapping piecewise-linear, modulated or
    over-long window.  The modulated one carries two frequencies and may
    be longer than alpha, so the phases of its translates matter."""
    kind = draw(st.sampled_from(["empty", "indicator", "pl", "modulated",
                                 "long"]))
    a = draw(_eighths)
    if kind == "empty":
        return Window.zero()
    if kind == "long":
        return Window.indicator(a, a + 1.0 / (spec.beta * abs(lam)) + 0.5)
    w = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    u = Window.indicator(a, a + w, complex(draw(_coefs), draw(_coefs)))
    if kind == "indicator":
        return u
    breaks = sorted(draw(st.sets(st.integers(0, 8), min_size=2, max_size=4)))
    pl = Window.piecewise_linear(a + w * np.array(breaks) / 8,
                                 [complex(draw(_coefs), draw(_coefs))
                                  for _ in breaks])
    if kind == "modulated":
        return u + pl.modulate(draw(st.sampled_from([0.5, -1.25, 2.0])))
    return u + pl


_DENSITIES = st.sampled_from([0.5, 0.8, 1.0, 1.25])


@settings(max_examples=60, deadline=None)
@given(_DENSITIES, _DENSITIES,
       st.sampled_from([-1.0, -0.45, 0.3, 0.75, 1.0]), st.data())
def test_frame_bounds_match_translation_loop_property(alpha, beta, lam, data):
    spec = QuasiLatticeSpec(alpha, beta)
    u = data.draw(_frame_windows(lam, spec))
    kw = {"trials": 2, "kmax": 3, "lmax": 6,
          "seed": data.draw(st.integers(0, 2 ** 32 - 1))}
    assert frame_bounds_empirical(u, spec, lam, **kw) == pytest.approx(
        _reference_frame_bounds(u, spec, lam, **kw), rel=1e-13, abs=0)
