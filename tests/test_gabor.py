import numpy as np
import pytest

from hgs.errors import NotApplicableError
from hgs.fieldcheck import gabor_field_verdict
from hgs.gabor import (frame_bounds_empirical, gabor_atom,
                       norm_condition_check, painless_residual)
from hgs.grids import FieldSample, SpectralSet, lambda_grid
from hgs.group import QuasiLatticeSpec
from hgs.windows import Window

SPEC11 = QuasiLatticeSpec(1, 1)


def canonical_window(lam):
    if lam > 0:
        return Window.indicator(1 / lam - 1, 1 / lam, 1.0)
    return Window.indicator(-1.0, 0.0, 1.0)


def brute_periodization(u, spec, lam, t, krange=40):
    """Independent oracle: direct pointwise sum of |u(t - alpha k)|^2."""
    total = 0.0
    for k in range(-krange, krange + 1):
        total += abs(u(t - spec.alpha * k)) ** 2
    return total / (spec.beta * abs(lam))


def test_gabor_atom_identity_and_norm():
    u = Window.indicator(0, 1, 1.5)
    a = gabor_atom(u, 0.5, 0, 0, SPEC11)
    assert (a - u).norm2() == 0
    for k, l in [(1, 0), (0, 3), (-2, 5)]:
        a = gabor_atom(u, 0.5, k, l, SPEC11)
        assert a.norm2() == pytest.approx(u.norm2(), rel=1e-13)
    shifted = gabor_atom(u, 0.5, 1, 0, QuasiLatticeSpec(0.75, 1))
    assert shifted.support() == (0.75, 1.75)


def test_painless_zero_for_canonical_scaled_slices():
    for lam in [0.05, 0.21, 0.5, 0.99, 1.0]:
        u = canonical_window(lam).scaled(np.sqrt(lam))
        assert painless_residual(u, SPEC11, lam) <= 1e-12


def test_painless_unnormalized_indicator():
    # norm-1 indicator without the sqrt(lam) scale at lam = 1/2:
    # periodization is identically 2, residual |2 - 1| = 1
    u = Window.indicator(0, 1, 1.0)
    assert painless_residual(u, SPEC11, 0.5) == pytest.approx(1.0, abs=1e-12)


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
        brute = max(abs(brute_periodization(u, spec, lam, t) - 1.0)
                    for t in ts)
        assert res >= brute - 1e-9
        assert res <= brute + 0.75  # sup can exceed a finite scan


def test_frame_bounds_canonical_near_one():
    lam = 0.5
    u = canonical_window(lam).scaled(np.sqrt(lam))
    a, b = frame_bounds_empirical(u, SPEC11, lam, trials=8, kmax=8, lmax=64)
    assert 0.99 <= a <= b <= 1.01


def test_frame_bounds_zero_window():
    assert frame_bounds_empirical(Window.zero(), SPEC11, 0.5) == (0.0, 0.0)


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
