from fractions import Fraction

import numpy as np
import pytest

from hgs.canonical import (IntervalPair, canonical_field, canonical_window,
                           intervals_Ik, sinc_intervals, tiling_check)
from hgs.errors import DomainError
from hgs.gabor import painless_residual
from hgs.grids import (FieldSample, SpectralSet, field_inner, field_load,
                       field_save, lambda_grid)
from hgs.group import QuasiLatticeSpec


def test_canonical_window_slices():
    w = canonical_window(0.5)
    assert w.support() == (1.0, 2.0)
    w = canonical_window(-0.3)
    assert w.support() == (-1.0, 0.0)
    assert canonical_window(1.0).support() == (0.0, 1.0)
    with pytest.raises(DomainError):
        canonical_window(0.0)
    with pytest.raises(DomainError):
        canonical_window(1.5)


def test_canonical_field_unit_slices():
    grid = lambda_grid(SpectralSet([(-1, 1)]), 64, 0.05)
    e = canonical_field(grid)
    norms = e.slice_norm2()
    assert np.allclose(norms, 1.0, atol=1e-14)
    assert field_inner(e, e).real == pytest.approx(grid.mass(), abs=1e-12)


def test_canonical_field_rejects_bad_grid():
    grid = lambda_grid(SpectralSet([(0.5, 2.0)]), 8, 0.05)
    with pytest.raises(DomainError):
        canonical_field(grid)


def test_canonical_field_saves_as_plain_indicators(tmp_path):
    # every slice is one plain indicator, so field_save derives its record
    # from the terms: the bytes equal those of the same windows without a
    # profile, and the file reads back to the same terms
    grid = lambda_grid(SpectralSet([(-1, 1)]), 64, 0.05)
    e = canonical_field(grid)
    field_save(e, tmp_path / "e.hgs")
    field_save(FieldSample.from_windows(grid, e.windows()),
               tmp_path / "windows.hgs")
    saved = (tmp_path / "e.hgs").read_bytes()
    assert saved == (tmp_path / "windows.hgs").read_bytes()
    back = field_load(tmp_path / "e.hgs")
    assert back.grid.same_as(grid)
    for name in ("term_node", "term_lo", "term_hi", "term_coef",
                 "term_freq"):
        assert np.array_equal(getattr(back, name), getattr(e, name)), name
    field_save(back, tmp_path / "back.hgs")
    assert (tmp_path / "back.hgs").read_bytes() == saved


def test_canonical_field_profile_off_grid():
    grid = lambda_grid(SpectralSet([(-1, 1)]), 16, 0.05)
    e = canonical_field(grid)
    w = e.slice_at(0.4)  # not a node
    assert w.support() == (1 / 0.4 - 1, 1 / 0.4)


def test_intervals_Ik_frozen_values():
    pair = intervals_Ik(0.5, 1)
    assert pair == IntervalPair((-0.5, 0.0), (1.0, 1.5))
    pair = intervals_Ik(0.5, 0)
    assert pair == IntervalPair((0.0, 0.5), (0.5, 1.0))
    pair = intervals_Ik(1.0, 3)
    assert pair.i_prev[0] == pair.i_prev[1]  # degenerate at lam = 1


def test_intervals_Ik_exact_fractions():
    lam = Fraction(3, 7)
    pair = intervals_Ik(lam, 2)
    assert pair.i_prev == (Fraction(-8, 7), Fraction(-8, 7) + Fraction(4, 7))
    assert pair.i_cur == (1 + 2 * lam - lam, 1 + 2 * lam)


def test_tiling_check_examples():
    assert tiling_check(0.5, 1)
    assert tiling_check(Fraction(37, 100), -3)
    with pytest.raises(DomainError):
        tiling_check(1.0, 0)


def test_tiling_check_exhaustive_k_range():
    for k in range(-64, 65):
        assert tiling_check(Fraction(1, 3), k)
        assert tiling_check(0.37, k)


def test_tiling_check_seeded_rationals():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        lam = Fraction(int(rng.integers(1, 1000)), 1000)
        if lam >= 1:
            continue
        k = int(rng.integers(-64, 65))
        assert tiling_check(lam, k)


def test_canonical_painless_exact_zero():
    spec = QuasiLatticeSpec(1, 1)
    grid = lambda_grid(SpectralSet([(-1, 1)]), 64, 0.05)
    e = canonical_field(grid)
    for i, lam in enumerate(grid.nodes):
        u = e.slice(i).scaled(np.sqrt(abs(lam)))
        assert painless_residual(u, spec, lam) <= 1e-12


def test_sinc_intervals_both_readings():
    si = sinc_intervals(0.0, 0.5)
    assert si.j_x == (-1.0, 0.0)
    assert si.i_xlambda == (-3.0, 2.0)           # printed base interval
    sd = sinc_intervals(0.0, 0.5, reading="derived")
    assert sd.i_xlambda == (1.0, 2.0)            # actual slice support
    assert sinc_intervals(1.0, 0.5).j_x is None  # |x| >= 1 empties j_x
    assert sinc_intervals(-1.2, 0.5).j_x is None
    assert sinc_intervals(0.5, 0.7).j_x == (-0.5, 0.0)
    assert sinc_intervals(1.2, 0.5, reading="derived").i_xlambda is None
