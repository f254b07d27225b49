import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from hgs.canonical import canonical_field, sinc_intervals
from hgs.grids import SpectralSet, gauss_lambda_grid, lambda_grid
from hgs.sinc import (G_xy, S0_closed, S1_closed, S_quadrature,
                      _divided_difference, _s1_numeric, seeded_strip_points,
                      sinc_compare)
from hgs.windows import indicator_transform

E_FULL = SpectralSet([(-1.0, 1.0)])


def F_xy(lam, x, y):
    """Negative-side spectral profile, the integrand of the defining
    integral of s0: -lam * 1_[-1,0](lam) * FT(1_{J_x})(lam*y)."""
    if not -1.0 <= lam <= 0.0:
        return 0.0 + 0.0j
    si = sinc_intervals(x, 0.5)  # j_x does not depend on lam
    if si.j_x is None:
        return 0.0 + 0.0j
    a, b = si.j_x
    return complex(-lam * indicator_transform(a, b, lam * y)[()])


@pytest.fixture(scope="module")
def kernel_grid():
    grid = gauss_lambda_grid(E_FULL, 2048, lambda_min=1e-8, order=8)
    return grid, canonical_field(grid)


def quad_complex(fn, a, b):
    re = quad(lambda t: fn(t).real, a, b, limit=300)[0]
    im = quad(lambda t: fn(t).imag, a, b, limit=300)[0]
    return complex(re, im)


# -- spectral profiles --------------------------------------------------------

def test_F_xy_outside_support():
    assert F_xy(0.5, 0.3, 1.0) == 0
    assert F_xy(-1.5, 0.3, 1.0) == 0


def test_F_xy_empty_overlap():
    for x in (1.0, -1.2, 3.0):
        for lam in (-0.8, -0.2):
            assert F_xy(lam, x, 0.7) == 0


def test_F_xy_zero_frequency_limit():
    # value at y = 0 is -lam * |J_x|
    lam, x = -0.6, 0.25
    assert F_xy(lam, x, 0.0) == pytest.approx(-lam * (1 - abs(x)), abs=1e-15)
    small = F_xy(lam, x, 1e-9)
    assert small == pytest.approx(-lam * (1 - abs(x)), abs=1e-8)


def test_G_xy_outside_support_and_zero_freq():
    assert G_xy(-0.5, 0.2, 0.4) == 0
    lam = 0.4
    # printed reading keeps the long base interval of length 2/lam + 1
    assert G_xy(lam, 0.0, 0.0) == pytest.approx(lam * (2 / lam + 1), rel=1e-14)
    assert G_xy(lam, 0.0, 0.0, reading="derived") == pytest.approx(lam,
                                                                   rel=1e-14)


def test_G_xy_continuous_in_x():
    # numerical continuity scan across overlap breakpoints
    lam, y = 0.7, 0.9
    for reading in ("printed", "derived"):
        xs = np.linspace(-1.3, 1.3, 261)
        vals = np.array([G_xy(lam, float(x), y, reading) for x in xs])
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.06


# -- closed forms -------------------------------------------------------------

def test_S0_frozen_value():
    want = -1.0 / (3.0 * np.pi ** 2)
    assert S0_closed(0.5, 1.0, 1.0) == pytest.approx(want, abs=1e-9)
    assert S0_closed(0.5, 1.0, 1.0, reading="derived") == \
        pytest.approx(-want, abs=1e-9)


def test_S0_vanishes_outside_strip():
    # both readings are +0 there, so no CSV row prints -0
    for point in ((1.5, 0.3, 0.7), (-1.0, 0.3, 0.7), (3.0, -0.2, 0.1)):
        for val in (S0_closed(*point), S0_closed(*point, reading="derived"),
                    S1_closed(*point)):
            assert val == 0
            assert math.copysign(1.0, val.real) == 1.0
            assert math.copysign(1.0, val.imag) == 1.0


def test_S0_derived_matches_profile_integral():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9)
        y = rng.uniform(-1.5, 1.5)
        z = rng.uniform(-1.5, 1.5)
        want = quad_complex(
            lambda lam: F_xy(lam, x, y) * np.exp(-2j * np.pi * lam * z),
            -1.0, 0.0)
        assert S0_closed(x, y, z, reading="derived") == \
            pytest.approx(want, abs=1e-12)
        assert S0_closed(x, y, z) == pytest.approx(-want, abs=1e-12)


def test_S0_exceptional_lines_finite_and_continuous():
    # y -> 0 for both S0 readings and S1, x of both signs, on both sides of
    # |c y| = 1e-6 where the divided difference switches to the p = 1, 2
    # moment rows
    forms = (lambda x, y: S0_closed(x, y, 0.3),
             lambda x, y: S0_closed(x, y, 0.3, reading="derived"),
             lambda x, y: S1_closed(x, y, 0.3))
    for x in (-0.75, -0.4, 0.25, 0.6):
        c = 1.0 - abs(x)
        for form in forms:
            base = form(x, 1e-9)
            assert np.isfinite(base.real) and np.isfinite(base.imag)
            assert base == pytest.approx(form(x, 1e-5), abs=1e-4)
            assert base == pytest.approx(form(x, 0.0), abs=1e-8)
            for side in (1.0, -1.0):
                inner = form(x, side * (1.0 - 1e-6) * 1e-6 / c)
                outer = form(x, side * (1.0 + 1e-6) * 1e-6 / c)
                assert abs(inner - outer) <= 1e-8 * abs(inner)
    for x in (-0.4, 0.6):
        for z in (0.0, -1e-9):
            v = S0_closed(x, 0.7, z, reading="derived")
            assert np.isfinite(v.real) and np.isfinite(v.imag)
    # vanishing case denominators z = xy and z = -y
    assert np.isfinite(S0_closed(-0.5, 0.8, -0.4, reading="derived").real)
    assert np.isfinite(S0_closed(-0.5, 0.8, -0.8, reading="derived").real)


@pytest.mark.parametrize("point", [(0.3, 0.0, 1e102), (0.0, 0.0, 1e300),
                                   (0.3, 1e-300, 1e300), (-0.6, 0.0, -3e154)])
def test_closed_forms_finite_far_out_in_z(point):
    # at y = 0 both forms take the p = 1, 2 moment rows at w ~ z, where
    # closed numerators over (2 pi i w)^(p + 1) would overflow; the forms
    # decay like 1/|z|
    for val in (S0_closed(*point), S0_closed(*point, reading="derived"),
                S1_closed(*point)):
        assert np.isfinite(val) and abs(val) <= 1.0 / abs(point[2])


def test_S0_readings_are_negatives():
    rng = np.random.default_rng(34)
    for _ in range(50):
        x, y, z = rng.uniform(-1.2, 1.2), *rng.uniform(-1.5, 1.5, 2)
        assert S0_closed(x, y, z, "printed") == \
            -S0_closed(x, y, z, "derived")


def test_S1_matches_profile_integral():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9)
        y = rng.uniform(-1.5, 1.5)
        z = rng.uniform(-1.5, 1.5)
        want = quad_complex(
            lambda lam: G_xy(lam, x, y, "derived")
            * np.exp(-2j * np.pi * lam * z), 1e-12, 1.0)
        assert S1_closed(x, y, z) == pytest.approx(want, abs=1e-10)


def test_S0_conjugate_reflection():
    # the negative-side profile is a real-interval transform, so flipping z
    # and y conjugates the value
    rng = np.random.default_rng(21)
    for _ in range(8):
        x = rng.uniform(-0.9, 0.9)
        y = rng.uniform(-1.2, 1.2)
        z = rng.uniform(-1.2, 1.2)
        a = S0_closed(x, y, z, reading="derived")
        b = S0_closed(x, -y, -z, reading="derived")
        assert a == pytest.approx(np.conj(b), abs=1e-12)


# -- quadrature oracle --------------------------------------------------------

def test_S_quadrature_at_identity(kernel_grid):
    grid, e = kernel_grid
    v = S_quadrature(0.0, 0.0, 0.0, grid, e)
    assert v.s == pytest.approx(grid.mass(), abs=1e-12)
    assert abs(v.s - 1.0) <= 1e-12


def test_S_quadrature_vanishes_outside_strip(kernel_grid):
    grid, e = kernel_grid
    for x in (1.0, 1.5, -2.0):
        v = S_quadrature(x, 0.2, 0.3, grid, e)
        assert abs(v.s) <= 1e-12


def test_S_quadrature_matches_closed_forms(kernel_grid):
    grid, e = kernel_grid
    v = S_quadrature(0.5, 1.0, 1.0, grid, e)
    assert v.s0 == pytest.approx(1.0 / (3.0 * np.pi ** 2), abs=1e-6)
    assert v.s0 == pytest.approx(
        S0_closed(0.5, 1.0, 1.0, reading="derived"), abs=1e-9)
    assert v.s1 == pytest.approx(S1_closed(0.5, 1.0, 1.0), abs=1e-9)


def test_sinc_compare_seeded_points(kernel_grid):
    grid, e = kernel_grid
    pts = seeded_strip_points(25, seed=7)
    rep = sinc_compare(pts, grid, e)
    assert rep.max_deviation("s0_derived") <= 1e-6
    assert rep.max_deviation("s1_derived") <= 1e-6
    assert rep.matching_s0_reading == "derived"
    assert rep.matching_s1_reading == "derived"
    # the printed readings are genuinely wrong, and measurably so
    assert rep.max_deviation("s0_printed") > 1e-2


def test_s1_numeric_matches_profile_sum():
    # the array evaluation against the scalar profile summed node by node,
    # inside the strip and beyond it (empty overlaps on part of the grid)
    grid = gauss_lambda_grid(E_FULL, 256, lambda_min=1e-8, order=8)
    pts = seeded_strip_points(6, seed=11) + [(1.25, 0.3, -0.2),
                                             (-1.0, 0.4, 0.1)]
    for (x, y, z) in pts:
        for reading in ("printed", "derived"):
            ref = sum(G_xy(lam, x, y, reading=reading)
                      * np.exp(-2j * np.pi * lam * z) * w / abs(lam)
                      for lam, w in zip(grid.nodes, grid.weights) if lam > 0)
            got = _s1_numeric(x, y, z, grid, reading)
            assert abs(got - ref) <= 1e-13, (x, y, z, reading)


def test_sinc_compare_columns_are_the_scalar_calls():
    # one array call per closed-form column, bit for bit the scalar forms
    # (repr tells signed zeros apart), y = 0 and the strip's edge included
    grid = lambda_grid(E_FULL, 16, 0.05)
    pts = seeded_strip_points(40, seed=19) + [
        (0.3, 0.0, 0.1), (-0.6, 1e-9, 0.2), (0.25, 4e-7, -0.3),
        (0.0, 0.0, 0.0), (1.5, 0.2, 0.3), (-1.0, 0.3, 0.7)]
    rep = sinc_compare(pts, grid, canonical_field(grid))
    for r, (x, y, z) in zip(rep.rows, pts):
        assert repr(r.s0_printed) == repr(S0_closed(x, y, z))
        assert repr(r.s0_derived) == repr(S0_closed(x, y, z, "derived"))
        assert repr(r.s1_derived) == repr(S1_closed(x, y, z))


@pytest.mark.parametrize("pieces", [
    [(0.25, 0.75)], [(-0.75, -0.2)], [(0.0, 1.0)], [(-1.0, -0.5)],
    [(-0.9, -0.4), (0.3, 0.8)], [(-0.5, 0.5)]])
def test_sub_band_forms_match_oracle(pieces):
    # the derived forms over the set's pieces against S_quadrature on its
    # own Gauss grid, in criterion 7's measure; the printed s0 formula is
    # the full band's, so no s0 reading is named
    grid = gauss_lambda_grid(SpectralSet(pieces), 256, lambda_min=1e-8,
                             order=8)
    rep = sinc_compare(seeded_strip_points(20, seed=23), grid,
                       canonical_field(grid))
    assert rep.max_deviation("s0_derived") <= 1e-6
    assert rep.max_deviation("s1_derived") <= 1e-6
    assert not rep.printed_s0_applies
    assert rep.matching_s0_reading is None
    assert rep.matching_s1_reading == "derived"


@pytest.mark.parametrize("pieces", [[(-1.0, 0.5)],
                                    [(-1.0, -0.5), (-0.5, 1.0)]])
def test_printed_s0_applies_where_set_covers_negative_band(pieces):
    # s0 there is the full band's s0, so the readings compare
    grid = gauss_lambda_grid(SpectralSet(pieces), 256, lambda_min=1e-8,
                             order=8)
    rep = sinc_compare(seeded_strip_points(10, seed=29), grid,
                       canonical_field(grid))
    assert rep.printed_s0_applies
    assert rep.matching_s0_reading == "derived"
    assert rep.max_deviation("s0_derived") <= 1e-6
    assert rep.max_deviation("s0_printed") > 1e-2


def _dd(pieces, w, c, y):
    return complex(_divided_difference(
        pieces, *(np.array([v], dtype=float) for v in (w, c, y)))[0])


_unit = st.floats(0.0, 1.0)
# the strip's |y| range; nearer y = 0 the far quotient's rounding grows
# like eps / |y| on both sides of a split
_strip_y = st.floats(5e-3, 0.45) | st.floats(-0.45, -5e-3)


@given(_unit, _unit, st.floats(0.01, 0.99), st.floats(-20.0, 20.0),
       st.floats(0.05, 1.0), _strip_y)
def test_divided_difference_additive_over_pieces(a, b, t, w, c, y):
    lo, hi = min(a, b), max(a, b)
    cut = lo + t * (hi - lo)
    whole = _dd([(lo, hi)], w, c, y)
    split = _dd([(lo, cut), (cut, hi)], w, c, y)
    assert abs(whole - split) <= 1e-13


@given(_unit, _unit, st.floats(-20.0, 20.0), st.floats(0.05, 1.0),
       st.sampled_from([1.0, -1.0]))
def test_divided_difference_branches_agree(a, b, w, c, sign):
    # |c y| b just under 1e-6 takes the moment rows, just over it the
    # quotient of the two transforms (b = 1 on the full band); the
    # transforms' phases 2 pi w t round to eps |w|, which the quotient
    # divides by |d|, so the agreement loosens with |w|
    lo, hi = min(a, b), max(a, b) + 0.01
    seam = sign * 1e-6 / (c * hi)
    inner = _dd([(lo, hi)], w, c, (1.0 - 1e-9) * seam)
    outer = _dd([(lo, hi)], w, c, (1.0 + 1e-9) * seam)
    assert abs(inner - outer) <= 1e-9 * max(1.0, abs(w)) * abs(inner)


@pytest.mark.parametrize("b", [0.001, 0.01, 1.0])
def test_divided_difference_seam_scales_with_piece(b):
    # on [0, b] at w = 0, T_p = b^(p+1)/(p+1), so the divided difference
    # is c sum_k (2 pi i d)^(k-1) b^(k+1) / ((k+1) k!) with no cancellation;
    # the quotient loses eps / (pi d b) to rounding, so the branches meet
    # at |d| b = 1e-6, not at |d| = 1e-6
    c = 0.5
    for d in (1.1e-6, 0.9e-6 / b, 1.1e-6 / b, 1e-3):
        want = c * sum((2j * math.pi * d) ** (k - 1) * b ** (k + 1)
                       / ((k + 1) * math.factorial(k)) for k in range(1, 30))
        got = _dd([(0.0, b)], 0.0, c, d / c)
        assert abs(got - want) <= 1e-10 * abs(want), d


def test_sinc_compare_empty():
    grid = lambda_grid(E_FULL, 16, 0.05)
    e = canonical_field(grid)
    rep = sinc_compare([], grid, e)
    assert rep.rows == ()
    assert rep.max_deviation("s0_derived") == 0.0


def test_seeded_strip_points_deterministic():
    assert seeded_strip_points(10, seed=3) == seeded_strip_points(10, seed=3)
    for (x, y, z) in seeded_strip_points(50, seed=3):
        assert abs(x) < 1


def test_kernel_gram_consistency(kernel_grid):
    # Gram entries coincide with kernel values at realized lattice points
    from hgs.fieldcheck import gram_entry
    from hgs.group import LatticeIndex, QuasiLatticeSpec

    grid, e = kernel_grid
    spec = QuasiLatticeSpec(1, 1)
    for idx in [LatticeIndex(0, 0, 0), LatticeIndex(1, 0, 0),
                LatticeIndex(0, 1, 0), LatticeIndex(0, 0, 1),
                LatticeIndex(1, -1, 1)]:
        p = idx.realize(spec)
        s = S_quadrature(p.x1, p.x2, p.x3, grid, e).s
        g = gram_entry(e, idx, spec)
        assert abs(g - s) <= 1e-3
