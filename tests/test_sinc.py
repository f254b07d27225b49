import numpy as np
import pytest
from scipy.integrate import quad

from hgs.canonical import canonical_field
from hgs.grids import SpectralSet, gauss_lambda_grid, lambda_grid
from hgs.sinc import (F_xy, G_xy, S0_closed, S1_closed, S_quadrature,
                      _s1_numeric, seeded_strip_points, sinc_compare)

E_FULL = SpectralSet([(-1.0, 1.0)])


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
    assert S0_closed(1.5, 0.3, 0.7) == 0
    assert S0_closed(-1.0, 0.3, 0.7) == 0


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
    for x in (-0.4, 0.6):
        base = S0_closed(x, 1e-9, 0.3, reading="derived")
        near = S0_closed(x, 1e-5, 0.3, reading="derived")
        assert np.isfinite(base.real) and np.isfinite(base.imag)
        assert base == pytest.approx(near, abs=1e-4)
        for z in (0.0, -1e-9):
            v = S0_closed(x, 0.7, z, reading="derived")
            assert np.isfinite(v.real) and np.isfinite(v.imag)
    # vanishing case denominators z = xy and z = -y
    assert np.isfinite(S0_closed(-0.5, 0.8, -0.4, reading="derived").real)
    assert np.isfinite(S0_closed(-0.5, 0.8, -0.8, reading="derived").real)


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
