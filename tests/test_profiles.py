"""Off-grid slices as term tables: array profiles through the field
transforms, slices_at against per-point windows, and the batched unfolding
kernel against one call per point."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgs import grids
from hgs.canonical import canonical_field, canonical_profile
from hgs.errors import DomainError
from hgs.fieldcheck import _unfolded_sum, coefficient_cross_orthogonality
from hgs.grids import (FieldSample, SpectralSet, field_sum, lambda_grid,
                       point_grid)
from hgs.group import QuasiLatticeSpec
from hgs.testfields import atom_suite, random_pl_field
from hgs.windows import Window

E_FULL = SpectralSet([(-1.0, 1.0)])
GRID = lambda_grid(E_FULL, 16, 0.05)


# -- per-point references ----------------------------------------------------

def _canonical_ref(lam):
    if lam > 0:
        return Window.indicator(1.0 / lam - 1.0, 1.0 / lam)
    return Window.indicator(-1.0, 0.0)


def _pl_ref(lam):
    return Window.piecewise_linear([-0.5, 0.2 * lam, 1.0 + 0.3 * abs(lam)],
                                   [0, 1.0 - 0.5j * lam, 0.25])


_reals = st.floats(-2.0, 2.0)
_complex = st.builds(complex, _reals, _reals)


@st.composite
def _fields(draw, depth=2):
    """A profile-backed field on GRID built by the transforms, and the
    per-point window of the same construction through Window methods."""
    kinds = ["canonical", "pl"]
    if depth:
        kinds += ["scaled", "translate", "restrict", "sum"]
    kind = draw(st.sampled_from(kinds))
    if kind == "canonical":
        return canonical_field(GRID), _canonical_ref
    if kind == "pl":
        return FieldSample.from_profile(GRID, _pl_ref), _pl_ref
    f, ref = draw(_fields(depth - 1))
    if kind == "scaled":
        c = draw(_complex)
        return f.scaled(c), lambda lam: ref(lam).scaled(c)
    if kind == "translate":
        x1, x2 = draw(_reals), draw(_reals)
        x3 = draw(st.one_of(st.integers(-3, 3).map(float), _reals))
        return (f.heisenberg_translate(x1, x2, x3),
                lambda lam: ref(lam).translate(x1).modulate(-lam * x2)
                .scaled(np.exp(2j * np.pi * lam * x3)))
    if kind == "restrict":
        a = draw(st.floats(-1.0, 0.9))
        sub = SpectralSet([(a, a + draw(st.floats(0.05, 1.0)))])
        return (f.restrict(sub),
                lambda lam: ref(lam) if sub.contains(lam) else Window.zero())
    g, gref = draw(_fields(depth - 1))
    c1, c2 = draw(_complex), draw(_complex)
    return (field_sum([f, g], [c1, c2]),
            lambda lam: ref(lam).scaled(c1) + gref(lam).scaled(c2))


def _assert_same_window(got: Window, want: Window):
    assert got.n_terms == want.n_terms
    assert np.array_equal(got.lo, want.lo)
    assert np.array_equal(got.hi, want.hi)
    assert np.array_equal(got.freq, want.freq)
    scale = max(1.0, float(np.abs(want.coef).max(initial=0.0)))
    assert np.all(np.abs(got.coef - want.coef) <= 1e-13 * scale)


@settings(max_examples=80)
@given(field=_fields(),
       lams=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
def test_slices_at_matches_per_point_windows_property(field, lams):
    # off the grid every slice comes from the array profile, which the
    # transforms rewrote with their on-grid code; the reference rebuilds
    # each point's window one operation at a time
    f, ref = field
    lams = np.array(lams)
    assume(np.all(lams != 0.0))
    assume(np.min(np.abs(lams[:, None] - GRID.nodes[None, :])) > 1e-9)
    table = f.slices_at(lams)
    assert table.grid.n == lams.size
    for k, lam in enumerate(lams):
        _assert_same_window(table.slice(k), ref(lam))
        _assert_same_window(f.slice_at(lam), ref(lam))


def test_slices_at_nodes_and_interpolation():
    # a field without a profile: node hits read the node's slice, other
    # points interpolate linearly between the bracketing nodes
    grid = lambda_grid(SpectralSet([(0.2, 0.9)]), 8, 0.05)
    f = random_pl_field(grid, seed=3)
    nodes = grid.nodes
    mid = 0.25 * nodes[2] + 0.75 * nodes[3]
    lams = np.array([nodes[5], mid, nodes[0], mid, nodes[5]])
    table = f.slices_at(lams)
    t = (mid - nodes[2]) / (nodes[3] - nodes[2])
    interp = f.slice(2).scaled(1 - t) + f.slice(3).scaled(t)
    for k, want in enumerate([f.slice(5), interp, f.slice(0), interp,
                              f.slice(5)]):
        got = table.slice(k)
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(got.hi, want.hi)
        assert np.array_equal(got.coef, want.coef)
        assert np.array_equal(got.freq, want.freq)
    with pytest.raises(DomainError, match="no slice data"):
        f.slices_at([0.5, 0.95])


def test_profile_field_takes_every_slice_from_its_profile():
    # a point 1e-13 off a node is within the node tolerance, yet a field
    # with a profile reads its exact slice there, and no node search runs
    f = FieldSample.from_profile(GRID, _pl_ref)
    lams = np.array([GRID.nodes[3] + 1e-13, GRID.nodes[7], 0.123])

    def no_hits(*args):
        raise AssertionError("_node_hits called on a profile field")

    with mock.patch.object(grids, "_node_hits", no_hits):
        table = f.slices_at(lams)
        near = f.slice_at(lams[0])
    for k, lam in enumerate(lams):
        _assert_same_window(table.slice(k), _pl_ref(lam))
    _assert_same_window(near, _pl_ref(lams[0]))
    assert not np.array_equal(near.coef, f.slice(3).coef)


def test_canonical_profile_matches_window():
    lams = np.array([-1.0, -0.3, 0.25, 0.7, 1.0])
    table = canonical_profile(lams)
    for k, lam in enumerate(lams):
        _assert_same_window(table.slice(k), _canonical_ref(lam))
    with pytest.raises(DomainError):
        canonical_profile([0.5, 0.0])
    with pytest.raises(DomainError):
        canonical_profile([np.nan])


# -- the batched unfolding kernel --------------------------------------------

@st.composite
def _windows(draw):
    """A constant, a piecewise-linear or an empty window."""
    kind = draw(st.sampled_from(["empty", "constant", "linear"]))
    if kind == "empty":
        return Window.zero()
    a = draw(st.floats(-2.0, 2.0))
    if kind == "constant":
        return Window.indicator(a, a + draw(st.floats(0.1, 2.0)),
                                draw(_complex))
    breaks = a + np.cumsum([0.0] + draw(st.lists(
        st.floats(0.05, 1.0), min_size=1, max_size=3)))
    values = [draw(_complex) for _ in breaks]
    return Window.piecewise_linear(breaks, values)


def _table(windows):
    return FieldSample.from_windows(
        point_grid(np.linspace(0.1, 0.9, len(windows)), E_FULL), windows)


_scales = st.floats(0.2, 2.0).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=40)
@given(points=st.lists(st.tuples(_windows(), _windows(), _windows(),
                                 _windows(), _scales, _scales),
                       min_size=1, max_size=5),
       step=st.floats(0.1, 2.0), kmax=st.integers(0, 1))
def test_batched_unfolded_sum_matches_per_point_calls(points, step, kmax):
    # points mix degrees and empty slices, so the one sweep over every
    # point's pairs runs at the largest degree present
    f1, g1, f2, g2, c1, c2 = (list(x) for x in zip(*points))
    got = _unfolded_sum(_table(f1 + f2), _table(g1 + g2), c1 + c2, step,
                        kmax)
    assert got.shape == (len(points),)
    for p, (a, b, c, d, s1, s2) in enumerate(points):
        want = _unfolded_sum(_table([a, c]), _table([b, d]), [s1, s2],
                             step, kmax)[0]
        assert abs(got[p] - want) <= 1e-13 * (1.0 + abs(want))


def test_cross_orthogonality_canonical_value_unchanged():
    # the inputs of test_cross_orthogonality_canonical; the value is
    # rounding noise of the exact zero, so agreement with the value of the
    # per-point evaluation it replaced shows that every product, pair and
    # sum is evaluated in the same order
    e = canonical_field(lambda_grid(E_FULL, 512, 1e-3))
    suite = atom_suite(e, QuasiLatticeSpec(1, 1), n_functions=2, n_atoms=6,
                       box=(1, 3, 2), seed=7)
    val = coefficient_cross_orthogonality(
        e, SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]),
        suite, trunc=(4, 32, 16))
    want = 2.5983827150396963e-17
    assert abs(val - want) <= 1e-13 * want
