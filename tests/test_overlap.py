"""Property tests of the translated-pair stage, the field inner products
and the shift-expanded lattice sweep against the full same-node cross
join, on generated piecewise-linear fields with touching cells, repeated
intervals and empty slices."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import fieldcheck, grids, windows
from hgs.fieldcheck import _unfolded_sum, lattice_coefficients, translate_field
from hgs.grids import (FieldSample, LambdaGrid, SpectralSet, _cross_join,
                       _translated_pairs, field_inner_per_node)
from hgs.group import QuasiLatticeSpec
from hgs.windows import MAX_DEGREE, paired_inner_sweep


def _grid(n):
    nodes = np.linspace(0.2, 0.9, n)
    return LambdaGrid(nodes, np.full(n, 1.0 / n), 1e-3,
                      SpectralSet([(0.1, 1.0)]), "custom")


@st.composite
def _terms(draw, n_nodes):
    """Term table of a field on n_nodes nodes: cells on a quarter grid
    (touching and repeated cells are common), shifted by an offset that
    may round, linear coefficients and a few modulations.  A node may get
    no terms at all."""
    off = draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0]))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_nodes,
                           max_size=n_nodes))
    node = np.repeat(np.arange(n_nodes), counts)
    size = int(node.size)
    ints = st.lists(st.integers(-8, 8), min_size=size, max_size=size)
    lo = 0.25 * np.array(draw(ints), dtype=float) + off
    width = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    hi = lo + 0.25 * np.array(width, dtype=float)
    parts = st.lists(st.floats(-2.0, 2.0), min_size=4 * size,
                     max_size=4 * size)
    c = np.array(draw(parts)).reshape(size, 4)
    coef = np.zeros((size, MAX_DEGREE + 1), dtype=complex)
    coef[:, 0] = c[:, 0] + 1j * c[:, 1]
    coef[:, 1] = c[:, 2] + 1j * c[:, 3]
    freq = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, -1.25]),
                                  min_size=size, max_size=size)))
    return node, lo, hi, coef, freq


@st.composite
def _field_pairs(draw):
    grid = _grid(draw(st.integers(1, 4)))
    f, g = (FieldSample(grid, *draw(_terms(grid.n))) for _ in range(2))
    return f, g


def _reference_pairs(f, g):
    """Every same-node pair of the full cross join whose cells overlap."""
    ia, ib, node = _cross_join(f._starts, g._starts)
    live = (np.minimum(f.term_hi[ia], g.term_hi[ib])
            > np.maximum(f.term_lo[ia], g.term_lo[ib]))
    return ia[live], ib[live], node[live]


def _reference_per_node(f, g):
    """Per-node inner products over the reference pairs in one sweep."""
    ia, ib, node = _reference_pairs(f, g)
    fm, gm = f.term_mid(), g.term_mid()
    vals = paired_inner_sweep(
        f.term_lo[ia], f.term_hi[ia], fm[ia], f.term_coef[ia],
        f.term_freq[ia], g.term_lo[ib], g.term_hi[ib], gm[ib],
        g.term_coef[ib], g.term_freq[ib], np.zeros(1))[:, 0]
    return (np.bincount(node, weights=vals.real, minlength=f.grid.n)
            + 1j * np.bincount(node, weights=vals.imag, minlength=f.grid.n))


_block = st.sampled_from([1, 2, 5, 17, grids._PAIR_BLOCK])


def _reference_translated(f, g, step, nmax):
    """Every (pair, n) row of the full cross join expanded over every n
    that can hold an overlap (|n| <= nmax), kept by the exact test."""
    ia, ib, node = _cross_join(f._starts, g._starts)
    if nmax == math.inf:
        # the cells lie in [-2, 4), so no overlap lies further out
        nmax = math.ceil(6.0 / step) + 2
    ns = np.arange(-nmax, nmax + 1, dtype=float)
    ia, ib, node = (np.repeat(x, ns.size) for x in (ia, ib, node))
    n = np.tile(ns, ia.size // ns.size)
    lo, hi = g.term_lo[ib] + step * n, g.term_hi[ib] + step * n
    live = np.minimum(f.term_hi[ia], hi) > np.maximum(f.term_lo[ia], lo)
    return tuple(x[live] for x in (ia, ib, node, n, lo, hi))


@settings(max_examples=80, deadline=None)
@given(fields=_field_pairs(), block=_block,
       step=st.sampled_from([0.25, 1.0 / 3.0, 0.75, 1.0, 2.5]),
       nmax=st.sampled_from([0, 1, 3, math.inf]))
def test_translated_pairs_match_full_expansion(fields, block, step, nmax):
    # rows and their (segment, ia, ib, n) order, whatever the block size
    # of the callers
    f, g = fields
    with mock.patch.object(grids, "_PAIR_BLOCK", block):
        got = _translated_pairs(f._starts, f.term_lo, f.term_hi, g._starts,
                                g.term_lo, g.term_hi, step, nmax)
    want = _reference_translated(f, g, step, nmax)
    for x, y in zip(got, want, strict=True):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("a, b, step, n", [
    ((2.0, 2.57), (0.47, 0.5), 0.7, 3.0),
    ((0.1, 0.2), (0.9, 1.0), 0.3, -3.0),
    ((0.2, 0.25), (0.35, 0.38), 0.1, -1.0),
    ((0.41, 0.45), (0.28, 0.31), 0.1, 1.0),
])
def test_translated_pairs_keep_overlaps_made_by_rounding(a, b, step, n):
    # (2.57 - 0.47) / 0.7 rounds to 2.9999999999999996 and (0.1 - 1.0) / 0.3
    # to -3.0, yet the b cell moved by n step overlaps the a cell by a
    # rounding sliver; the guard row at each end of the shift range keeps
    # it.  0.35 - 0.1 rounds below 0.25 and 0.31 + 0.1 above 0.41: at
    # nmax = |n| those b cells lie just outside the exact search reach
    # (lo_b < hi_a + nmax step, lo_b > lo_a - w - nmax step), which only
    # its ulp widening covers
    one = np.array([0, 1])
    for nmax in (math.inf, abs(n)):
        rows = _translated_pairs(one, np.array([a[0]]), np.array([a[1]]),
                                 one, np.array([b[0]]), np.array([b[1]]),
                                 step, nmax)
        assert rows[3].tolist() == [n]


@settings(max_examples=80, deadline=None)
@given(fields=_field_pairs(), block=_block)
def test_field_inner_per_node_bit_identical(fields, block):
    f, g = fields
    with mock.patch.object(grids, "_PAIR_BLOCK", block):
        got = field_inner_per_node(f, g)
    assert np.array_equal(got, _reference_per_node(f, g))


@settings(max_examples=40, deadline=None)
@given(fields=_field_pairs(), block=_block,
       spec=st.sampled_from([QuasiLatticeSpec(1.0, 1.0),
                             QuasiLatticeSpec(0.75, 1.0),
                             QuasiLatticeSpec(0.75, 1.25)]))
def test_lattice_coefficients_match_reference_inner(fields, block, spec):
    f, g = fields
    kmax, lmax, mmax = 3, 2, 1
    with mock.patch.object(grids, "_PAIR_BLOCK", block):
        got = lattice_coefficients([f, g], g, spec, kmax, lmax, mmax)
    w = f.grid.weights
    for fi, h in enumerate((f, g)):
        for k in range(-kmax, kmax + 1):
            for l in range(-lmax, lmax + 1):
                for m in range(-mmax, mmax + 1):
                    want = np.sum(w * _reference_per_node(
                        h, translate_field(g, k, l, m, spec)))
                    c = got[fi, k + kmax, l + lmax, m + mmax]
                    assert abs(c - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(fields=_field_pairs(), block=_block)
def test_no_caller_sweeps_a_disjoint_pair(fields, block):
    # every pair reaches paired_inner_sweep through _translated_pairs and
    # its exact overlap test, in the field inner products, the lattice
    # table, both unfolding joins and Window.inner_freq_sweep
    f, g = fields
    calls = []

    def spy(loa, hia, mida, coefa, freqa, lob, hib, *rest):
        calls.append(loa.size)
        assert np.all(np.minimum(hia, hib) > np.maximum(loa, lob))
        return paired_inner_sweep(loa, hia, mida, coefa, freqa, lob, hib,
                                  *rest)

    with mock.patch.object(grids, "_PAIR_BLOCK", block), \
            mock.patch.object(grids, "paired_inner_sweep", spy), \
            mock.patch.object(fieldcheck, "paired_inner_sweep", spy), \
            mock.patch.object(windows, "paired_inner_sweep", spy):
        field_inner_per_node(f, g)
        grids._node_table(f, g, QuasiLatticeSpec(0.75, 1.25), 3, 2)
        if f.grid.n % 2 == 0:
            _unfolded_sum(f, g, f.grid.nodes, 0.75, 2)
        for i in range(f.grid.n):
            f.slice(i).inner_freq_sweep(g.slice(i), np.array([0.0, 0.5]))
    if _reference_pairs(f, g)[0].size:
        assert calls
