"""Property tests of the pair search, the field inner products, the
squared norms and the shift-expanded lattice sweep against the full
same-node cross join, on generated piecewise-linear fields with touching
cells, repeated intervals and empty slices."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import fieldcheck, grids, windows
from hgs.canonical import canonical_field
from hgs.fieldcheck import _unfolded_sum, lattice_coefficients, translate_field
from hgs.grids import (FieldSample, LambdaGrid, SpectralSet, _cross_join,
                       field_inner_per_node, field_load, field_save,
                       field_sum, gauss_lambda_grid, lambda_grid)
from hgs.group import QuasiLatticeSpec
from hgs.sampling import (reconstruct, reconstruction_study,
                          sample_on_lattice)
from hgs.sinc import S_quadrature
from hgs.testfields import atom_suite, random_pl_field, two_slice_field
from hgs.windows import (MAX_DEGREE, Window, _translated_pairs,
                         paired_inner_sweep)

from conftest import traced_peak

E_FULL = SpectralSet([(-1.0, 1.0)])


def _grid(n):
    nodes = np.linspace(0.2, 0.9, n)
    return LambdaGrid(nodes, np.full(n, 1.0 / n), 1e-3,
                      SpectralSet([(0.1, 1.0)]), "custom")


@st.composite
def _terms(draw, n_nodes, counts=(0, 4)):
    """Term table of a field on n_nodes nodes, each with counts[0] to
    counts[1] terms: cells on a quarter grid (touching and repeated cells
    are common), shifted by an offset that may round, linear coefficients
    and a few modulations."""
    off = draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0]))
    counts = draw(st.lists(st.integers(*counts), min_size=n_nodes,
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


# per-node term counts of the two fields of a pair, on both sides of the
# pair search's rule: one field with at most one term per node (the
# segment cross join serves every nmax), both with 2 to 4 (the binary
# search serves every finite nmax), or anything from none to 4
_LAYOUTS = [((0, 1), (0, 4)), ((0, 4), (0, 1)), ((2, 4), (2, 4)),
            ((0, 4), (0, 4))]


@st.composite
def _field_pairs(draw):
    grid = _grid(draw(st.integers(1, 4)))
    layout = draw(st.sampled_from(_LAYOUTS))
    f, g = (FieldSample(grid, *draw(_terms(grid.n, counts)))
            for counts in layout)
    return f, g


def _node_join(f, g):
    """The full same-node cross join of the term tables of f and g."""
    return _cross_join(f._starts[:-1], np.diff(f._starts), g._starts[:-1],
                       np.diff(g._starts))


def _reference_pairs(f, g):
    """Every same-node pair of the full cross join whose cells overlap."""
    ia, ib, node = _node_join(f, g)
    live = (np.minimum(f.term_hi[ia], g.term_hi[ib])
            > np.maximum(f.term_lo[ia], g.term_lo[ib]))
    return ia[live], ib[live], node[live]


def _reference_values(f, g):
    """Node and inner product of every reference pair, in one sweep."""
    ia, ib, node = _reference_pairs(f, g)
    return node, paired_inner_sweep(
        tuple(x[ia] for x in f.terms), tuple(x[ib] for x in g.terms),
        np.zeros(1))[:, 0]


def _reference_per_node(f, g):
    """Per-node inner products over the reference pairs in one sweep."""
    node, vals = _reference_values(f, g)
    return (np.bincount(node, weights=vals.real, minlength=f.grid.n)
            + 1j * np.bincount(node, weights=vals.imag, minlength=f.grid.n))


def _copy(f):
    """f as a second table with its own arrays, so that a reference inner
    product of f with itself takes no path of its own."""
    return FieldSample(f.grid, f.term_node, f.term_lo.copy(),
                       f.term_hi.copy(), f.term_coef.copy(),
                       f.term_freq.copy())


_BLOCKS = [1, 2, 5, 17, windows._PAIR_BLOCK]
_block = st.sampled_from(_BLOCKS)


def _reference_translated(f, g, step, nmax):
    """Every (pair, n) row of the full cross join expanded over every n
    that can hold an overlap (|n| <= nmax), kept by the exact test."""
    ia, ib, node = _node_join(f, g)
    if nmax == math.inf:
        # the cells lie in [-2, 4), so no overlap lies further out
        nmax = math.ceil(6.0 / step) + 2
    ns = np.arange(-nmax, nmax + 1, dtype=float)
    ia, ib, node = (np.repeat(x, ns.size) for x in (ia, ib, node))
    n = np.tile(ns, ia.size // ns.size)
    lo, hi = g.term_lo[ib] + step * n, g.term_hi[ib] + step * n
    live = np.minimum(f.term_hi[ia], hi) > np.maximum(f.term_lo[ia], lo)
    return tuple(x[live] for x in (ia, ib, node, n, lo, hi))


def _key_calls(run):
    """run()'s value and the number of search keys it built: the binary
    search of _translated_pairs builds its keys with windows._seg_key."""
    calls = []
    seg_key = windows._seg_key

    def spy(*args):
        calls.append(1)
        return seg_key(*args)

    with mock.patch.object(windows, "_seg_key", spy):
        out = run()
    return out, len(calls)


@settings(max_examples=160, deadline=None)
@given(fields=_field_pairs(), block=_block,
       step=st.sampled_from([0.25, 1.0 / 3.0, 0.75, 1.0, 2.5]),
       nmax=st.sampled_from([0, 1, 3, math.inf]))
def test_translated_pairs_match_full_expansion(fields, block, step, nmax):
    # rows and their (segment, ia, ib, n) order, bit for bit and whatever
    # the block size of the callers, from either candidate source: the
    # search where both fields have several terms at some node and nmax is
    # finite, else the cross join
    f, g = fields
    with mock.patch.object(windows, "_PAIR_BLOCK", block):
        got, keys = _key_calls(lambda: _translated_pairs(
            f._starts, f.term_lo, f.term_hi, g._starts, g.term_lo,
            g.term_hi, step, nmax))
    searched = (nmax != math.inf and np.diff(f._starts).max() > 1
                and np.diff(g._starts).max() > 1)
    assert (keys > 0) == searched
    want = _reference_translated(f, g, step, nmax)
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=100, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4),
                               st.integers(0, 3), st.integers(0, 4)),
                     max_size=6))
def test_cross_join_matches_itertools_product(runs):
    # run r pairs A's indices first_a[r] .. first_a[r] + count_a[r] - 1
    # with B's, A-major, runs in order; runs may be empty and their
    # indices need not be contiguous across runs
    gap_a, count_a, gap_b, count_b = np.array(
        runs, dtype=np.int64).reshape(-1, 4).T
    first_a = np.cumsum(gap_a + count_a) - count_a
    first_b = np.cumsum(gap_b + count_b) - count_b
    ia, ib, run = _cross_join(first_a, count_a, first_b, count_b)
    want = [(i, j, r) for r in range(len(runs))
            for i, j in itertools.product(
                range(int(first_a[r]), int(first_a[r] + count_a[r])),
                range(int(first_b[r]), int(first_b[r] + count_b[r])))]
    assert list(zip(ia.tolist(), ib.tolist(), run.tolist())) == want
    assert ia.dtype == ib.dtype == run.dtype == np.int64


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


@st.composite
def _one_table(draw):
    """(starts, lo, hi) of one term table: up to 5 terms per segment, so
    empty and one-term segments are common; lo on a quarter grid, so equal
    lo and touching cells are common; widths of 0 (empty cells) to 6
    quarters.  The table may begin past term 0, as a node block does."""
    skip = draw(st.integers(0, 2))
    counts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))
    size = skip + sum(counts)
    ints = st.lists(st.integers(-4, 4), min_size=size, max_size=size)
    lo = 0.25 * np.array(draw(ints), dtype=float)
    width = st.lists(st.integers(0, 6), min_size=size, max_size=size)
    hi = lo + 0.25 * np.array(draw(width), dtype=float)
    return skip + np.concatenate([[0], np.cumsum(counts)]), lo, hi


def _self_join(starts):
    """The full same-segment cross join of one term table with itself."""
    return _cross_join(starts[:-1], np.diff(starts), starts[:-1],
                       np.diff(starts))


def _self_pairs(starts, lo, hi):
    """The self join of one term table at nmax = 0, as _segment_norm2
    runs it on its cells: the rows with ia <= ib, as (ia, ib, seg)."""
    ia, ib, seg, *_ = _translated_pairs(starts, lo, hi, starts, lo, hi,
                                        1.0, 0)
    keep = ia <= ib
    return ia[keep], ib[keep], seg[keep]


@settings(max_examples=200, deadline=None)
@given(table=_one_table())
def test_self_pairs_are_the_unordered_overlaps(table):
    # each overlapping pair of a segment once, the diagonal included, in
    # (segment, ia, ib) order.  An empty cell has no row, not even the
    # diagonal
    starts, lo, hi = table
    ia, ib, seg = _self_pairs(starts, lo, hi)
    got = list(zip(seg.tolist(), ia.tolist(), ib.tolist()))
    ra, rb, rseg = _self_join(starts)
    keep = ((ra <= rb)
            & (np.minimum(hi[ra], hi[rb]) > np.maximum(lo[ra], lo[rb])))
    want = list(zip(rseg[keep].tolist(), ra[keep].tolist(),
                    rb[keep].tolist()))
    assert got == sorted(want)
    assert not np.any(hi[ia] <= lo[ia])


@settings(max_examples=100, deadline=None)
@given(table=_one_table().filter(lambda t: np.diff(t[0]).max() > 1))
def test_self_pairs_search_stops_before_touching_cells(table):
    # on a table the search serves (a segment of two terms or more; with
    # at most one term per segment the cross join takes every same-segment
    # pair) the candidates of a term are the terms of its segment with lo
    # in (lo_a - w - slack, hi_a + slack), w the widest cell and slack the
    # few ulps of the search reach; of them a cell that only touches it,
    # lo_b = hi_a or hi_b = lo_a, keeps no row
    starts, lo, hi = table
    counts = []
    ranges = windows._ranges

    def spy(first, count):
        counts.append(int(np.sum(count)))
        return ranges(first, count)

    with mock.patch.object(windows, "_ranges", spy):
        ia, ib, _ = _self_pairs(starts, lo, hi)
    ra, rb, _ = _self_join(starts)
    a0, a1 = starts[0], starts[-1]
    slack = windows._ULPS * np.abs(np.concatenate(
        (lo[a0:a1], hi[a0:a1]))).max(initial=0.0)
    w = (hi[a0:a1] - lo[a0:a1]).max(initial=0.0)
    assert counts == [np.count_nonzero((lo[rb] > lo[ra] - (w + slack))
                                       & (lo[rb] < hi[ra] + slack))]
    assert np.all(lo[ib] < hi[ia]) and np.all(lo[ia] < hi[ib])


def _pair_sources(run, module=windows):
    """(nmax, searched) of every _translated_pairs call that run() makes
    through module, searched when the call built search keys."""
    log = []
    pairs = windows._translated_pairs

    def spy(*args):
        out, keys = _key_calls(lambda: pairs(*args))
        log.append((args[7], keys > 0))
        return out

    with mock.patch.object(module, "_translated_pairs", spy):
        run()
    return log


def test_search_serves_only_tables_it_can_prune():
    # one term per node (the canonical field, its translates, its lattice
    # table) takes the cross join, linear in the terms there, and so does
    # nmax = inf, where the search would find the whole join anyway
    gauss = gauss_lambda_grid(E_FULL, 4096, lambda_min=1e-8, order=8)
    e = canonical_field(gauss)
    log = _pair_sources(lambda: S_quadrature(0.3, 0.2, 0.1, gauss, e))
    assert log == [(0, False)]
    e = canonical_field(lambda_grid(E_FULL, 64, 1e-3))
    log = _pair_sources(lambda: grids._node_table(
        e, e, QuasiLatticeSpec(0.75, 1.0), 3, 2))
    assert log and not any(searched for _, searched in log)
    # several terms per node on both sides: the unfolding sum's first join
    # searches, its nmax = inf join does not
    f = random_pl_field(lambda_grid(E_FULL, 4, 0.05), 3)
    g = random_pl_field(f.grid, 4)
    log = _pair_sources(lambda: _unfolded_sum(f, g, f.grid.nodes, 0.75, 2),
                        fieldcheck)
    assert log == [(2, True), (math.inf, False)]
    # tabulated slices, 199 pieces on each of 64 nodes: the search serves
    # them with about two candidates a term, where the cross join would
    # take 199
    rng = np.random.default_rng(5)
    grid = lambda_grid(E_FULL, 64, 0.05)
    f = FieldSample.from_windows(grid, [Window.from_samples(
        -1.0 + 0.01 * i, 0.01, rng.normal(size=200)) for i in range(64)])
    g = f.heisenberg_translate(0.003, 0.2, 0.1)
    candidates = []
    ranges = windows._ranges

    def spy(first, count):
        candidates.append(int(np.sum(count)))
        return ranges(first, count)

    with mock.patch.object(windows, "_ranges", spy):
        log = _pair_sources(lambda: field_inner_per_node(f, g))
    assert f.n_terms == 64 * 199 and log
    assert all(entry == (0, True) for entry in log)
    assert sum(candidates) <= 3 * f.n_terms


def _brute_pairs(starts, t):
    """Per segment of the term table t, segment s from starts[s]: every
    pair of its distinct (lo, hi, freq) terms whose cells overlap, the
    diagonal included, once each, as a sorted tuple of the two."""
    lo, hi, _, freq = t
    pairs = []
    for s0, s1 in zip(starts[:-1], starts[1:]):
        terms = sorted(set(zip(lo[s0:s1].tolist(), hi[s0:s1].tolist(),
                               freq[s0:s1].tolist())))
        for i, j in zip(*np.triu_indices(len(terms))):
            (la, ha, _), (lb, hb, _) = terms[i], terms[j]
            if min(ha, hb) > max(la, lb):
                pairs.append((terms[i], terms[j]))
    return sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(table=_one_table(), block=_block, data=st.data())
def test_norm_sweeps_each_overlapping_pair_once(table, block, data):
    # the pairs _segment_norm2 sends to paired_inner_sweep, whatever the
    # block size: each overlapping pair of merged terms of a segment once,
    # the diagonal included, and no pair of an empty or touching cell.
    # Degree-1 terms at two frequencies leave no class regular, so every
    # pair takes the sweep
    starts, lo, hi = table
    freq = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5]),
                                       min_size=lo.size, max_size=lo.size)))
    coef = np.zeros((lo.size, MAX_DEGREE + 1), dtype=complex)
    coef[:, :2] = 1.0
    got = []

    def spy(a, b, df):
        assert np.all(np.minimum(a[1], b[1]) > np.maximum(a[0], b[0]))
        for row in zip(a[0], a[1], a[3], b[0], b[1], b[3]):
            got.append(tuple(sorted((row[:3], row[3:]))))
        return paired_inner_sweep(a, b, df)

    with mock.patch.object(windows, "_PAIR_BLOCK", block), \
            mock.patch.object(windows, "paired_inner_sweep", spy):
        windows._segment_norm2(starts, (lo, hi, coef, freq))
    assert sorted(got) == _brute_pairs(starts, (lo, hi, coef, freq))


@settings(max_examples=80, deadline=None)
@given(fields=_field_pairs(), block=_block)
def test_self_inner_matches_ordered_reference(fields, block):
    # the squared norms from unordered pairs against the sum over ordered
    # pairs, to rounding in the sum of the pairs' magnitudes, per node, per
    # field and per slice window
    f = fields[0]
    with mock.patch.object(windows, "_PAIR_BLOCK", block):
        got = windows._segment_norm2(f._starts, f.terms)
        slice_norms, norm = f.slice_norm2(), f.norm2()
    node, vals = _reference_values(f, _copy(f))
    want = np.bincount(node, weights=vals.real, minlength=f.grid.n)
    tol = 1e-14 * np.bincount(node, weights=np.abs(vals),
                              minlength=f.grid.n)
    assert np.all(np.abs(got - want) <= tol)
    assert np.array_equal(slice_norms, np.maximum(got, 0.0))
    assert norm == max(float(np.sum(f.grid.weights * got)), 0.0)
    for i in range(f.grid.n):
        assert abs(f.slice(i).norm2() - max(want[i], 0.0)) <= tol[i]


@st.composite
def _modulated_cells(draw):
    """A field whose nodes hold a few cells, each with degree-0 terms at
    frequencies f0 + l delta for distinct slots l, holes allowed, and
    sometimes a term repeated: the regular classes of _segment_norm2."""
    grid = _grid(draw(st.integers(1, 3)))
    node, lo, hi, coef, freq = [], [], [], [], []
    for i in range(grid.n):
        for _ in range(draw(st.integers(0, 3))):
            a = 0.25 * draw(st.integers(-4, 4)) + 1.0 / 3.0
            b = a + 0.25 * draw(st.integers(1, 6))
            f0 = draw(st.sampled_from([-1.3, 0.0, 0.4, 7.0]))
            step = draw(st.sampled_from([0.25, 1.0 / 3.0, 0.7, 1e-3]))
            slots = draw(st.lists(st.integers(0, 9), min_size=1,
                                  max_size=6))
            for l in slots:
                c = draw(st.tuples(st.floats(-2.0, 2.0),
                                   st.floats(-2.0, 2.0)))
                node.append(i)
                lo.append(a)
                hi.append(b)
                coef.append([complex(*c), 0.0, 0.0])
                freq.append(f0 + l * step)
    coef = np.array(coef, dtype=complex).reshape(-1, MAX_DEGREE + 1)
    return FieldSample(grid, node, lo, hi, coef, freq)


@settings(max_examples=80, deadline=None)
@given(f=_modulated_cells(), block=_block)
def test_regular_cells_match_ordered_reference(f, block):
    # the lag sums of shared cells, with overlapping distinct cells on the
    # pair path, against the sum over ordered pairs of the unmerged terms,
    # to rounding in the sum of the pairs' magnitudes
    with mock.patch.object(windows, "_PAIR_BLOCK", block):
        got = windows._segment_norm2(f._starts, f.terms)
    node, vals = _reference_values(f, _copy(f))
    want = np.bincount(node, weights=vals.real, minlength=f.grid.n)
    tol = 1e-14 * np.bincount(node, weights=np.abs(vals),
                              minlength=f.grid.n)
    assert np.all(np.abs(got - want) <= tol)


def _degree2(f, seed):
    """f with random quadratic coefficients added to every term."""
    rng = np.random.default_rng(seed)
    coef = f.term_coef.copy()
    coef[:, 2] = rng.normal(size=f.n_terms) + 1j * rng.normal(size=f.n_terms)
    return FieldSample(f.grid, f.term_node, f.term_lo, f.term_hi, coef,
                       f.term_freq)


def _dense_error(e, spec, n_atoms, atoms, box, seed):
    """f - r for an atom-suite field f with atoms in the box atoms and its
    reconstruction r from the samples in box, at c = 1/(alpha beta): every
    cell of r holds 2 box[1] + 1 modulations, some shared with f."""
    f = atom_suite(e, spec, n_functions=1, n_atoms=n_atoms, box=atoms,
                   seed=seed).fields()[0]
    samples = sample_on_lattice(f, e, spec, box)
    return f - reconstruct(samples, e, 1.0 / (spec.alpha * spec.beta))


@pytest.fixture(scope="module")
def norm_fields():
    e = canonical_field(lambda_grid(E_FULL, 64, 1e-3))
    pl = random_pl_field(lambda_grid(E_FULL, 16, 0.05), 4)
    pl = pl.heisenberg_translate(0.3, 0.7, 0.2)
    # a degree-0 modulation on every cell of the degree-1 field
    flat = FieldSample(pl.grid, pl.term_node, pl.term_lo, pl.term_hi,
                       pl.term_coef * [1.0, 0.0, 0.0], pl.term_freq + 0.5)
    # atoms outside the sample box keep ||f - r|| of the order of ||f||,
    # so the ordered reference does not cancel
    recon = {f"recon_{a:g}_{b:g}": _dense_error(
        e, QuasiLatticeSpec(a, b), 12, (2, 8, 4), (1, 4, 2), 3)
        for a, b in ((1, 1), (0.75, 1), (2, 0.5))}
    return recon | {
        "atoms": atom_suite(e, QuasiLatticeSpec(1, 1), n_functions=1,
                            n_atoms=12, box=(2, 8, 4), seed=3).fields()[0],
        "atoms_0.75_1.25": atom_suite(
            e, QuasiLatticeSpec(0.75, 1.25), n_functions=1, n_atoms=12,
            box=(2, 8, 4), seed=3).fields()[0],
        "pl_degree1": pl,
        "pl_degree2": _degree2(pl, 5),
        "two_slice": two_slice_field(e, 0.4, 6),
        "mixed_degree": pl + flat,
    }


@pytest.mark.parametrize("block", [1, 7, windows._PAIR_BLOCK])
@pytest.mark.parametrize("name", ["atoms", "atoms_0.75_1.25", "pl_degree1",
                                  "pl_degree2", "two_slice", "mixed_degree",
                                  "recon_1_1", "recon_0.75_1",
                                  "recon_2_0.5"])
def test_norms_match_ordered_reference(norm_fields, name, block):
    f = norm_fields[name]
    with mock.patch.object(windows, "_PAIR_BLOCK", block):
        got, norm = f.slice_norm2(), f.norm2()
    want = _reference_per_node(f, _copy(f))
    assert np.all(want.real > 0.0)
    assert np.all(np.abs(got - want.real) <= 1e-14 * want.real)
    full = np.sum(f.grid.weights * want).real
    assert abs(norm - full) <= 1e-14 * full


@pytest.fixture(scope="module")
def blocked_norm_fields(norm_fields):
    """The 64-node dense differences f - r at box (3, 16, 8), at alpha = 1
    and at 0.75 (overlapping translates), and a piecewise-linear field
    with repeated terms, regular and irregular classes and empty slices."""
    e = canonical_field(lambda_grid(E_FULL, 64, 1e-3))
    dense = {f"dense_{a:g}": _dense_error(e, QuasiLatticeSpec(a, 1), 16,
                                          (1, 8, 4), (3, 16, 8), 8)
             for a in (1, 0.75)}
    pl = norm_fields["pl_degree1"]
    flat = FieldSample(pl.grid, pl.term_node, pl.term_lo, pl.term_hi,
                       pl.term_coef * [1.0, 0.0, 0.0], pl.term_freq)

    def modulates(x1, x2s):
        return field_sum([flat.heisenberg_translate(x1, x2, 0.0)
                          for x2 in x2s], [1.0, 2.0 - 1.0j, 0.5j, -1.0])

    # repeated degree-1 terms, modulations in slots {0, 1, 2, 4} of one
    # step (regular) and with a gap far below the rest (irregular)
    pl = (pl + pl + modulates(0.0625, [0.0, 0.25, 0.5, 1.0])
          + modulates(0.125, [0.0, 1e-12, 1.0, 0.5]))
    return dense | {"pl_classes": pl.restrict(
        SpectralSet([(-1.0, -0.4), (-0.2, 0.3), (0.6, 1.0)]))}


@pytest.mark.parametrize("name", ["dense_1", "dense_0.75", "pl_classes"])
def test_norm_blocks_move_no_bit(blocked_norm_fields, name):
    # _segment_norm2 runs its merge, class analysis, pair sweep and lag
    # sums over runs of whole segments of at most _PAIR_BLOCK / 32 terms;
    # a segment's norm reads only its own terms, so no run length or pair
    # block moves a bit
    f = blocked_norm_fields[name]
    seg, merged = windows._like_terms(f._starts, f.terms)
    _, size, regular, *_ = windows._cell_classes(seg, merged)
    assert np.any(regular) and merged[0].size < f.n_terms
    if name == "pl_classes":
        assert np.any(~regular & (size > 1))
        assert np.any(np.diff(f._starts) == 0)
    want = windows._segment_norm2(f._starts, f.terms)
    runs = set()
    for block in [*_BLOCKS, 96, 4096, 20_000]:
        calls = []

        def spy(starts, t):
            calls.append(starts.size - 1)
            return like_terms(starts, t)

        like_terms = windows._like_terms
        with mock.patch.object(windows, "_PAIR_BLOCK", block), \
                mock.patch.object(windows, "_like_terms", spy):
            got = windows._segment_norm2(f._starts, f.terms)
            slices, norm = f.slice_norm2(), f.norm2()
        runs.add(len(calls))
        assert got.tobytes() == want.tobytes()
        assert slices.tobytes() == np.maximum(want, 0.0).tobytes()
        assert norm == max(float(np.sum(f.grid.weights * want)), 0.0)
    # from one segment a run up to the whole table
    assert len(runs) >= 3


def test_canonical_norms_bit_identical():
    # one term per node: only diagonal rows, each taken at weight 1, so
    # the slice norms and the single-term windows keep the bits of the
    # ordered sum
    e = canonical_field(lambda_grid(E_FULL, 64, 1e-3))
    want = _reference_per_node(e, _copy(e)).real
    assert np.array_equal(e.slice_norm2(), np.maximum(want, 0.0))
    assert e.norm2() == max(float(np.sum(e.grid.weights * want)), 0.0)
    for i in range(e.grid.n):
        u = e.slice(i)
        assert u.norm2() == max(u.inner(u).real, 0.0) == max(want[i], 0.0)


def _sweeps(run):
    """Rows sent to paired_inner_sweep and moments evaluated (output
    entries of interval_moments, the pair sweeps' included) by run()."""
    rows, moments = [], []
    interval_moments = windows.interval_moments

    def sweep(a, *rest):
        rows.append(a[0].size)
        return paired_inner_sweep(a, *rest)

    def moment(*args):
        out = interval_moments(*args)
        moments.append(out.size)
        return out

    with mock.patch.object(windows, "paired_inner_sweep", sweep), \
            mock.patch.object(windows, "interval_moments", moment):
        run()
    return sum(rows), sum(moments)


def _merged_cells(d):
    """Per node, the distinct cells of d's table and the count of distinct
    frequencies on each: (node, lo, hi, count)."""
    rows = np.unique(np.stack([d.term_node, d.term_lo, d.term_hi,
                               d.term_freq], axis=1), axis=0)
    cells, count = np.unique(rows[:, :3], axis=0, return_counts=True)
    return cells[:, 0], cells[:, 1], cells[:, 2], count


def test_dense_norm_takes_shared_cells_as_lag_sums():
    # at (1, 1) the cells of f - r at one node are disjoint, and each holds
    # the 2 * 6 + 1 modulations of r one step apart: no pair sweep, and one
    # moment per cell and lag.  At (0.75, 1) translates overlap: exactly
    # the term pairs of distinct overlapping cells are swept, each once
    e = canonical_field(lambda_grid(E_FULL, 16, 1e-3))
    d = _dense_error(e, QuasiLatticeSpec(1, 1), 6, (1, 4, 2), (1, 6, 3), 8)
    node, _, _, count = _merged_cells(d)
    assert np.all(count == 13)
    rows, moments = _sweeps(d.slice_norm2)
    assert rows == 0 and 0 < moments <= node.size * 13

    d = _dense_error(e, QuasiLatticeSpec(0.75, 1), 6, (1, 4, 2), (1, 6, 3),
                     8)
    node, lo, hi, count = _merged_cells(d)
    a, b = np.triu_indices(node.size, 1)
    meet = ((node[a] == node[b])
            & (np.minimum(hi[a], hi[b]) > np.maximum(lo[a], lo[b])))
    assert meet.any()
    want = int(np.sum((count[a] * count[b])[meet]))
    assert _sweeps(d.slice_norm2)[0] == want


def _ordered_pair_norm2(w):
    """||w||^2 over the unordered overlapping pairs of w's own terms, the
    diagonal included, swept one by one and added in pair order."""
    ia, ib = np.triu_indices(w.n_terms)
    live = np.minimum(w.hi[ia], w.hi[ib]) > np.maximum(w.lo[ia], w.lo[ib])
    ia, ib = ia[live], ib[live]
    vals = paired_inner_sweep(windows._rows(w.terms, ia),
                              windows._rows(w.terms, ib), np.zeros(1))[:, 0]
    total = 0.0
    for v in np.where(ia == ib, 1.0, 2.0) * vals.real:
        total += v
    return total


def _loaded_one_cell(tmp_path, x2s):
    """Modulates of a one-node indicator field read back from its file:
    sum_j T_(0, x2_j, 0) g, one cell with frequencies -lam x2_j."""
    grid = LambdaGrid(np.array([0.5]), np.ones(1), 1e-3, E_FULL, "custom")
    field_save(FieldSample.from_windows(grid, [Window.indicator(0.0, 1.0)]),
               tmp_path / "g.hgs")
    g = field_load(tmp_path / "g.hgs")
    return field_sum([g.heisenberg_translate(0.0, x2, 0.0) for x2 in x2s],
                     [1.0, 2.0 - 1.0j, 0.5j])


def test_irregular_cells_take_the_pair_path(tmp_path):
    # a gap far below the rest ({0, 1e-12, 1}: l = 1e12 >= 2n), slots that
    # round together ({1, 1 + 3 eps, 1 + 5 eps}: quotients 1.5 and 2.5 of
    # the gap 2 eps both round to 2, and the fit is within 8 ulps), and a
    # spread whose quotient overflows (the gap 5e-321 against 0.5): each
    # class sweeps all its n(n+1)/2 pairs, reads the ordered pairs' value,
    # and never builds a slot table (at most 2 entries per merged term)
    coef = [[1, 0, 0], [2j, 0, 0], [-1, 0, 0]]
    eps = np.finfo(float).eps
    w = Window(np.zeros(3), np.ones(3), coef, [0.0, 1e-12, 1.0])
    v = Window(np.zeros(3), np.ones(3), coef, 1.0 + eps * np.array([0, 3, 5]))
    f = _loaded_one_cell(tmp_path, [0.0, 1e-320, 1.0])
    with np.errstate(over="ignore"):
        assert np.isinf(0.5 / np.diff(np.sort(f.term_freq)).min())
    for u in (w, v, f.slice(0)):
        (rows, _), peak = traced_peak(lambda: _sweeps(u.norm2))
        assert rows == 6
        want = _ordered_pair_norm2(u)
        assert abs(u.norm2() - want) <= 1e-15 * want
        # about 14 KB of small arrays; a slot table at m = 1e12, or at an
        # overflowed quotient, would need terabytes
        assert peak < 1 << 16
    assert f.norm2() == f.slice_norm2()[0] == f.slice(0).norm2()


def test_dense_norm_agrees_with_direct_error():
    # merged like terms leave no cancelling pairs: the dense squared
    # error of a reconstruction matches reconstruction_study's, which the
    # group law reads off the samples without sweeping any term
    e = canonical_field(lambda_grid(E_FULL, 256, 1e-3))
    spec = QuasiLatticeSpec(1, 1)
    f = atom_suite(e, spec, n_functions=1, n_atoms=16, box=(1, 8, 4),
                   seed=8).fields()[0]
    r = reconstruct(sample_on_lattice(f, e, spec, (3, 16, 8)), e, 1.0)
    dense = (f - r).norm2() / f.norm2()
    direct = reconstruction_study(f, e, spec, (3, 16, 8),
                                  1.0)["recon_error"] ** 2
    assert abs(dense - direct) <= 1e-12 * direct


def test_overlapping_dense_norm_sweeps_bounded_blocks():
    # at alpha = 0.75 the translates in the 256-node dense difference
    # f - r overlap, so distinct cells pair up; their term pairs, about
    # 300 bytes of scratch each, are swept in blocks of at most
    # _PAIR_BLOCK / 4 rows (whole blocks of _PAIR_BLOCK rows peaked at
    # 58 MB traced), which moves no bit of the norm
    e = canonical_field(lambda_grid(E_FULL, 256, 1e-3))
    spec = QuasiLatticeSpec(0.75, 1)
    f = atom_suite(e, spec, n_functions=1, n_atoms=16, box=(1, 8, 4),
                   seed=3).fields()[0]
    d = f - reconstruct(sample_on_lattice(f, e, spec, (3, 16, 8)), e, 1.0)
    rows = []

    def spy(a, b, df):
        rows.append(a[0].size)
        return paired_inner_sweep(a, b, df)

    with mock.patch.object(windows, "paired_inner_sweep", spy):
        norm, peak = traced_peak(d.norm2)
    assert d.n_terms == 63_232 and len(rows) > 1
    assert max(rows) <= windows._PAIR_BLOCK // 4
    assert repr(norm) == "1.219441486369181"
    assert peak < 24e6


def test_block_size_splits_every_pair_sweep():
    # windows._PAIR_BLOCK bounds the blocks of the field inner products,
    # the squared norms and the lattice table: at 1, a 3-node field with
    # live pairs on every node takes more than one sweep in each
    grid = _grid(3)
    f = FieldSample(grid, [0, 0, 1, 2, 2], [0.0, 0.5, 0.0, 0.0, 0.25],
                    [1.0, 1.5, 1.0, 1.0, 0.75], np.ones((5, MAX_DEGREE + 1)),
                    np.zeros(5))
    calls = []

    def spy(a, b, df):
        calls.append(a[0].size)
        return paired_inner_sweep(a, b, df)

    with mock.patch.object(windows, "_PAIR_BLOCK", 1), \
            mock.patch.object(windows, "paired_inner_sweep", spy):
        for run in (lambda: field_inner_per_node(f, f), f.slice_norm2,
                    lambda: grids._node_table(f, f, QuasiLatticeSpec(1, 1),
                                              0, 1)):
            calls.clear()
            run()
            assert len(calls) > 1


@settings(max_examples=80, deadline=None)
@given(fields=_field_pairs(), block=_block)
def test_field_inner_per_node_bit_identical(fields, block):
    f, g = fields
    with mock.patch.object(windows, "_PAIR_BLOCK", block):
        got = field_inner_per_node(f, g)
    assert np.array_equal(got, _reference_per_node(f, g))


_SPECS = st.sampled_from([QuasiLatticeSpec(1.0, 1.0),
                          QuasiLatticeSpec(0.75, 1.0),
                          QuasiLatticeSpec(0.75, 1.25)])


@settings(max_examples=40, deadline=None)
@given(fields=_field_pairs(), block=_block, spec=_SPECS)
def test_lattice_coefficients_match_reference_inner(fields, block, spec):
    f, g = fields
    kmax, lmax, mmax = 3, 2, 1
    with mock.patch.object(windows, "_PAIR_BLOCK", block):
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
@given(fields=_field_pairs(), spec=_SPECS)
def test_node_table_and_field_inner_share_one_sweep(fields, spec):
    # the lattice table and the field inner product are one kernel: its
    # k = 0, l = 0 slice is the field inner product bit for bit, no block
    # size moves a byte of the table, and each sweep of its 7 modulations
    # holds at most a quarter block of values, or one row
    f, g = fields
    live_k, H = grids._node_table(f, g, spec, 2, 3)
    at0 = np.flatnonzero(live_k == 2)
    got = H[at0].sum(axis=0)[:, 3]
    assert np.array_equal(got, field_inner_per_node(f, g))
    for block in _BLOCKS:
        sizes = []

        def spy(a, b, df):
            sizes.append(4 * a[0].size * df.size)
            return paired_inner_sweep(a, b, df)

        with mock.patch.object(windows, "_PAIR_BLOCK", block), \
                mock.patch.object(windows, "paired_inner_sweep", spy):
            k, h = grids._node_table(f, g, spec, 2, 3)
        assert k.tobytes() == live_k.tobytes()
        assert h.tobytes() == H.tobytes()
        assert max(sizes, default=0) <= max(block, 4 * 7)


@settings(max_examples=60, deadline=None)
@given(fields=_field_pairs(), block=_block)
def test_no_caller_sweeps_a_disjoint_pair(fields, block):
    # every pair reaches paired_inner_sweep through _translated_pairs and
    # its exact overlap test, in the field inner products and squared
    # norms, the lattice table, both unfolding joins,
    # Window.inner_freq_sweep and Window.norm2
    f, g = fields
    calls = []

    def spy(a, b, df):
        calls.append(a[0].size)
        assert np.all(np.minimum(a[1], b[1]) > np.maximum(a[0], b[0]))
        return paired_inner_sweep(a, b, df)

    with mock.patch.object(windows, "_PAIR_BLOCK", block), \
            mock.patch.object(fieldcheck, "paired_inner_sweep", spy), \
            mock.patch.object(windows, "paired_inner_sweep", spy):
        field_inner_per_node(f, g)
        f.slice_norm2()
        f.norm2()
        grids._node_table(f, g, QuasiLatticeSpec(0.75, 1.25), 3, 2)
        if f.grid.n % 2 == 0:
            _unfolded_sum(f, g, f.grid.nodes, 0.75, 2)
        for i in range(f.grid.n):
            f.slice(i).inner_freq_sweep(g.slice(i), np.array([0.0, 0.5]))
            f.slice(i).norm2()
    if _reference_pairs(f, g)[0].size:
        assert calls
