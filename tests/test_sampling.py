from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import cli, fieldcheck, grids, sampling, windows
from hgs.canonical import canonical_field
from hgs.errors import DomainError, FieldFormatError
from hgs.fieldcheck import (_suite_coefficients, _suite_norms, _suite_union,
                            lattice_coefficients, parseval_residual,
                            translate_field)
from hgs.grids import (FieldSample, SpectralSet, _gram_tables, _node_table,
                       _self_table, field_inner_per_node, field_load,
                       field_save, field_sum, lambda_grid,
                       plancherel_measure)
from hgs.group import GroupPoint, LatticeIndex, QuasiLatticeSpec
from hgs.sampling import (SampleSet, _fft_size, _reconstruction_norm2_fast,
                          evaluate_phi, interpolation_verdict,
                          isometry_ratio, onb_gram_check, reconstruct,
                          reconstruction_study, sample_on_lattice)
from hgs.testfields import AtomSuite, atom_suite, random_pl_field
from hgs.windows import _TWO_PI, Window

from conftest import traced_peak

SPEC = QuasiLatticeSpec(1, 1)
E_FULL = SpectralSet([(-1.0, 1.0)])


@pytest.fixture(scope="module")
def setup():
    grid = lambda_grid(E_FULL, 512, 1e-3)
    e = canonical_field(grid)
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=10,
                       box=(1, 4, 2), seed=77)
    return grid, e, suite


def test_evaluate_phi_identity(setup):
    grid, e, _ = setup
    val = evaluate_phi(e, e, GroupPoint(0, 0, 0))
    assert val.real == pytest.approx(grid.mass(), abs=1e-12)
    assert abs(val - 1.0) <= 2e-6


def test_evaluate_phi_outside_strip(setup):
    _, e, _ = setup
    assert evaluate_phi(e, e, GroupPoint(1.5, 0, 0)) == 0


def test_evaluate_phi_linear(setup):
    grid, e, suite = setup
    f1, f2 = suite.fields()
    x = GroupPoint(0.3, -0.7, 0.2)
    a, b = 1.5 - 0.5j, -0.25j
    combined = field_sum([f1, f2], [a, b])
    lhs = evaluate_phi(combined, e, x)
    rhs = a * evaluate_phi(f1, e, x) + b * evaluate_phi(f2, e, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sample_on_lattice_gram_row(setup):
    grid, e, _ = setup
    s = sample_on_lattice(e, e, SPEC, (2, 2, 2))
    assert s[LatticeIndex(0, 0, 0)] == \
        pytest.approx(grid.mass(), abs=1e-12)
    assert s[LatticeIndex(1, 0, 0)] == 0
    assert abs(s[LatticeIndex(0, 1, 0)]) <= 1e-3


def test_sample_on_lattice_matches_evaluate(setup):
    _, e, suite = setup
    f = suite.fields()[0]
    s = sample_on_lattice(f, e, SPEC, (1, 2, 1))
    for idx in [LatticeIndex(0, 0, 0), LatticeIndex(1, -2, 0),
                LatticeIndex(-1, 1, 1)]:
        want = evaluate_phi(f, e, idx.realize(SPEC))
        assert s[idx] == pytest.approx(want, abs=1e-12)


def test_samples_zero_field(setup):
    grid, e, _ = setup
    z = FieldSample.zero(grid)
    s = sample_on_lattice(z, e, SPEC, (1, 1, 1))
    assert s.energy() == 0


def test_left_invariance_of_samples(setup):
    _, e, suite = setup
    f = suite.fields()[0]
    g0 = LatticeIndex(1, -1, 0)
    shifted = translate_field(f, g0.k, g0.l, g0.m, SPEC)
    s_f = sample_on_lattice(f, e, SPEC, (3, 6, 4))
    s_shift = sample_on_lattice(shifted, e, SPEC, (2, 4, 2))
    # phi_shifted(gamma) = phi(g0^{-1} gamma): compare overlapping indices
    for idx in [LatticeIndex(0, 0, 0), LatticeIndex(1, 1, 1),
                LatticeIndex(-1, 2, -1)]:
        # g0^{-1} * gamma under the integer Heisenberg product
        inv = (-g0.k, -g0.l, -g0.m + g0.k * g0.l)
        comp = LatticeIndex(inv[0] + idx.k, inv[1] + idx.l,
                            inv[2] + idx.m + inv[0] * idx.l)
        assert s_shift[idx] == \
            pytest.approx(s_f[comp], abs=1e-10)


def test_isometry_ratio_canonical(setup):
    _, e, suite = setup
    f = suite.fields()[0]
    s = sample_on_lattice(f, e, SPEC, (3, 8, 4))
    ratio = isometry_ratio(s, f.norm2())
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_isometry_ratio_monotone_in_bounds(setup):
    _, e, suite = setup
    f = suite.fields()[0]
    r1 = isometry_ratio(sample_on_lattice(f, e, SPEC, (1, 2, 1)), f.norm2())
    r2 = isometry_ratio(sample_on_lattice(f, e, SPEC, (2, 5, 3)), f.norm2())
    assert r2 >= r1 - 1e-12


def test_isometry_ratio_rejects_zero_norm(setup):
    _, e, _ = setup
    s = sample_on_lattice(e, e, SPEC, (0, 0, 0))
    with pytest.raises(DomainError):
        isometry_ratio(s, 0.0)


def test_reconstruct_zero_samples(setup):
    grid, e, _ = setup
    s = SampleSet(spec=SPEC, array=np.zeros((3, 1, 1), dtype=complex))
    r = reconstruct(s, e, 1.0)
    assert r.norm2() == 0


def test_reconstruct_single_frame_element(setup):
    grid, e, _ = setup
    s = sample_on_lattice(e, e, SPEC, (2, 8, 4))
    r = reconstruct(s, e, 1.0)
    err = np.sqrt((e - r).norm2() / e.norm2())
    assert err <= 1e-3


def test_reconstruct_synthesized_phi(setup):
    _, e, suite = setup
    f = suite.fields()[1]
    s = sample_on_lattice(f, e, SPEC, (2, 8, 4))
    r = reconstruct(s, e, 1.0)
    err = np.sqrt((f - r).norm2() / f.norm2())
    assert err <= 5e-2


def test_resampling_consistency(setup):
    _, e, suite = setup
    f = suite.fields()[0]
    bounds = (2, 6, 3)
    s = sample_on_lattice(f, e, SPEC, bounds)
    r = reconstruct(s, e, 1.0)
    s2 = sample_on_lattice(r, e, SPEC, (1, 3, 1))
    for idx, v in s2:
        assert v == pytest.approx(s[idx], abs=2e-2)


def test_sampleset_csv_roundtrip(tmp_path, setup):
    _, e, _ = setup
    s = sample_on_lattice(e, e, SPEC, (1, 1, 1))
    path = tmp_path / "samples.csv"
    s.save_csv(path)
    s2 = SampleSet.load_csv(path, SPEC)
    assert [i for i, _ in s2] == [i for i, _ in s]
    assert np.allclose(s2.values(), s.values(), atol=0)
    (tmp_path / "bad.csv").write_text("k,l,m\n")
    with pytest.raises(FieldFormatError):
        SampleSet.load_csv(tmp_path / "bad.csv", SPEC)


def test_sampleset_csv_empty_and_sparse(tmp_path, setup):
    grid, e, _ = setup
    path = tmp_path / "samples.csv"
    path.write_text("k,l,m,re,im\n\n")
    s = SampleSet.load_csv(path, SPEC)
    assert len(s) == 0 and list(s) == [] and s.energy() == 0
    assert reconstruct(s, e, 1.0).norm2() == 0
    # missing indices of the box read as zero, in lexicographic order
    path.write_text("k,l,m,re,im\n1,0,0,2,0.5\n0,0,-1,-1,0\n")
    s = SampleSet.load_csv(path, SPEC)
    assert s.bounds() == (1, 0, 1) and len(s) == 9
    assert s[LatticeIndex(1, 0, 0)] == 2 + 0.5j
    assert s[LatticeIndex(0, 0, -1)] == -1
    assert s[LatticeIndex(-1, 0, 1)] == 0
    assert [i.astuple() for i, _ in s][:2] == [(-1, 0, -1), (-1, 0, 0)]


@pytest.mark.parametrize("text,line", [
    ("k,l,m,re,im\n0,0,0,1,0\n1,0,0,1,0\n0,0,0,2,0\n", 4),
    ("k,l,m,re,im\n0,0,0,nan,0\n", 2),
    ("k,l,m,re,im\n0,0,0,1,0\n0,0,1,1,inf\n", 3),
    ("k,l,m,re,im\n100000,100000,0,1,0\n", 2),
    ("k,l,m,re,im\n0,0,0,1,0\n0,1,\xe9,1,0\n", 3),
    ("k,l,m,re,im\n0,0\n", 2),
    ("", 1),
])
def test_sampleset_csv_bad_rows(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FieldFormatError) as err:
        SampleSet.load_csv(path, SPEC)
    assert err.value.line == line


_cells = st.one_of(st.integers(-30, 30).map(str),
                   st.sampled_from(["", " ", "x", "1e3", "nan", "-inf",
                                    "0.5", "-0", "1_0", "10" * 12, "\xe9"]),
                   st.text(max_size=4))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(_cells, min_size=0, max_size=6), max_size=8),
       header=st.sampled_from(["k,l,m,re,im", "k,l,m,re,im ", "k,l,m",
                               ""]),
       tail=st.binary(max_size=6))
def test_sampleset_csv_fuzz_raises_only_format_errors(tmp_path_factory,
                                                      rows, header, tail):
    text = "\n".join([header] + [",".join(r) for r in rows])
    path = tmp_path_factory.mktemp("fuzz") / "samples.csv"
    path.write_bytes(text.encode("utf-8") + tail)
    try:
        s = SampleSet.load_csv(path, SPEC)
    except FieldFormatError as exc:
        assert exc.line is not None
        return
    assert np.all(np.isfinite(s.values()))
    assert len(s) == 0 or all(n % 2 for n in s.array.shape)


def test_interpolation_verdict_cases():
    v = interpolation_verdict(E_FULL, SPEC)
    assert v.interpolation and v.mu_E == 1.0 and v.target == 1.0
    assert v.ab_leq_one and v.E_in_window and v.lattice_integer

    v = interpolation_verdict(SpectralSet([(-0.5, 0.5)]), SPEC)
    assert not v.interpolation and v.mu_E == pytest.approx(0.25, abs=0)

    v = interpolation_verdict(E_FULL, QuasiLatticeSpec(2, 2))
    assert not v.interpolation and not v.ab_leq_one and not v.E_in_window

    v = interpolation_verdict(SpectralSet([(-1.0, 0.5)]), SPEC)
    assert v.mu_E == pytest.approx(5 / 8, abs=0) and not v.interpolation

    v = interpolation_verdict(E_FULL, QuasiLatticeSpec(0.5, 1))
    assert v.target == 2.0 and not v.interpolation
    assert v.ab_leq_one and v.E_in_window and not v.lattice_integer


def test_onb_gram_check_canonical(setup):
    _, e, _ = setup
    rep = onb_gram_check(e, SPEC, (3, 3, 3), tol=1e-3)
    assert rep.passed
    assert rep.max_deviation <= 1e-3


def test_onb_gram_check_scaled_field_fails(setup):
    _, e, _ = setup
    rep = onb_gram_check(e.scaled(0.5), SPEC, (1, 1, 1), tol=1e-3)
    assert not rep.passed
    assert rep.max_deviation == pytest.approx(0.75, abs=1e-2)
    assert rep.worst_index == LatticeIndex(0, 0, 0)


def test_onb_gram_check_small_spectrum_fails():
    grid = lambda_grid(SpectralSet([(-0.5, 0.5)]), 256, 1e-3)
    e = canonical_field(grid)
    rep = onb_gram_check(e, SPEC, (2, 2, 2), tol=1e-3)
    assert not rep.passed
    # diagonal is the weighted measure of the reduced spectrum
    dev = abs(1.0 - plancherel_measure(SpectralSet([(-0.5, 0.5)])))
    assert rep.max_deviation == pytest.approx(dev, abs=1e-2)


def test_diagonal_identity_exact(setup):
    # ab * ||field||^2 equals ab * (closed-form measure minus the excluded
    # band) to near machine precision: midpoint is exact on the weight
    grid, e, _ = setup
    excluded = grid.lambda_min ** 2
    target = SPEC.alpha * SPEC.beta * (plancherel_measure(E_FULL) - excluded)
    assert SPEC.alpha * SPEC.beta * e.norm2() == \
        pytest.approx(target, abs=1e-12)


# -- the reconstruction norm from one group-law table -------------------------

def _split_cells(g):
    """g, whose terms are constant, with every cell cut in two at its
    midpoint: the same field with twice the terms."""
    mid = 0.5 * (g.term_lo + g.term_hi)
    two = (lambda x: np.concatenate([x, x]))
    return FieldSample(g.grid, two(g.term_node),
                       np.concatenate([g.term_lo, mid]),
                       np.concatenate([mid, g.term_hi]),
                       two(g.term_coef), two(g.term_freq))


def _transported(g, alpha):
    """g, whose terms are constant, with every cell scaled by alpha and its
    coefficients by alpha^{-1/2}: the canonical field carried to
    translation step alpha."""
    return FieldSample(g.grid, g.term_node, alpha * g.term_lo,
                       alpha * g.term_hi, g.term_coef / np.sqrt(alpha),
                       g.term_freq / alpha)


@pytest.fixture(scope="module")
def generators():
    grid = lambda_grid(E_FULL, 48, 1e-2)
    e = canonical_field(grid)
    return grid, {"canonical": e, "split": _split_cells(e),
                  "random_pl": random_pl_field(grid, seed=3,
                                               interval=(-0.8, 1.3)),
                  "transported": _transported(e, 0.75)}


@pytest.mark.parametrize("name", ["canonical", "split", "random_pl",
                                  "transported"])
@pytest.mark.parametrize("ab", [(1.0, 1.0), (0.75, 1.25)])
def test_reconstruction_norm_matches_dense(generators, name, ab):
    grid, gens = generators
    spec = QuasiLatticeSpec(*ab)
    f = atom_suite(gens["canonical"], spec, n_functions=1, n_atoms=6,
                   box=(1, 3, 2), seed=5).fields()[0]
    s = sample_on_lattice(f, gens[name], spec, (2, 5, 3))
    got = _reconstruction_norm2_fast(s, gens[name], 0.8)
    want = reconstruct(s, gens[name], 0.8).norm2()
    assert want > 1e-3
    assert abs(got - want) <= 1e-13 * want


@st.composite
def _pl_generator(draw, n):
    """n seeded piecewise-linear slices with drawn supports and breaks."""
    windows = []
    for _ in range(n):
        lo = draw(st.floats(-1.5, 0.5))
        width = draw(st.floats(0.2, 2.5))
        k = draw(st.integers(2, 5))
        breaks = lo + width * np.sort(np.concatenate(
            [[0.0, 1.0], draw(st.lists(st.floats(0.05, 0.95), min_size=k - 2,
                                       max_size=k - 2, unique=True))]))
        if min(np.diff(breaks)) < 1e-3:
            breaks = lo + width * np.linspace(0.0, 1.0, k)
        parts = st.floats(-2.0, 2.0)
        windows.append(Window.piecewise_linear(
            breaks, [complex(draw(parts), draw(parts)) for _ in breaks]))
    return windows


@settings(max_examples=40, deadline=None)
@given(windows=_pl_generator(4),
       box=st.tuples(st.integers(0, 2), st.integers(0, 8),
                     st.integers(0, 2)),
       seed=st.integers(0, 2 ** 32 - 1),
       ab=st.sampled_from([(1.0, 1.0), (0.75, 1.25), (0.5, 2.0),
                           (1.3, 0.6)]),
       c=st.floats(0.5, 2.0))
def test_reconstruction_norm_property(windows, box, seed, ab, c):
    grid = lambda_grid(E_FULL, 4, 0.1)
    e = FieldSample.from_windows(grid, windows)
    rng = np.random.default_rng(seed)
    shape = tuple(2 * b + 1 for b in box)
    s = SampleSet(QuasiLatticeSpec(*ab),
                  rng.normal(size=shape) + 1j * rng.normal(size=shape))
    got = _reconstruction_norm2_fast(s, e, c)
    want = reconstruct(s, e, c).norm2()
    # rounding scale: the norm of r with every term taken in modulus
    scale = s.energy() * float(np.sum(grid.weights * e.slice_norm2())) \
        * s.array.size / (c * c)
    assert abs(got - want) <= 1e-13 * scale


def _random_samples(spec, box, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(2 * b + 1 for b in box)
    return SampleSet(spec, rng.normal(size=shape)
                     + 1j * rng.normal(size=shape))


def test_fft_size_is_smallest_3_smooth_power():
    smooth = [2 ** a * 3 ** b for a in range(11) for b in range(7)]
    for n in range(1, 1001):
        assert _fft_size(n) == min(m for m in smooth if m >= n)


@pytest.mark.parametrize("box", [(0, 0, 1), (0, 3, 1), (2, 0, 1)])
@pytest.mark.parametrize("name", ["canonical", "split", "random_pl"])
def test_reconstruction_norm_degenerate_boxes(generators, name, box):
    # kmax = 0 leaves one row; lmax = 0 gives rows of length L = 1, M = 1
    _, gens = generators
    s = _random_samples(QuasiLatticeSpec(0.75, 1.25), box, seed=11)
    got = _reconstruction_norm2_fast(s, gens[name], 0.8)
    want = reconstruct(s, gens[name], 0.8).norm2()
    assert want > 1e-3
    assert abs(got - want) <= 1e-13 * want


def test_reconstruction_norm_zero_samples(generators):
    _, gens = generators
    s = SampleSet(SPEC, np.zeros((5, 7, 3), dtype=complex))
    assert _reconstruction_norm2_fast(s, gens["random_pl"], 1.0) == 0.0


def test_reconstruction_norm_reach_beyond_box():
    # slices 4 wide overlap at translations up to 4 > K = 3 rows, so the
    # widest offsets in the doubled box pair a single row each
    grid = lambda_grid(E_FULL, 8, 0.1)
    e = random_pl_field(grid, seed=4, interval=(-2.0, 2.0))
    live_k, _ = _node_table(e, e, SPEC, 8, 0)
    assert live_k.max() - 8 >= 3
    s = _random_samples(SPEC, (1, 4, 1), seed=12)
    got = _reconstruction_norm2_fast(s, e, 1.0)
    want = reconstruct(s, e, 1.0).norm2()
    assert want > 1e-3
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("ab", [(1.0, 1.0), (0.5, 2.0), (0.75, 1.25)])
def test_reconstruction_norm_independent_of_table_history(ab):
    # the norm reads e's kept tables at the box's reach; tables grown by
    # other calls first, in every direction, give the same bytes.  At (0.5,
    # 2) and (0.75, 1.25) the offset rho = 1 is live too
    spec = QuasiLatticeSpec(*ab)
    grid = lambda_grid(E_FULL, 48, 1e-2)
    fresh, grown = canonical_field(grid), canonical_field(grid)
    for reach in [(4, 3, 2, 9), (1, 9, 30, 1), (0, 0, 4, 40)]:
        _self_table(grown, spec, *reach)
    for box in [(2, 5, 3), (0, 2, 1), (3, 7, 4)]:
        s = _random_samples(spec, box, seed=sum(box))
        want = _reconstruction_norm2_fast(s, fresh, 0.8)
        fresh._table_memo = None
        assert _reconstruction_norm2_fast(s, grown, 0.8) == want
    assert grown._table_memo[1] == (4, 9, 30, 40)


def test_reconstruction_norm_memory_streams():
    # the cold call peaks in the table build: e's node table, one cocycle
    # and the tile rows next to the 1.7 MB of kept tables (10.6 MB in all);
    # the norm then holds the (K, P, Q) sample spectra, 2.2 MB.  Per-node
    # (K, N, M) row spectra alone would be 30 MB at this box
    e = canonical_field(lambda_grid(E_FULL, 1024, 1e-3))
    s = _random_samples(SPEC, (6, 32, 16), seed=13)
    _, peak = traced_peak(lambda: _reconstruction_norm2_fast(s, e, 1.0))
    assert peak < 24e6


def test_dense_field_inner_memory_bounded():
    # both pair searches run on node blocks of at most _PAIR_BLOCK candidate
    # pairs and keep only the overlapping ones before the sweep; gathering
    # the sweep's operands for every candidate pair peaked near 54 MB here,
    # and one unblocked search for the lattice table near 379 MB
    e = canonical_field(lambda_grid(E_FULL, 64, 1e-3))
    f = atom_suite(e, SPEC, n_functions=1, n_atoms=16, box=(1, 8, 4),
                   seed=8).fields()[0]
    d = f - reconstruct(sample_on_lattice(f, e, SPEC, (3, 16, 8)), e, 1.0)
    for inner in (lambda: field_inner_per_node(d, d), d.slice_norm2,
                  lambda: _node_table(d, d, SPEC, 1, 0),
                  lambda: lattice_coefficients([d], d, SPEC, 1, 0, 0)):
        assert traced_peak(inner)[1] < 24e6
    # the dense reference at 256 nodes (63,232 terms): the squared norm
    # runs whole segments of at most _PAIR_BLOCK / 32 terms (12.1 MB when
    # it merged and classed the whole table at once), reconstruct writes
    # its (e-term, k, l) columns by broadcasting (10.5 MB with repeat and
    # tile index arrays), and f - r negates r's rows in place and reorders
    # one column at a time (12.85 MB with a negated copy of r)
    e = canonical_field(lambda_grid(E_FULL, 256, 1e-3))
    f = atom_suite(e, SPEC, n_functions=1, n_atoms=16, box=(1, 8, 4),
                   seed=8).fields()[0]
    s = sample_on_lattice(f, e, SPEC, (3, 16, 8))
    r, peak = traced_peak(lambda: reconstruct(s, e, 1.0))
    assert peak < 1.6 * _table_bytes(r)
    d, peak = traced_peak(lambda: f - r)
    assert d.n_terms == 63_232 and peak < 2.0 * _table_bytes(d)
    assert traced_peak(d.norm2)[1] < 4e6


def _table_bytes(f):
    return sum(x.nbytes for x in (f.term_node, *f.terms))


def _reconstruct_literal(samples, e, c):
    """reconstruct with its (e-term, k, l) table laid out by repeat and
    tile index arrays, one entry per output term."""
    spec, grid = samples.spec, e.grid
    kmax, lmax, mmax = samples.bounds()
    ks, ls = np.arange(-kmax, kmax + 1), np.arange(-lmax, lmax + 1)
    stilde = np.matmul(grids._phase_table(grid.nodes, _TWO_PI, mmax),
                       samples.array.transpose(0, 2, 1))
    T, K, L = e.n_terms, ks.size, ls.size
    node = np.repeat(e.term_node, K * L)
    shift = np.tile(np.repeat(spec.alpha * ks, L), T)
    lo = np.repeat(e.term_lo, K * L) + shift
    hi = np.repeat(e.term_hi, K * L) + shift
    base_freq = np.repeat(e.term_freq, K * L)
    lam = grid.nodes[node]
    freq = base_freq - lam * spec.beta * np.tile(np.tile(ls, K), T)
    weight = stilde[np.tile(np.repeat(np.arange(K), L), T), node,
                    np.tile(np.tile(np.arange(L), K), T)]
    weight = weight * np.exp(-1j * _TWO_PI * base_freq * shift) / c
    coef = np.repeat(e.term_coef, K * L, axis=0) * weight[:, None]
    return FieldSample(grid, node, lo, hi, coef, freq)


@pytest.mark.parametrize("ab", [(0.75, 1.25), (0.5, 2.0)])
def test_reconstruct_matches_index_array_layout(generators, ab):
    # two terms per node in e, alpha != 1 and c != 1: every column of the
    # broadcast table is the index-array one, bit for bit
    _, gens = generators
    spec = QuasiLatticeSpec(*ab)
    f = atom_suite(gens["canonical"], spec, n_functions=1, n_atoms=6,
                   box=(1, 3, 2), seed=7).fields()[0]
    s = sample_on_lattice(f, gens["split"], spec, (2, 5, 3))
    got = reconstruct(s, gens["split"], 0.8)
    want = _reconstruct_literal(s, gens["split"], 0.8)
    for x, y in zip((got.term_node, *got.terms, got._starts),
                    (want.term_node, *want.terms, want._starts)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_difference_negates_rows_in_place(generators):
    # f - r is f's and r's rows node-major, f's first at each node, with
    # r's coefficients those of -1.0 * r bit for bit; nothing of f's
    # expansion or profile carries over
    _, gens = generators
    f = atom_suite(gens["canonical"], SPEC, n_functions=1, n_atoms=6,
                   box=(1, 3, 2), seed=7).fields()[0]
    r = reconstruct(sample_on_lattice(f, gens["split"], SPEC, (2, 5, 3)),
                    gens["split"], 0.8)
    d = f - r
    assert f.expansion is not None and f.profile is not None
    assert d.expansion is None and d.profile is None
    order = np.argsort(np.concatenate([f.term_node, r.term_node]),
                       kind="stable")
    for got, a, b in zip((d.term_node, *d.terms),
                         (f.term_node, *f.terms),
                         (r.term_node, r.term_lo, r.term_hi,
                          -1.0 * r.term_coef, r.term_freq)):
        assert got.tobytes() == np.concatenate([a, b])[order].tobytes()


def test_reconstruction_study_builds_no_field(generators, monkeypatch):
    _, gens = generators
    spec = QuasiLatticeSpec(0.75, 1.25)
    f = atom_suite(gens["canonical"], spec, n_functions=1, n_atoms=6,
                   box=(1, 3, 2), seed=7).fields()[0]
    s = sample_on_lattice(f, gens["split"], spec, (2, 5, 3))
    r = reconstruct(s, gens["split"], 1.0)
    want = np.sqrt((f - r).norm2() / f.norm2())

    def no_reconstruct(*args, **kwargs):
        raise AssertionError("reconstruction_study built r")

    monkeypatch.setattr(sampling, "reconstruct", no_reconstruct)
    got = reconstruction_study(f, gens["split"], spec, (2, 5, 3), 1.0)
    assert got["recon_error"] == pytest.approx(want, rel=1e-10)


# -- sampling and scoring through the lattice expansion -----------------------

@pytest.mark.parametrize("name", ["canonical", "split", "random_pl",
                                  "transported"])
@pytest.mark.parametrize("ab", [(1.0, 1.0), (0.75, 1.25), (0.5, 2.0)])
def test_table_slice_equals_fresh_build(generators, name, ab):
    # a field of its own starts without the tables other tests grew
    _, gens = generators
    e, spec = gens[name].scaled(1.0), QuasiLatticeSpec(*ab)
    _self_table(e, spec, 3, 6, 20, 9)
    for reach in [(3, 6, 20, 9), (3, 6, 3, 9), (1, 2, 20, 0), (2, 3, 8, 4),
                  (0, 1, 5, 9), (0, 0, 0, 0)]:
        rho, Y = _self_table(e, spec, *reach)
        want_rho, want_Y = _gram_tables(_node_table(e, e, spec, *reach[1:3]),
                                        e, spec, *reach[:2], reach[3])
        assert np.array_equal(rho, want_rho)
        assert Y.tobytes() == want_Y.tobytes()


def test_expansion_dropped_by_every_transform(generators, tmp_path):
    # a stale expansion would give wrong samples without any error
    grid, gens = generators
    e = gens["canonical"]
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=4, box=(1, 2, 1),
                       seed=3)
    f, g = suite.fields()
    assert f.expansion.base is e and f.expansion.spec == SPEC
    assert f.expansion.indices == suite.indices
    assert np.array_equal(f.expansion.coeffs, suite.coeffs[:1])
    assert np.array_equal(g.expansion.coeffs, suite.coeffs[1:])
    derived = {
        "scaled": f.scaled(2.0),
        "heisenberg_translate": f.heisenberg_translate(1.0, 0.5, 0.25),
        "restrict": f.restrict(SpectralSet([(0.0, 1.0)])),
        "take": f.take(np.arange(grid.n)),
        "slices_at": f.slices_at(grid.nodes),
        "add": f + g,
        "sub": f - g,
        "field_sum": field_sum([f, g], [1.0, 1.0]),
    }
    for name, h in derived.items():
        assert h.expansion is None, name
    # one atom at a central offset has plain indicator slices, so its field
    # can be written and read back
    one = AtomSuite(e, SPEC, (LatticeIndex(0, 0, 2),),
                    np.array([[0.6 - 0.8j]])).fields()[0]
    assert one.expansion is not None
    field_save(one, tmp_path / "one.field")
    assert field_load(tmp_path / "one.field").expansion is None


@st.composite
def _suite_cases(draw):
    """(spec, box, atom indices, seed, c, own base): the indices repeat one
    atom in the box and may reach past it."""
    ab = draw(st.sampled_from([(1.0, 1.0), (0.75, 1.25), (2.0, 0.5),
                               (0.5, 2.0)]))
    box = draw(st.tuples(st.integers(0, 2), st.integers(0, 4),
                         st.integers(0, 2)))
    index = st.tuples(*(st.integers(-b, b) for b in box))
    indices = draw(st.lists(index, min_size=1, max_size=6))
    indices.append(draw(st.sampled_from(indices)))
    if draw(st.booleans()):
        indices.append((0, box[1] + draw(st.integers(1, 3)), 0))
    return (QuasiLatticeSpec(*ab), box, indices,
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.floats(0.5, 2.0)),
            draw(st.booleans()))


@settings(max_examples=30)
@given(case=_suite_cases())
def test_suite_route_matches_field_route(generators, case):
    spec, box, indices, seed, c, own_base = case
    _, gens = generators
    e = gens["canonical"]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(1, len(indices))) \
        + 1j * rng.normal(size=(1, len(indices)))
    base = e if own_base else gens["random_pl"]
    f = AtomSuite(base, spec, tuple(LatticeIndex(*i) for i in indices),
                  coeffs).fields()[0]
    plain = f.scaled(1.0)           # the same terms, without the expansion
    got = reconstruction_study(f, e, spec, box, c)
    want = reconstruction_study(plain, e, spec, box, c)
    s, s_want = got["samples"].array, want["samples"].array
    if not own_base:
        # an expansion over another base takes the field route
        assert np.array_equal(s, s_want)
        assert got["ratio"] == want["ratio"]
        assert got["recon_error"] == want["recon_error"]
        return
    assert np.max(np.abs(s - s_want)) <= 1e-13 * np.max(np.abs(s_want))
    assert abs(got["ratio"] - want["ratio"]) <= 1e-14 * want["ratio"]
    # the dense oracle cancels: its bound is eps (||f||^2 + ||r||^2) / err^2
    r = reconstruct(want["samples"], e, c)
    err2, nf = (plain - r).norm2(), plain.norm2()
    dense = np.sqrt(err2 / nf)
    bound = np.finfo(float).eps * (nf + r.norm2()) / err2
    assert abs(got["recon_error"] - dense) <= bound * dense
    # summation order moves the direct error at rounding level only
    with mock.patch.object(windows, "_PAIR_BLOCK", 7):
        again = reconstruction_study(f, e, spec, box, c)["recon_error"]
    assert again == pytest.approx(got["recon_error"], rel=1e-9)


@st.composite
def _norm_cases(draw):
    """(generator, spec, box, atom indices, seed): one atom index repeats
    and one lies outside the box."""
    name = draw(st.sampled_from(["canonical", "random_pl"]))
    ab = draw(st.sampled_from([(1.0, 1.0), (2.0, 0.5), (0.75, 1.25),
                               (1.0, 0.5)]))
    box = draw(st.tuples(st.integers(0, 2), st.integers(0, 4),
                         st.integers(0, 2)))
    index = st.tuples(*(st.integers(-b, b) for b in box))
    indices = draw(st.lists(index, min_size=1, max_size=5))
    indices.append(draw(st.sampled_from(indices)))
    outside = list(draw(index))
    axis = draw(st.integers(0, 2))
    outside[axis] = draw(st.sampled_from([-1, 1])) * (
        box[axis] + draw(st.integers(1, 3)))
    indices.append(tuple(outside))
    return (name, QuasiLatticeSpec(*ab), box, indices,
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=25)
@given(case=_norm_cases())
def test_suite_norms_read_off_samples(generators, case):
    # ||f_s||^2 = Re sum_j conj(c_sj) phi_s(gamma_j) on the union of the box
    # and the atom indices, for a suite over the generator itself
    name, spec, box, indices, seed = case
    _, gens = generators
    g = gens[name]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(2, len(indices))) \
        + 1j * rng.normal(size=(2, len(indices)))
    suite = AtomSuite(g, spec, tuple(LatticeIndex(*i) for i in indices),
                      coeffs)
    fields = suite.fields()
    union, at, _ = _suite_union(suite, box)
    phi = _suite_coefficients(suite, g, spec, *union)
    norms = _suite_norms(suite, phi[(slice(None),) + at])
    want = np.array([f.norm2() for f in fields])
    assert np.all(np.abs(norms - want) <= 1e-13 * want)
    assert parseval_residual(g, spec, suite, *box) == pytest.approx(
        parseval_residual(g, spec, fields, *box), rel=0, abs=1e-13)
    got = reconstruction_study(fields[0], g, spec, box, 1.0)["ratio"]
    plain = reconstruction_study(fields[0].scaled(1.0), g, spec, box,
                                 1.0)["ratio"]
    assert abs(got - plain) <= 1e-14


def test_suite_study_reads_one_e_table(generators, monkeypatch):
    # one _node_table(e, e) call serves the samples, the norm and the
    # error; f's terms are never swept and r is never built.  A new field
    # (scaled by 1) starts without the table earlier tests left on its source
    _, gens = generators
    e, spec = gens["random_pl"].scaled(1.0), QuasiLatticeSpec(0.75, 1.25)
    f = atom_suite(e, spec, n_functions=1, n_atoms=6, box=(1, 3, 2), seed=7,
                   extra_indices=[(0, 6, 0)]).fields()[0]
    calls = []

    def spy(a, b, *args):
        calls.append((a, b))
        return _node_table(a, b, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("field route taken")

    for module in (grids, fieldcheck):
        monkeypatch.setattr(module, "_node_table", spy)
    for module in (fieldcheck, sampling):
        monkeypatch.setattr(module, "lattice_coefficients", forbidden)
    monkeypatch.setattr(FieldSample, "norm2", forbidden)
    monkeypatch.setattr(sampling, "reconstruct", forbidden)
    row = reconstruction_study(f, e, spec, (2, 4, 2), 1.0)
    assert len(calls) == 1 and calls[0][0] is e and calls[0][1] is e
    assert row["recon_error"] > 0


def test_cmd_sample_sweeps_no_field(capsys, monkeypatch):
    # every table hgs sample builds pairs its generator e with itself; a
    # sweep of a field's terms would pair the field with e
    made, calls = [], []

    def make_e(grid):
        made.append(canonical_field(grid))
        return made[-1]

    def spy(a, b, *args):
        calls.append((a, b))
        return _node_table(a, b, *args)

    monkeypatch.setattr(cli, "canonical_field", make_e)
    for module in (grids, fieldcheck):
        monkeypatch.setattr(module, "_node_table", spy)
    assert cli.main(["sample", "--no-timestamp", "--bounds", "2,4,2"]) == 0
    capsys.readouterr()
    assert len(made) == 1 and calls
    assert all(a is made[0] and b is made[0] for a, b in calls)
