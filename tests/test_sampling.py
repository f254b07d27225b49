import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs.canonical import canonical_field
from hgs.errors import DomainError, FieldFormatError
from hgs.fieldcheck import translate_field
from hgs.grids import (FieldSample, SpectralSet, _node_table,
                       field_inner_per_node, field_sum, lambda_grid,
                       plancherel_measure)
from hgs.group import GroupPoint, LatticeIndex, QuasiLatticeSpec
from hgs import sampling
from hgs.sampling import (SampleSet, _fft_size, _reconstruction_norm2_fast,
                          evaluate_phi, interpolation_verdict,
                          isometry_ratio, onb_gram_check, reconstruct,
                          reconstruction_study, sample_on_lattice)
from hgs.testfields import atom_suite, random_pl_field
from hgs.windows import Window

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


def test_reconstruction_norm_memory_streams():
    # one row spectrum at a time: a batched (K, N, M) spectrum alone would
    # be 30 MB at this box
    e = canonical_field(lambda_grid(E_FULL, 1024, 1e-3))
    s = _random_samples(SPEC, (6, 32, 16), seed=13)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _reconstruction_norm2_fast(s, e, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_dense_field_inner_memory_bounded():
    # the pair stage runs on node blocks of at most _PAIR_BLOCK cross-joined
    # pairs and keeps only the overlapping ones before the sweep; gathering
    # the sweep's operands for every candidate pair peaked near 54 MB here
    e = canonical_field(lambda_grid(E_FULL, 64, 1e-3))
    f = atom_suite(e, SPEC, n_functions=1, n_atoms=16, box=(1, 8, 4),
                   seed=8).fields()[0]
    d = f - reconstruct(sample_on_lattice(f, e, SPEC, (3, 16, 8)), e, 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        field_inner_per_node(d, d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 24e6


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
