from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import grids
from hgs.cli import _load_config
from hgs.errors import (DomainError, EmptyGridError, FieldFormatError,
                        GridMismatchError, HgsError, WindowStructureError)
from hgs.grids import (FieldSample, SpectralSet, TimeGrid, field_inner,
                       field_load, field_save, gauss_lambda_grid, lambda_grid,
                       plancherel_measure, point_grid)
from hgs.group import QuasiLatticeSpec
from hgs.sampling import SampleSet
from hgs.windows import Window

E_UNIT = SpectralSet([(-1.0, 1.0)])


def test_plancherel_measure_closed_forms():
    assert plancherel_measure(SpectralSet([(-1, 1)])) == pytest.approx(1.0, abs=0)
    assert plancherel_measure(SpectralSet([(0.5, 1)])) == pytest.approx(3 / 8, abs=0)
    assert plancherel_measure(SpectralSet([])) == 0.0


def test_plancherel_additive_over_disjoint_sets():
    e1 = SpectralSet([(-1, -0.25)])
    e2 = SpectralSet([(0.1, 0.7), (1.0, 1.5)])
    both = SpectralSet(list(e1.intervals) + list(e2.intervals))
    assert plancherel_measure(both) == pytest.approx(
        plancherel_measure(e1) + plancherel_measure(e2), abs=1e-15)


def test_spectral_set_validation():
    with pytest.raises(DomainError):
        SpectralSet([(1, 1)])
    with pytest.raises(DomainError):
        SpectralSet([(0, 2), (1, 3)])
    assert SpectralSet([(0.5, 1), (-1, 0)]).intervals == ((-1.0, 0.0), (0.5, 1.0))


def test_spectral_set_parse():
    E = SpectralSet.parse("-1,0;0.5,1")
    assert E.intervals == ((-1.0, 0.0), (0.5, 1.0))
    with pytest.raises(DomainError):
        SpectralSet.parse("1;2")


def test_lambda_grid_mass_matches_closed_form():
    E = SpectralSet([(-1, 1)])
    g = lambda_grid(E, 64, 0.05)
    assert g.n == 64
    assert g.mass() == pytest.approx(1 - 0.05 ** 2, abs=1e-3)
    # midpoint is exact for the linear weight on each side
    assert g.mass() == pytest.approx(1 - 0.05 ** 2, abs=1e-13)
    assert np.all(np.abs(g.nodes) >= 0.05)
    assert np.all(g.weights >= 0)


def test_lambda_grid_cutoff_inactive():
    E = SpectralSet([(0.5, 1)])
    for n in (8, 16, 32):
        g = lambda_grid(E, n, 0.05)
        assert g.mass() == pytest.approx(3 / 8, abs=1e-12)
        assert g.n == n


def test_lambda_grid_empty_error():
    with pytest.raises(EmptyGridError):
        lambda_grid(SpectralSet([(-0.01, 0.01)]), 8, 0.05)
    with pytest.raises(EmptyGridError):
        lambda_grid(SpectralSet([(-1, 1)]), 8, 2.0)


def quadrature_error(grid, fn, exact):
    return abs(float(np.sum(grid.weights * fn(grid.nodes))) - exact)


def test_midpoint_convergence_order():
    # smooth integrand: int_E cos(lam) |lam| dlam on [0.1, 1]
    E = SpectralSet([(0.1, 1.0)])
    exact = (np.cos(1) + 1 * np.sin(1)) - (np.cos(0.1) + 0.1 * np.sin(0.1))
    errs = [quadrature_error(lambda_grid(E, n, 0.05), np.cos, exact)
            for n in (16, 32, 64)]
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_gauss_grid_high_accuracy():
    E = SpectralSet([(0.1, 1.0)])
    exact = (np.cos(1) + np.sin(1)) - (np.cos(0.1) + 0.1 * np.sin(0.1))
    g = gauss_lambda_grid(E, 64, 0.05, order=8)
    assert quadrature_error(g, np.cos, exact) < 1e-14
    assert np.all(g.nodes > 0.1)


def unit_indicator_field(grid):
    return FieldSample.from_windows(
        grid, [Window.indicator(1 / lam - 1, 1 / lam, 1.0) if lam > 0
               else Window.indicator(-1.0, 0.0, 1.0) for lam in grid.nodes])


def test_field_inner_unit_field_mass():
    grid = lambda_grid(SpectralSet([(-1, 1)]), 64, 0.05)
    e = unit_indicator_field(grid)
    assert field_inner(e, e) == pytest.approx(grid.mass(), abs=1e-12)
    assert e.norm2() == pytest.approx(1.0, abs=3e-3)


def test_field_inner_disjoint_supports_zero():
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 8, 0.05)
    f = FieldSample.from_windows(grid, [Window.indicator(0, 1)] * grid.n)
    g = FieldSample.from_windows(grid, [Window.indicator(2, 3)] * grid.n)
    assert field_inner(f, g) == 0


def test_field_inner_conjugate_symmetry():
    rng = np.random.default_rng(5)
    grid = lambda_grid(SpectralSet([(0.2, 1)]), 6, 0.05)
    mk = lambda: FieldSample.from_windows(
        grid, [Window.piecewise_linear(
            np.sort(rng.uniform(-2, 2, 4)),
            rng.normal(size=4) + 1j * rng.normal(size=4))
            for _ in range(grid.n)])
    f, g = mk(), mk()
    assert field_inner(f, g) == pytest.approx(np.conj(field_inner(g, f)),
                                              abs=1e-13)
    assert field_inner(f, f).imag == pytest.approx(0.0, abs=1e-13)
    assert field_inner(f, f).real > 0


def test_field_inner_grid_mismatch():
    E = SpectralSet([(0.5, 1)])
    f = FieldSample.zero(lambda_grid(E, 8, 0.05))
    g = FieldSample.zero(lambda_grid(E, 16, 0.05))
    with pytest.raises(GridMismatchError):
        field_inner(f, g)


def test_heisenberg_translate_unitary_and_exact():
    grid = lambda_grid(SpectralSet([(-1, 1)]), 32, 0.05)
    e = unit_indicator_field(grid)
    t = e.heisenberg_translate(1.0, 2.0, 0.5)
    assert field_inner(t, t) == pytest.approx(field_inner(e, e), rel=1e-12)
    # central coordinate acts by a pure per-slice phase
    c = e.heisenberg_translate(0.0, 0.0, 1.0)
    i = grid.n // 2
    lam = grid.nodes[i]
    ratio = c.slice(i).coef[0, 0] / e.slice(i).coef[0, 0]
    assert ratio == pytest.approx(np.exp(2j * np.pi * lam), abs=1e-14)


def test_field_add_sub_scaled():
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 8, 0.05)
    e = unit_indicator_field(grid)
    z = e - e.scaled(1.0)
    assert z.norm2() <= 1e-30
    assert (e + e).norm2() == pytest.approx(4 * e.norm2(), rel=1e-12)


def test_slice_at_profile_and_interpolation():
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 8, 0.05)
    prof = lambda lam: Window.indicator(0, 1, lam)
    f = FieldSample.from_profile(grid, prof)
    w = f.slice_at(0.777)
    assert w.coef[0, 0] == pytest.approx(0.777)
    g = FieldSample.from_windows(grid, f.windows())
    w2 = g.slice_at(float(grid.nodes[3]))
    assert w2.coef[0, 0] == pytest.approx(grid.nodes[3])
    w3 = g.slice_at(0.5 * (grid.nodes[3] + grid.nodes[4]))
    assert w3.n_terms == 2  # linear interpolation of bracketing slices


def test_field_save_load_roundtrip_indicator(tmp_path):
    grid = lambda_grid(SpectralSet([(-1, 1)]), 16, 0.05)
    e = unit_indicator_field(grid)
    path = tmp_path / "field.hgs"
    field_save(e, path)
    f = field_load(path)
    assert f.grid.same_as(e.grid)
    assert f.grid.lambda_min == e.grid.lambda_min
    assert np.array_equal(f.term_lo, e.term_lo)
    assert np.array_equal(f.term_hi, e.term_hi)
    assert np.array_equal(f.term_coef, e.term_coef)
    assert (f - e).norm2() == 0


def test_field_save_load_roundtrip_samples(tmp_path):
    rng = np.random.default_rng(9)
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 4, 0.05)
    kinds, windows = [], []
    for _ in range(grid.n):
        data = rng.normal(size=5) + 1j * rng.normal(size=5)
        tg = TimeGrid(-1.0, 0.5, 5)
        kinds.append(("samples", tg, data))
        windows.append(Window.from_samples(tg.offset, tg.step, data))
    f = FieldSample.from_windows(grid, windows, kinds=kinds)
    path = tmp_path / "field.hgs"
    field_save(f, path)
    g = field_load(path)
    for k1, k2 in zip(f.kinds, g.kinds):
        assert k1[1] == k2[1]
        assert np.array_equal(np.asarray(k1[2], dtype=complex), k2[2])
    assert (f - g).norm2() == 0


def test_write_ascii_refuses_non_ascii_before_touching_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("kept\n")
    with pytest.raises(UnicodeEncodeError):
        grids._write_ascii(path, "lambda \u03bb\n")
    assert path.read_text() == "kept\n"


def test_field_load_truncated_file(tmp_path):
    grid = lambda_grid(SpectralSet([(-1, 1)]), 8, 0.05)
    e = unit_indicator_field(grid)
    path = tmp_path / "field.hgs"
    field_save(e, path)
    text = path.read_text().splitlines()
    (tmp_path / "trunc.hgs").write_text("\n".join(text[:-3]) + "\n")
    with pytest.raises(FieldFormatError):
        field_load(tmp_path / "trunc.hgs")
    (tmp_path / "garbled.hgs").write_text(
        text[0] + "\nnonsense record\n")
    with pytest.raises(FieldFormatError) as err:
        field_load(tmp_path / "garbled.hgs")
    assert "line 2" in str(err.value)


def test_field_save_rejects_exotic_slice(tmp_path):
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 2, 0.05)
    w = Window.indicator(0, 1).modulate(1.5)
    f = FieldSample.from_windows(grid, [w, w])
    with pytest.raises(WindowStructureError):
        field_save(f, tmp_path / "bad.hgs")


def test_gauss_grid_rejects_nonpositive_lambda_min():
    # a negative cut would leave overlapping pieces with too much mass
    with pytest.raises(DomainError):
        gauss_lambda_grid(SpectralSet([(-1, 1)]), 64, lambda_min=-0.1)
    with pytest.raises(DomainError):
        gauss_lambda_grid(SpectralSet([(-1, 1)]), 64, lambda_min=0.0)


def test_grid_layouts_pinned():
    # nodes and weights of both rules, stored from the per-rule layout code
    # that the shared layout replaced; equality is bit for bit
    E = SpectralSet([(-1.0, 0.5), (0.75, 1.25)])
    mid = lambda_grid(E, 3, 0.1)
    assert np.array_equal(mid.nodes, [
        -0.775, -0.32499999999999996, 0.30000000000000004,
        0.8333333333333334, 1.0, 1.1666666666666665])
    assert np.array_equal(mid.weights, [
        0.34875, 0.14625, 0.12000000000000002, 0.1388888888888889,
        0.16666666666666666, 0.19444444444444442])
    gauss = gauss_lambda_grid(E, 4, 0.1, order=2)
    assert gauss.rule == "gauss2"
    assert np.array_equal(gauss.nodes, [
        -0.8098076211353316, -0.2901923788646685, 0.18452994616207485,
        0.4154700538379251, 0.8028312163512967, 0.9471687836487033,
        1.0528312163512967, 1.1971687836487033])
    assert np.array_equal(gauss.weights, [
        0.3644134295108992, 0.13058657048910083, 0.03690598923241497,
        0.08309401076758503, 0.10035390204391209, 0.11839609795608791,
        0.1316039020439121, 0.1496460979560879])


def _allocate_loops(pieces, n_per_interval):
    """The node budget split in two loops: the largest remainder takes one
    node at a time while the budget lasts, then the smallest gives one back
    while the budget is passed and its piece has more than one."""
    by_parent = {}
    for idx, lo, hi in pieces:
        by_parent.setdefault(idx, []).append((lo, hi))
    alloc = []
    for idx in sorted(by_parent):
        segs = by_parent[idx]
        total = sum(hi - lo for lo, hi in segs)
        raw = [n_per_interval * (hi - lo) / total for lo, hi in segs]
        counts = [max(1, int(r)) for r in raw]
        while sum(counts) < n_per_interval:
            rems = [r - c for r, c in zip(raw, counts)]
            counts[rems.index(max(rems))] += 1
        while sum(counts) > n_per_interval and max(counts) > 1:
            rems = [r - c for r, c in zip(raw, counts)]
            j = rems.index(min(rems))
            if counts[j] > 1:
                counts[j] -= 1
            else:
                break
        alloc.extend((lo, hi, c) for (lo, hi), c in zip(segs, counts))
    return alloc


@st.composite
def _cut_sets(draw):
    """A spectral set of up to four intervals with ends on a 1/16 grid in
    [-3, 3], and a cut-off."""
    ends = sorted(draw(st.sets(st.integers(-48, 48), min_size=2,
                               max_size=8)))
    E = SpectralSet([(a / 16, b / 16) for a, b in zip(ends[::2], ends[1::2])])
    return E, draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))


@settings(max_examples=200)
@given(case=_cut_sets(), n=st.integers(1, 40))
def test_allocate_spends_each_budget(case, n):
    # each interval's budget goes to its pieces, at most two, in one
    # largest-remainder step: n nodes, or one per piece where n is smaller,
    # placed where the split by loops placed them
    E, lambda_min = case
    pieces = E.cut(lambda_min)
    alloc = grids._allocate(pieces, n)
    assert alloc == _allocate_loops(pieces, n)
    for idx in range(len(E.intervals)):
        counts = [c for (i, *_), (*_, c) in zip(pieces, alloc) if i == idx]
        assert len(counts) <= 2
        assert sum(counts) == (max(n, len(counts)) if counts else 0)
    if not pieces:
        return
    rules = (lambda: lambda_grid(E, n, lambda_min),
             lambda: gauss_lambda_grid(E, n + 1, lambda_min, order=2))
    for rule in rules:
        got = rule()
        with mock.patch.object(grids, "_allocate", _allocate_loops):
            want = rule()
        assert got.nodes.tobytes() == want.nodes.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()


@st.composite
def _concat_cases(draw):
    """Up to three fields on grids of 1 to 4 nodes, terms told apart by
    their cells (term j of field i on [100 i + j, 100 i + j + 1)), a map of
    each field's nodes into six (unsorted, with repeats) and a factor or
    None per field."""
    fields, maps, scale = [], [], []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        node = np.repeat(np.arange(n), counts)
        lo = 100.0 * i + np.arange(node.size)
        coef = np.arange(3.0 * node.size).reshape(-1, 3) * (1.0 - 0.5j)
        fields.append(FieldSample(point_grid(np.arange(n), E_UNIT), node, lo,
                                  lo + 1.0, coef, np.zeros(node.size)))
        maps.append(np.array(draw(st.lists(st.integers(0, 5), min_size=n,
                                           max_size=n))))
        scale.append(draw(st.sampled_from([None, -1.0, 0.5j, 3.0])))
    return fields, maps, scale


@settings(max_examples=100)
@given(case=_concat_cases(), mapped=st.booleans())
def test_concat_order_contract(case, mapped):
    # rows come node-major; within a node the fields keep their order and
    # each field the order of its terms; a field's coefficients are scaled
    # as by f.term_coef * c
    fields, maps, scale = case
    out = grids._concat(point_grid(np.arange(6), E_UNIT), fields,
                        maps if mapped else None, scale)
    rows = sorted((int(m[k]) if mapped else int(k), i, j)
                  for i, (f, m) in enumerate(zip(fields, maps))
                  for j, k in enumerate(f.term_node))
    assert out.term_node.tolist() == [k for k, _, _ in rows]
    assert out.term_lo.tolist() == [100.0 * i + j for _, i, j in rows]
    want = [fields[i].term_coef[j] * (1.0 if scale[i] is None else scale[i])
            for _, i, j in rows]
    assert out.term_coef.tobytes() == np.reshape(want, (-1, 3)).tobytes()


def test_slices_at_keeps_each_point_in_order():
    # the points that hit a node, then both bracketing slices of each other
    # point, merged back into point order: the map [on, off, off]
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 8, 0.05)
    f = FieldSample.from_windows(grid, [
        Window.indicator(0.0, 1.0, lam) + Window.indicator(1.0, 2.0, -lam)
        for lam in grid.nodes])
    nodes = grid.nodes
    lams = [0.5 * (nodes[4] + nodes[5]), nodes[6], 0.5 * (nodes[1] + nodes[2]),
            nodes[0]]
    s = f.slices_at(lams)
    assert s.term_node.tolist() == [0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3]
    for k, want in enumerate([f.slice(4) * 0.5 + f.slice(5) * 0.5,
                              f.slice(6),
                              f.slice(1) * 0.5 + f.slice(2) * 0.5,
                              f.slice(0)]):
        w = s.slice(k)
        assert np.array_equal(w.lo, want.lo) and np.array_equal(w.hi, want.hi)
        assert np.allclose(w.coef, want.coef, rtol=1e-12, atol=0)


def _samples_file(tmp_path):
    grid = lambda_grid(SpectralSet([(0.5, 1)]), 2, 0.05)
    tg = TimeGrid(-1.0, 0.5, 3)
    data = np.array([0.0, 1.0 + 0.5j, 0.0])
    w = Window.from_samples(tg.offset, tg.step, data)
    f = FieldSample.from_windows(grid, [w, w],
                                 kinds=[("samples", tg, data)] * 2)
    path = tmp_path / "field.hgs"
    field_save(f, path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("prefix,replacement", [
    ("rule", "rule"),                                # record with no value
    ("slice samples", "slice samples 0 0.5 -2 1 0"),  # negative count
    ("slice samples", "slice samples 0 0 3 0 0 1 0 0 0"),  # zero step
    ("node", "node 0.75 nan"),                       # NaN weight
    ("node", "node 0.75 -1"),                        # negative weight
    ("node", "node inf 1"),                          # non-finite node
    ("node", "node 0.1 1"),                          # below a previous node
    ("interval", "interval 1 -1"),                   # reversed interval
    ("lambda_min", "lambda_min -3"),                 # negative cut-off
    ("nodes", "nodes 0"),                            # no nodes
    ("slice samples", "slice samples 0 0.5 3 0 0 nan 0 0 0"),  # NaN sample
])
def test_field_load_rejects_bad_records(tmp_path, prefix, replacement):
    # every bad record is a FieldFormatError naming its line, never an
    # IndexError, a DomainError or a field that fails later
    lines = _samples_file(tmp_path)
    # the last matching record, so a node record has a predecessor
    idx = max(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[idx] = replacement
    path = tmp_path / "bad.hgs"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError) as err:
        field_load(path)
    assert err.value.line == idx + 1
    assert f"line {idx + 1}:" in str(err.value)


@pytest.mark.parametrize("edit", ["non_ascii", "overlap", "reversed_slice",
                                  "trailing"])
def test_field_load_rejects_bad_lines(tmp_path, edit):
    lines = [ln.encode("ascii") for ln in _samples_file(tmp_path)]
    if edit == "non_ascii":
        idx = 5
        lines[idx] = b"node 0.75 1 \xff"
    elif edit == "overlap":
        # a second interval overlapping the first
        idx = 2
        lines.insert(idx, b"interval 0.75 2")
    elif edit == "reversed_slice":
        idx = 8
        lines[idx] = b"slice indicator 2 1 1 0"
    else:
        # a record beyond the node count
        idx = len(lines)
        lines.append(b"node 0.95 0.1")
    path = tmp_path / "bad.hgs"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FieldFormatError) as err:
        field_load(path)
    assert err.value.line == idx + 1


_VALID_FIELD = [
    "hgsfield 1", "interval 0.5 1", "lambda_min 0.05", "rule midpoint",
    "nodes 2", "node 0.625 0.078125",
    "slice samples -1 0.5 3 0 0 1 0.5 0 0", "node 0.875 0.109375",
    "slice indicator 0 1 1 0"]
_token = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "-0.5", "nan", "inf",
                     "-inf", "1e308", "x", "indicator", "samples"]),
    st.integers(-3, 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_record = st.tuples(
    st.sampled_from(["hgsfield", "interval", "lambda_min", "rule", "nodes",
                     "node", "slice indicator", "slice samples", "slice",
                     "other"]),
    st.lists(_token, max_size=9)).map(lambda r: " ".join((r[0], *r[1])))


@settings(max_examples=200)
@given(edits=st.lists(st.tuples(st.integers(0, len(_VALID_FIELD)),
                                st.sampled_from(["replace", "insert",
                                                 "delete"]),
                                _record), max_size=4),
       tail=st.binary(max_size=4))
def test_field_load_fuzz_raises_only_format_errors(tmp_path_factory, edits,
                                                   tail):
    # mutations of a valid file: a load either gives a field with a sound
    # grid or raises FieldFormatError naming a line
    lines = list(_VALID_FIELD)
    for pos, op, record in edits:
        pos = min(pos, len(lines))
        if op == "insert":
            lines.insert(pos, record)
        elif pos < len(lines):
            if op == "replace":
                lines[pos] = record
            else:
                del lines[pos]
    path = tmp_path_factory.mktemp("fuzz") / "field.hgs"
    path.write_bytes("\n".join(lines).encode("ascii") + tail)
    try:
        f = field_load(path)
    except FieldFormatError as exc:
        assert exc.line is not None
        return
    grid = f.grid
    assert grid.n >= 1 and grid.lambda_min > 0
    assert np.all(np.diff(grid.nodes) > 0) and np.all(grid.nodes != 0)
    assert np.all(grid.weights > 0) and np.all(np.isfinite(grid.weights))
    assert np.all(np.isfinite(f.term_lo)) and np.all(np.isfinite(f.term_hi))
    assert np.all(np.isfinite(f.term_coef))


# the field file is decoded whole before it is parsed, the config file and
# the sample CSV one line at a time, so a bad record before a non-ASCII
# line wins only in those two; a blank first line is no CSV header
@pytest.mark.parametrize("reader, text, want", [
    ("config", b"lambda_nodes 16\nseed\n\xff\n",
     "config line 2: expected 'key value'"),
    ("csv", b"k,l,m,re,im\n0,0,0,1\n\xff\n", "line 2: bad sample row"),
    ("csv", b"\n\xff\n", "line 1: bad sample CSV header"),
    ("csv", b" k,l,m,re,im \n 0,0,0,1,x \n", "line 2: could not convert "
     "string to float: 'x '"),
    ("field", b"hgsfield 1\nbogus 1\n\xff\n", "line 3: not ASCII text"),
    ("field", b"\n hgsfield 1 \n\nbogus 1\n", "line 4: unexpected record "
     "'bogus'"),
], ids=["config", "csv", "csv-blank-header", "csv-padded", "field",
        "field-padded"])
def test_reader_error_order_and_line(tmp_path, reader, text, want):
    path = tmp_path / "input"
    path.write_bytes(text)
    load = {"config": _load_config, "field": field_load,
            "csv": lambda p: SampleSet.load_csv(p, QuasiLatticeSpec(1, 1))}
    with pytest.raises(HgsError) as err:
        load[reader](path)
    assert str(err.value) == want
