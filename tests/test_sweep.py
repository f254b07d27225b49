"""The lattice coefficient sweep: e's twisted Gram tables kept on e, the
half-range phase tables, and the Parseval energy summed one k block at a
time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import cli, grids
from hgs.canonical import canonical_field
from hgs.fieldcheck import (_one_atom, _suite_coefficients, _suite_norms,
                            _suite_union, lattice_coefficients,
                            parseval_residual)
from hgs.grids import (_TILE, SpectralSet, _gram_tables, _node_table,
                       _phase_table, _self_table, lambda_grid)
from hgs.group import QuasiLatticeSpec
from hgs.sampling import reconstruct, sample_on_lattice
from hgs.testfields import atom_suite, random_pl_field
from hgs.windows import _TWO_PI

from conftest import traced_peak

E_FULL = SpectralSet([(-1.0, 1.0)])
SPECS = [QuasiLatticeSpec(1.0, 1.0), QuasiLatticeSpec(0.75, 1.25),
         QuasiLatticeSpec(2.0, 0.5)]


def _fields():
    """Fresh generators, so no test reads a table another one left."""
    grid = lambda_grid(E_FULL, 40, 1e-2)
    return {"canonical": canonical_field(grid),
            "random_pl": random_pl_field(grid, seed=3, interval=(-0.8, 1.3))}


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh(e, spec, kreach, rreach, lmax, mmax):
    """(rho, Y): e's Gram tables built anew at exactly this reach."""
    return _gram_tables(_node_table(e, e, spec, rreach, lmax), e, spec,
                        kreach, rreach, mmax)


# -- reads beyond the kept reach ---------------------------------------------

@pytest.mark.parametrize("beyond", [(2, 2, 5, 3), (1, 3, 5, 3), (1, 2, 6, 3),
                                    (1, 2, 5, 4), (2, 3, 6, 4)])
def test_self_table_read_beyond_reach_grows(beyond):
    # a read past the kept reach in any direction grows the tables instead
    # of dropping the live offsets |rho| > the kept reach or starting an l
    # or m slice at a negative index; the grown read and a smaller read
    # after it equal fresh builds
    e = _fields()["random_pl"]
    spec = SPECS[1]
    _self_table(e, spec, 1, 2, 5, 3)
    for reach in (beyond, (0, 1, 5, 2)):
        rho, Y = _self_table(e, spec, *reach)
        want_rho, want_Y = _fresh(e, spec, *reach)
        assert _same(rho, want_rho) and _same(Y, want_Y)
    assert e._table_memo[1] == tuple(map(max, (1, 2, 5, 3), beyond))


# -- half-range phase tables --------------------------------------------------

_AB = [1.0, 0.9375, 0.8, 1.0001]
_SCALES = [-_TWO_PI, _TWO_PI] + [_TWO_PI * ab * kappa for ab in _AB
                                 for kappa in (-4, -3, -2, -1, 1, 2, 3, 4)]
_nonzero = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-300)
_tiny = st.floats(1e-12, 1e-6)


@settings(max_examples=120)
@given(scale=st.sampled_from(_SCALES), n=st.integers(0, 200),
       nodes=st.lists(_nonzero, min_size=1, max_size=12),
       tiny=_tiny, neg=st.floats(0.01, 3.0))
def test_phase_table_equals_full_range(scale, n, nodes, tiny, neg):
    x = np.array(nodes + [tiny, -tiny, -neg])
    want = np.exp(1j * scale * np.outer(x, np.arange(-n, n + 1)))
    assert _same(_phase_table(x, scale, n), want)


@settings(max_examples=60)
@given(ab=st.sampled_from(_AB), kappa=st.integers(1, 4),
       n=st.integers(0, 200), nodes=st.lists(_nonzero, min_size=1,
                                             max_size=12), tiny=_tiny)
def test_cocycle_conjugate_is_negative_kappa(ab, kappa, n, nodes, tiny):
    # the sweep takes kappa < 0 as the conjugate of the kappa > 0 table;
    # its reference is the full-range table the sweep once built per kappa.
    # They agree bit for bit but for the sign of the zero imaginary part of
    # 1 at l = 0 on negative nodes, which no product with a nonzero entry
    # can see (test_sweep_matches_full_range_reference checks the sweep)
    x = np.array(nodes + [tiny, -tiny])
    half = _phase_table(x, _TWO_PI * ab * kappa, n)
    ls = np.arange(-n, n + 1)
    for k, got in ((kappa, half), (-kappa, np.conj(half))):
        want = np.exp(1j * _TWO_PI * ab * np.int64(k) * np.outer(x, ls))
        assert np.array_equal(got, want)
        assert _same(np.delete(got, n, axis=1), np.delete(want, n, axis=1))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", ["canonical", "random_pl"])
def test_central_phases_and_kappa_zero_path(name, spec):
    # wphase from its m >= 0 half equals the full-range product, and the
    # kappa = 0 rows skip the all-ones cocycle without changing a bit
    g = _fields()[name]
    lam, w = g.grid.nodes, g.grid.weights
    live_k, H = _node_table(g, g, spec, 2, 7)
    wphase = w[:, None] * np.exp(-1j * _TWO_PI * np.outer(
        lam, np.arange(-5, 6)))
    half = _phase_table(lam, -_TWO_PI, 5)
    np.multiply(w[:, None], half, out=half)
    assert _same(half, wphase)
    ones = np.exp(1j * _TWO_PI * spec.alpha * spec.beta * np.int64(0)
                  * np.outer(lam, np.arange(-7, 8)))
    for Hk in H:
        assert _same(Hk.T @ wphase, (Hk * ones).T @ wphase)


def _tiled_product(A, B, T):
    """A @ B as fixed-shape (T, N) @ (N, T) products on tiles anchored at
    multiples of T in absolute (l, m), zeros past the ends; A's rows and
    B's columns run over l, m = -n .. n."""
    lmax, mmax = A.shape[0] // 2, B.shape[1] // 2
    la, ma = -lmax // T * T, -mmax // T * T
    rows = np.zeros((lmax // T * T + T - la, A.shape[1]), dtype=complex)
    cols = np.zeros((B.shape[0], mmax // T * T + T - ma), dtype=complex)
    rows[-lmax - la:lmax - la + 1] = A
    cols[:, -mmax - ma:mmax - ma + 1] = B
    out = np.empty((rows.shape[0], cols.shape[1]), dtype=complex)
    for a in range(0, rows.shape[0], T):
        for b in range(0, cols.shape[1], T):
            out[a:a + T, b:b + T] = rows[a:a + T] @ np.ascontiguousarray(
                cols[:, b:b + T])
    return out[-lmax - la:lmax - la + 1, -mmax - ma:mmax - ma + 1]


def _reference_coefficients(suite, g, spec, kmax, lmax, mmax, tile=_TILE):
    """The sweep as it was built before the half-range tables: one
    full-range cocycle per kappa, kappa-major accumulation, a fresh table;
    its products on tiles of side tile, or whole without one."""
    b, c = suite.base, suite.coeffs
    kj, lj, mj = np.array([gam.astuple() for gam in suite.indices]).T
    dk, dl, dm = (int(np.abs(x).max()) for x in (kj, lj, mj))
    lam = g.grid.nodes
    ab = spec.alpha * spec.beta
    L, M = 2 * lmax + 1, 2 * mmax + 1
    live_k, H = _node_table(b, g, spec, kmax + dk, lmax + dl)
    wphase = g.grid.weights[:, None] * np.exp(-1j * _TWO_PI * np.outer(
        lam, np.arange(-(mmax + dm), mmax + dm + 1)))
    out = np.zeros((c.shape[0], 2 * kmax + 1, L, M), dtype=complex)
    for kappa in np.unique(kj):
        cocycle = np.exp(1j * _TWO_PI * ab * kappa * np.outer(
            lam, np.arange(-(lmax + dl), lmax + dl + 1)))
        for Hk, k in zip(H, live_k - (kmax + dk) + kappa):
            if abs(k) > kmax:
                continue
            Y = ((Hk * cocycle).T @ wphase if tile is None
                 else _tiled_product((Hk * cocycle).T, wphase, tile))
            for a in np.flatnonzero(kj == kappa):
                l0, m0 = dl - lj[a], dm - mj[a]
                out[:, k + kmax] += (c[:, a, None, None]
                                     * Y[None, l0:l0 + L, m0:m0 + M])
    return out


def _close(got, want, rel=1e-14):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", ["canonical", "random_pl"])
def test_sweep_matches_full_range_reference(name, spec):
    # bit for bit against the tile rule, and within 1e-14 of the whole
    # (L', N) @ (N, M') product the sweep took before it
    g = _fields()[name]
    suite = atom_suite(g, spec, n_functions=3, n_atoms=9, box=(2, 4, 2),
                       seed=17, extra_indices=[(-3, 1, 0)])
    assert {gam.k for gam in suite.indices} >= {-3, 0}
    for box in [(3, 6, 4), (1, 2, 1), (3, 6, 4)]:    # the last reads a table
        got = _suite_coefficients(suite, g, spec, *box)
        assert _same(got, _reference_coefficients(suite, g, spec, *box))
        assert _close(got, _reference_coefficients(suite, g, spec, *box,
                                                   tile=None))
    # plain fields go as one-atom suites, all at kappa = 0; g's own table
    # is the cached one
    for f in (g, suite.fields()[1]):
        got = lattice_coefficients([f], g, spec, 3, 5, 4)
        one = _one_atom(f, spec)
        assert _same(got, _reference_coefficients(one, g, spec, 3, 5, 4))
        assert _close(got, _reference_coefficients(one, g, spec, 3, 5, 4,
                                                   tile=None))


# -- e's own Gram tables, kept on e ------------------------------------------

def test_self_table_slices_equal_fresh_builds(monkeypatch):
    built = []

    def spy(a, b, s, kmax, lmax):
        built.append((kmax, lmax))
        return _node_table(a, b, s, kmax, lmax)

    monkeypatch.setattr(grids, "_node_table", spy)
    growth = [(0, 2, 2, 1), (0, 2, 2, 1), (1, 3, 1, 2), (1, 2, 6, 17),
              (0, 0, 0, 0), (3, 6, 6, 3), (2, 5, 40, 2)]
    for spec in SPECS:
        e = _fields()["random_pl"]
        for reach in growth:
            rho, Y = _self_table(e, spec, *reach)
            want_rho, want_Y = _fresh(e, spec, *reach)
            assert _same(rho, want_rho) and _same(Y, want_Y)
        # a miss grows the kept reach elementwise, with one node table; a
        # covered request builds none
        assert built == [(2, 2), (3, 2), (3, 6), (6, 6), (6, 40)]
        assert e._table_memo[1] == (3, 6, 40, 17)
        built.clear()


def test_self_table_keyed_by_spec(monkeypatch):
    e = _fields()["random_pl"]
    a, b = SPECS[0], SPECS[1]
    built = []

    def spy(f, g, s, kmax, lmax):
        built.append(s)
        return _node_table(f, g, s, kmax, lmax)

    monkeypatch.setattr(grids, "_node_table", spy)
    _self_table(e, a, 2, 3, 6, 4)
    for spec in (b, a):
        rho, Y = _self_table(e, spec, 1, 1, 2, 2)
        want_rho, want_Y = _fresh(e, spec, 1, 1, 2, 2)
        assert _same(rho, want_rho) and _same(Y, want_Y)
    assert built == [a, b, a]


def test_self_table_read_only_and_not_inherited():
    fields = _fields()
    e, spec = fields["canonical"], SPECS[0]
    rho, Y = _self_table(e, spec, 1, 2, 4, 3)
    with pytest.raises(ValueError):
        Y[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        rho[0] = 0
    # a read is a view of the kept tables, so it is read-only too
    _, view = _self_table(e, spec, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        view[0, 0, 0, 0] = 1.0
    f = atom_suite(e, spec, n_functions=1, n_atoms=4, box=(1, 2, 1),
                   seed=2).fields()[0]
    _self_table(f, spec, 1, 1, 1, 1)
    r = reconstruct(sample_on_lattice(f, e, spec, (1, 2, 1)), e, 1.0)
    for new in (e.scaled(2.0), e.heisenberg_translate(1.0, 0.5, 0.25),
                f - r):
        assert new._table_memo is None


@pytest.mark.parametrize("argv", [[], ["--alpha", "0.5", "--beta", "2"]])
def test_cmd_sample_builds_one_table(argv, capsys, monkeypatch):
    # the table cmd_sample asks for at the doubled box's reach serves its
    # four studies
    calls = []

    def spy(a, b, *args):
        calls.append(a is b)
        return _node_table(a, b, *args)

    monkeypatch.setattr(grids, "_node_table", spy)
    assert cli.main(["sample", "--no-timestamp"] + argv) in (0, 1)
    capsys.readouterr()
    assert calls == [True]


# -- the Parseval energy, one k block at a time -------------------------------

def _reference_residual(suite, g, spec, box):
    """The residual from the whole coefficient array over the union."""
    union, at, inside = _suite_union(suite, box)
    phi = _suite_coefficients(suite, g, spec, *union)
    norms = _suite_norms(suite, phi[(slice(None),) + at])
    coeffs = phi[(slice(None),) + inside]
    return max(abs(float(np.sum(np.abs(coeffs[s]) ** 2)) - n2) / n2
               for s, n2 in enumerate(norms))


@pytest.fixture(scope="module")
def fine():
    grid = lambda_grid(E_FULL, 1024, 1e-3)
    e = canonical_field(grid)
    return e, atom_suite(e, SPECS[0], n_functions=10, n_atoms=12,
                         box=(2, 8, 4), seed=0x5EED)


@pytest.mark.parametrize("box", [(4, 32, 16), (8, 64, 32), (1, 4, 2)])
def test_streamed_energy_matches_whole_array(fine, box):
    # (1, 4, 2) cuts the atoms at |k| = 2 out of the box, so the union
    # holds k blocks the energy must skip
    e, suite = fine
    got = parseval_residual(e, SPECS[0], suite, *box)
    assert abs(got - _reference_residual(suite, e, SPECS[0], box)) <= 1e-14


@pytest.mark.parametrize("spec", SPECS)
def test_streamed_energy_fields_route(spec):
    g = _fields()["random_pl"]
    fields = atom_suite(g, spec, n_functions=2, n_atoms=6, box=(2, 3, 2),
                        seed=5).fields()
    box = (1, 3, 2)
    coeffs = lattice_coefficients(fields, g, spec, *box)
    want = max(abs(float(np.sum(np.abs(c) ** 2)) - f.norm2()) / f.norm2()
               for c, f in zip(coeffs, fields))
    got = parseval_residual(g, spec, fields, *box)
    assert abs(got - want) <= 1e-14 * max(1.0, want)


def test_streamed_energy_memory_bounded():
    # the workload-size doubled call on a field without a table; the whole
    # (10, 17, 129, 65) coefficient array alone was 22.8 MB
    e = canonical_field(lambda_grid(E_FULL, 1024, 1e-3))
    suite = atom_suite(e, SPECS[0], n_functions=10, n_atoms=12,
                       box=(2, 8, 4), seed=0x5EED)
    _, peak = traced_peak(
        lambda: parseval_residual(e, SPECS[0], suite, 8, 64, 32))
    assert peak < 12 * 2 ** 20
