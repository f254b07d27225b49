import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hgs.errors import WindowStructureError
from hgs.group import GroupPoint, group_mul, schrodinger_apply
from hgs.windows import (_SERIES_CUT, _SERIES_TERMS, _TWO_PI, MAX_DEGREE,
                         Window, centered_moments, indicator_transform,
                         interval_moments, paired_inner_sweep)


def quad_complex(fn, a, b, points=None):
    """Independent oracle: adaptive quadrature of a complex integrand."""
    kw = {"limit": 400}
    if points:
        pts = sorted(p for p in points if a < p < b)
        if pts:
            kw["points"] = pts
    re = quad(lambda t: fn(t).real, a, b, **kw)[0]
    im = quad(lambda t: fn(t).imag, a, b, **kw)[0]
    return complex(re, im)


def window_fn(w):
    def fn(t):
        val = 0.0 + 0.0j
        for j in range(w.n_terms):
            if w.lo[j] <= t < w.hi[j]:
                s = t - 0.5 * (w.lo[j] + w.hi[j])
                val += ((w.coef[j, 0] + w.coef[j, 1] * s + w.coef[j, 2] * s * s)
                        * np.exp(2j * np.pi * w.freq[j] * t))
        return val
    return fn


def random_window(rng, deg=1, n_terms=3, span=4.0, fmax=3.0):
    lo = rng.uniform(-span, span, n_terms)
    hi = lo + rng.uniform(0.2, 2.0, n_terms)
    coef = np.zeros((n_terms, 3), dtype=complex)
    for p in range(deg + 1):
        coef[:, p] = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    freq = rng.uniform(-fmax, fmax, n_terms)
    return Window(lo, hi, coef, freq)


def breakpoints(*ws):
    pts = []
    for w in ws:
        pts.extend(w.lo)
        pts.extend(w.hi)
    return pts


def test_interval_moments_against_quadrature():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(1e-3, 4.0)
        f = rng.uniform(-4, 4)
        mid = 0.5 * (a + b)
        mom = interval_moments(a, b, f, 4)
        for p in range(5):
            want = quad_complex(
                lambda t, p=p: (t - mid) ** p * np.exp(2j * np.pi * f * t),
                a, b)
            assert mom[p] == pytest.approx(want, abs=1e-12)


def test_interval_moments_small_frequency_branch():
    # exercise the series branch and exact zero frequency
    mom = interval_moments(2.0, 5.0, 0.0, 2)
    assert mom[0] == pytest.approx(3.0, abs=0)
    assert mom[1] == pytest.approx(0.0, abs=1e-15)
    assert mom[2] == pytest.approx(3.0 ** 3 / 12.0, rel=1e-14)
    for f in [1e-12, 1e-6, 1e-3]:
        got = interval_moments(-1.0, 1.0, f, 0)[0]
        want = quad_complex(lambda t: np.exp(2j * np.pi * f * t), -1, 1)
        assert got == pytest.approx(want, rel=1e-12)


def test_series_recurrence_branches_agree():
    # values straddling the branch cut must be continuous to ~1e-14
    h = 1.0
    for theta_over in [0.49, 0.51]:
        f = theta_over / (2 * np.pi * h)
        mom = interval_moments(-h, h, f, 4)
        for p in range(5):
            want = quad_complex(
                lambda t, p=p: t ** p * np.exp(2j * np.pi * f * t), -h, h)
            assert mom[p] == pytest.approx(want, abs=1e-13)


def _series_row_loop(theta, pmax):
    """The series of centered_moments one (term, p) row at a time."""
    it = 1j * theta
    power = np.ones(theta.size, dtype=complex)
    acc = np.zeros((pmax + 1, theta.size), dtype=complex)
    fact = 1.0
    for j in range(_SERIES_TERMS):
        if j:
            power = power * it
            fact *= j
        coef = power / fact
        for p in range(pmax + 1):
            if (p + j) % 2 == 0:
                acc[p] += coef / (p + j + 1)
    return 2.0 * acc


@pytest.mark.parametrize("pmax", [1, 2, 4])
def test_series_matches_row_loop(pmax):
    # the series summed from one table of terms has the bits of the
    # row-by-row loop, signed zeros and subnormal theta included, at one
    # point, a few and many
    edge = [v * s for v in (0.0, 5e-324, 1e-300, 1e-8, 0.01, 0.3, 0.49,
                            np.nextafter(_SERIES_CUT, 0.0))
            for s in (1.0, -1.0)]
    rng = np.random.default_rng(pmax)
    for theta in ([[v] for v in edge]
                  + [edge, np.concatenate([edge, rng.uniform(-0.5, 0.5,
                                                             3000)])]):
        theta = np.array(theta)
        got = centered_moments(theta, pmax)
        want = _series_row_loop(theta, pmax)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_indicator_transform_matches_length_at_zero():
    assert indicator_transform(-1.0, 0.5, 0.0)[()] == pytest.approx(1.5)
    got = indicator_transform(0.0, 1.0, 0.5)[()]
    want = quad_complex(lambda t: np.exp(1j * np.pi * t), 0, 1)
    assert got == pytest.approx(want, abs=1e-13)


def _complex_degree0(lo, hi, freq):
    """Oracle for the degree-0 moment: the complex Taylor series and
    boundary recurrence on the broadcast shape, as the kernel evaluated
    every degree before degree 0 got its real path."""
    lo, hi, freq = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                       np.asarray(hi, dtype=float),
                                       np.asarray(freq, dtype=float))
    h = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    live = h > 0.0
    hs = np.where(live, h, 0.0)
    th = (_TWO_PI * freq * hs).ravel()
    n0 = np.empty(th.size, dtype=complex)
    small = np.abs(th) < _SERIES_CUT
    it = 1j * th[small]
    power = np.ones(it.size, dtype=complex)
    acc = np.zeros(it.size, dtype=complex)
    fact = 1.0
    for j in range(_SERIES_TERMS):
        if j:
            power = power * it
            fact *= j
        if j % 2 == 0:
            acc += (power / fact) / (j + 1)
    n0[small] = 2.0 * acc
    tb = th[~small]
    eip = np.exp(1j * tb)
    n0[~small] = (eip - np.conj(eip)) * (1.0 / (1j * tb))
    scale = np.exp(1j * _TWO_PI * freq * mid) * np.where(live, 1.0, 0.0)
    return n0.reshape(h.shape) * (scale * hs ** 1)


def _assert_degree0_bits(lo, hi, freq):
    got = interval_moments(lo, hi, freq, 0)
    want = _complex_degree0(lo, hi, freq)
    assert got.shape == (1,) + want.shape and got.dtype == complex
    assert np.array_equal(got[0], want)
    assert np.array_equal(got[0], interval_moments(lo, hi, freq, 2)[0])


def _freq_at_theta(h, theta):
    """A frequency f with 2 pi f h == theta exactly in floating point."""
    f = theta / (_TWO_PI * h)
    for _ in range(64):
        got = _TWO_PI * f * h
        if got == theta:
            return f
        f = np.nextafter(f, np.inf if got < theta else -np.inf)
    raise AssertionError("no frequency hits theta exactly")


def test_degree0_bit_identical_edge_cases():
    cut = _freq_at_theta(0.5, _SERIES_CUT)
    below = np.nextafter(cut, 0.0)
    assert _TWO_PI * below * 0.5 < _SERIES_CUT
    cases = [
        (0.0, 1.0, 0.0),                        # theta = 0
        (0.0, 1.0, 2.2e-311),                   # 1/theta overflows
        (-0.5, 0.5, cut), (-0.5, 0.5, -cut),    # |theta| at the cut
        (-0.5, 0.5, below), (-0.5, 0.5, -below),
        (1.0, 1.0, 3.0), (2.0, 1.0, 3.0),       # empty, reversed
        (np.array(0.25), np.array(2.0), np.array(-1.5)),    # 0-d
        (np.array([0.0, 1.0, 3.0]), np.array([1.0, 1.0, 2.0]), 0.75),
        (np.array([[0.0], [1.0], [2.5]]), np.array([[0.5], [4.0], [2.5]]),
         np.linspace(-3.0, 3.0, 12).reshape(3, 4)),
    ]
    for lo, hi, freq in cases:
        _assert_degree0_bits(lo, hi, freq)
    assert interval_moments(0.0, 1.0, 0.0, 0)[0, ...] == 1.0
    assert interval_moments(2.0, 1.0, 3.0, 0)[0, ...] == 0.0


def test_degree0_dense_sweep_bit_identical():
    # a series term rounded another way changes about one theta in 30000,
    # so a dense (R, 1) x (R, D) sweep over both branches is needed
    rng = np.random.default_rng(2024)
    lo = rng.uniform(-2.0, 2.0, (1000, 1))
    hi = lo + rng.uniform(0.01, 0.2, (1000, 1))
    freq = rng.uniform(-1.0, 1.0, (1000, 500))
    _assert_degree0_bits(lo, hi, freq)


_any_freq = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3),
                      st.floats(-0.2, 0.2), st.floats(-60.0, 60.0))


@st.composite
def _moment_args(draw):
    """lo, hi, freq in the layouts the callers use: (R, 1) cells against
    (R, D) frequencies, flat arrays, a scalar frequency with array cells,
    and 0-d arrays; cell widths include zero and negative."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    lo = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=rows,
                                max_size=rows)))
    width = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1.0, 3.0), st.floats(0.0, 0.1)),
        min_size=rows, max_size=rows)))
    freq = np.array(draw(st.lists(_any_freq, min_size=rows * cols,
                                  max_size=rows * cols)))
    layout = draw(st.sampled_from(["sweep", "flat", "scalar-freq", "0-d"]))
    if layout == "sweep":
        return lo[:, None], (lo + width)[:, None], freq.reshape(rows, cols)
    if layout == "flat":
        return lo, lo + width, freq[:rows]
    if layout == "scalar-freq":
        return lo, lo + width, float(freq[0])
    return np.array(lo[0]), np.array(lo[0] + width[0]), np.array(freq[0])


@settings(max_examples=300, deadline=None)
@given(args=_moment_args())
def test_degree0_real_path_bit_identical(args):
    _assert_degree0_bits(*args)


def _pair_table(rng, rows, deg):
    """Paired term arrays (a, b) whose cells all overlap."""
    loa = rng.uniform(-2.0, 2.0, rows)
    hia = loa + rng.uniform(0.1, 2.0, rows)
    lob = loa + rng.uniform(-0.05, 0.9, rows) * (hia - loa)
    hib = lob + rng.uniform(0.1, 2.0, rows)
    coef = np.zeros((2, rows, MAX_DEGREE + 1), dtype=complex)
    for p in range(deg + 1):
        coef[..., p] = (rng.normal(size=(2, rows))
                        + 1j * rng.normal(size=(2, rows)))
    freq = rng.choice([0.0, 0.5, -1.25], size=(2, rows))
    return [loa, hia, coef[0], freq[0], lob, hib, coef[1], freq[1]]


@pytest.mark.parametrize("deg", [0, 1])
@pytest.mark.parametrize("per_row_df", [False, True])
def test_paired_inner_sweep_dead_rows(deg, per_row_df):
    rng = np.random.default_rng(17 + deg)
    rows, at = 9, 4
    table = _pair_table(rng, rows, deg)
    df = np.linspace(-2.0, 2.0, 5)
    if per_row_df:
        df = df + rng.uniform(-0.3, 0.3, (rows, 1))
    live = paired_inner_sweep(tuple(table[:4]), tuple(table[4:]), df)
    assert live.shape == (rows, 5)
    # a pair of disjoint cells, of higher degree, at row `at`
    dead = [np.insert(x, at, v, axis=0) for x, v in zip(table, [
        0.0, 1.0, [[1.0, 2.0, 3.0]], 0.5,
        1.0, 2.0, [[1.0, -1.0, 1j]], 0.0])]
    ddf = np.insert(df, at, 0.0, axis=0) if per_row_df else df
    got = paired_inner_sweep(tuple(dead[:4]), tuple(dead[4:]), ddf)
    assert np.array_equal(np.delete(got, at, axis=0), live)
    assert np.array_equal(got[at], np.zeros(5))
    # no live pair at all
    none = (table[0] + 10.0, table[1] + 10.0) + tuple(table[6:])
    assert np.array_equal(paired_inner_sweep(tuple(table[:4]), none, df),
                          np.zeros((rows, 5), dtype=complex))


def test_inner_matches_quadrature_oracle():
    rng = np.random.default_rng(7)
    for deg in (0, 1, 2):
        u = random_window(rng, deg=deg)
        v = random_window(rng, deg=min(deg, 1))
        fn_u, fn_v = window_fn(u), window_fn(v)
        sup = (min(u.lo.min(), v.lo.min()), max(u.hi.max(), v.hi.max()))
        want = quad_complex(lambda t: fn_u(t) * np.conj(fn_v(t)),
                            sup[0], sup[1], points=breakpoints(u, v))
        assert u.inner(v) == pytest.approx(want, abs=5e-10)


def test_inner_conjugate_symmetry_and_positivity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = random_window(rng)
        v = random_window(rng)
        assert u.inner(v) == pytest.approx(np.conj(v.inner(u)), abs=1e-12)
        assert u.norm2() >= 0.0
    assert Window.zero().norm2() == 0.0


def test_translate_modulate_scale_exact():
    u = Window.indicator(0.0, 1.0, 2.0)
    v = u.translate(0.75)
    assert v.support() == (0.75, 1.75)
    assert v.norm2() == pytest.approx(u.norm2(), abs=0)
    w = u.modulate(3.5)
    assert w.norm2() == pytest.approx(u.norm2(), rel=1e-14)
    fn = window_fn(u.translate(0.3).modulate(1.2).scaled(1j))
    want = quad_complex(lambda t: fn(t) * np.conj(fn(t)), 0, 2,
                        points=[0.3, 1.3])
    got = u.translate(0.3).modulate(1.2).scaled(1j).norm2()
    assert got == pytest.approx(want.real, rel=1e-12)


def test_piecewise_linear_and_samples():
    breaks = np.array([0.0, 0.5, 1.25, 2.0])
    vals = np.array([0.0, 1.0 + 1j, -0.5, 0.0])
    w = Window.piecewise_linear(breaks, vals)
    for t, v in zip(breaks[:-1], vals[:-1]):
        assert w(float(t)) == pytest.approx(v, abs=1e-14)
    assert w(1.99) == pytest.approx(vals[2] + (vals[3] - vals[2]) / 0.75 * 0.74,
                                    abs=1e-12)
    s = Window.from_samples(-1.0, 0.25, np.arange(5, dtype=complex))
    assert s(-0.5) == pytest.approx(2.0)
    assert s.support() == (-1.0, 0.0)


def test_product_conj_matches_pointwise():
    rng = np.random.default_rng(33)
    u = random_window(rng, deg=1)
    v = random_window(rng, deg=1)
    p = u.product_conj(v)
    ts = rng.uniform(-5, 5, 64)
    want = u(ts) * np.conj(v(ts))
    got = p(ts)
    assert np.allclose(got, want, atol=1e-12)
    # degree overflow is refused
    q = random_window(rng, deg=2)
    with pytest.raises(WindowStructureError):
        q.product_conj(q)


def test_affine_substitute():
    rng = np.random.default_rng(55)
    u = random_window(rng, deg=1)
    for c in (2.0, -0.5, 0.3):
        v = u.affine_substitute(c)
        ts = rng.uniform(-6, 6, 32)
        assert np.allclose(v(ts), u(ts / c), atol=1e-12)
    norm_scale = u.affine_substitute(2.0).norm2() / u.norm2()
    assert norm_scale == pytest.approx(2.0, rel=1e-12)


def test_inner_freq_sweep_consistency():
    rng = np.random.default_rng(77)
    u = random_window(rng, deg=1)
    v = random_window(rng, deg=1)
    dfs = np.linspace(-3, 3, 7)
    sweep = u.inner_freq_sweep(v, dfs)
    for df, val in zip(dfs, sweep):
        assert val == pytest.approx(u.inner(v.modulate(df)), abs=1e-12)


def test_squared_modulus_pieces():
    u = (Window.indicator(0.0, 1.0, 1.0 + 1j)
         + Window.indicator(0.5, 2.0, -0.5))
    breaks, quadc = u.squared_modulus_pieces()
    ts = np.array([0.2, 0.7, 1.5])
    for t in ts:
        c = np.searchsorted(breaks, t, side="right") - 1
        mid = 0.5 * (breaks[c] + breaks[c + 1])
        s = t - mid
        val = quadc[c, 0] + quadc[c, 1] * s + quadc[c, 2] * s * s
        assert val == pytest.approx(abs(u(float(t))) ** 2, abs=1e-13)
    with pytest.raises(WindowStructureError):
        u.modulate(1.0).squared_modulus_pieces()


# -- algebraic invariants on generated windows -------------------------------

_reals = st.floats(-2.0, 2.0)


@st.composite
def _windows(draw):
    """Sums of up to three modulated piecewise-linear windows: degree-1
    terms, overlapping cells with different frequencies, and the empty
    window."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(2, 5))
        widths = draw(st.lists(st.floats(0.05, 1.5), min_size=n - 1,
                               max_size=n - 1))
        breaks = draw(st.floats(-3.0, 3.0)) + np.concatenate(
            [[0.0], np.cumsum(widths)])
        values = [complex(draw(_reals), draw(_reals)) for _ in range(n)]
        freq = draw(st.sampled_from([0.0, 0.75, -2.5]) | st.floats(-3, 3))
        parts.append(Window.piecewise_linear(breaks, values).modulate(freq))
    return functools.reduce(operator.add, parts, Window.zero())


def _term_scale(w):
    """Sum of the norms of w's terms, so |<w, v>| <= _term_scale(w) *
    _term_scale(v) however much the terms cancel; rounding is relative to
    it."""
    return sum(math.sqrt(Window(w.lo[j], w.hi[j], w.coef[j:j + 1],
                                w.freq[j]).norm2())
               for j in range(w.n_terms))


_TOL = 1e-12
_points = st.builds(GroupPoint, _reals, _reals, _reals)
_lams = st.floats(0.2, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=80, deadline=None)
@given(u=_windows(), v=_windows())
def test_inner_conjugate_symmetric_and_positive_property(u, v):
    su, sv = _term_scale(u), _term_scale(v)
    assert abs(u.inner(v) - np.conj(v.inner(u))) <= _TOL * su * sv
    uu = u.inner(u)
    assert uu.real >= -_TOL * su * su
    assert abs(uu.imag) <= _TOL * su * su


@settings(max_examples=80, deadline=None)
@given(u=_windows(), v=_windows(), dt=st.floats(-3.0, 3.0),
       df=st.floats(-3.0, 3.0))
def test_translate_and_modulate_unitary_property(u, v, dt, df):
    tol = _TOL * _term_scale(u) * _term_scale(v)
    want = u.inner(v)
    assert abs(u.translate(dt).inner(v.translate(dt)) - want) <= tol
    assert abs(u.modulate(df).inner(v.modulate(df)) - want) <= tol


@settings(max_examples=80, deadline=None)
@given(f=_windows(), lam=_lams, a=_points, b=_points)
def test_schrodinger_representation_property_generated(f, lam, a, b):
    lhs = schrodinger_apply(lam, group_mul(a, b), f)
    rhs = schrodinger_apply(lam, a, schrodinger_apply(lam, b, f))
    sf2 = _term_scale(f) ** 2
    assert (lhs - rhs).norm2() <= _TOL * sf2
    assert abs(lhs.norm2() - f.norm2()) <= _TOL * sf2


@settings(max_examples=80, deadline=None)
@given(u=_windows(), v=_windows())
def test_product_conj_integral_is_inner_property(u, v):
    got = u.product_conj(v).integral()
    assert abs(got - u.inner(v)) <= _TOL * _term_scale(u) * _term_scale(v)
