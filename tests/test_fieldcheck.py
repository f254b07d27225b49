import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgs import fieldcheck
from hgs.canonical import canonical_field
from hgs.errors import DomainError, NotApplicableError
from hgs.fieldcheck import (_suite_coefficients, _suite_norms, _suite_union,
                            _unfolded_sum,
                            coefficient_cross_orthogonality,
                            gabor_field_verdict, gram_entry,
                            jittered_unit_grid, lattice_coefficients,
                            orthogonality_residual, orthogonality_residuals,
                            parseval_residual,
                            theta, theta_delta_report, theta_gram_duality,
                            translate_field)
from hgs.gabor import frame_bounds_empirical
from hgs.grids import (FieldSample, LambdaGrid, SpectralSet, field_inner,
                       lambda_grid, point_grid)
from hgs.group import LatticeIndex, QuasiLatticeSpec
from hgs.sampling import onb_gram_check, sample_on_lattice
from hgs.testfields import (AtomSuite, atom_suite, random_pl_field,
                            two_slice_field)
from hgs.windows import Window

from conftest import traced_peak

SPEC = QuasiLatticeSpec(1, 1)
E_FULL = SpectralSet([(-1.0, 1.0)])


@pytest.fixture(scope="module")
def coarse():
    grid = lambda_grid(E_FULL, 64, 0.05)
    return grid, canonical_field(grid)


@pytest.fixture(scope="module")
def fine():
    grid = lambda_grid(E_FULL, 512, 1e-3)
    return grid, canonical_field(grid)


# -- translates --------------------------------------------------------------

def test_translate_identity(coarse):
    _, e = coarse
    t = translate_field(e, 0, 0, 0, SPEC)
    assert (t - e).norm2() == 0


def test_translate_unitary(coarse):
    grid, e = coarse
    f = random_pl_field(grid, seed=5)
    t = translate_field(f, 2, -3, 1, SPEC)
    assert field_inner(t, t) == pytest.approx(field_inner(f, f), rel=1e-12)
    t2 = translate_field(e, 1, 1, 1, SPEC)
    assert field_inner(t2, t2).real == pytest.approx(
        field_inner(e, e).real, rel=1e-12)


def test_translate_central_phase():
    grid = LambdaGrid(np.array([0.5]), np.array([1.0]), 1e-6,
                      SpectralSet([(0.25, 0.75)]), "custom")
    g = FieldSample.from_windows(grid, [Window.indicator(0, 1)])
    t = translate_field(g, 0, 0, 1, SPEC)
    ratio = t.term_coef[0, 0] / g.term_coef[0, 0]
    assert ratio == pytest.approx(np.exp(1j * np.pi), abs=1e-14)


# -- Gabor-field verdict -----------------------------------------------------

def test_gabor_field_verdict_canonical(coarse):
    _, e = coarse
    rep = gabor_field_verdict(e, SPEC)
    assert rep.passed
    assert rep.worst_residual <= 1e-12
    assert rep.worst_norm_error <= 1e-12
    assert rep.lattice_integer


def test_gabor_field_verdict_norm_failure():
    # indicator profile continued to (1, 2]: density condition fails there
    grid = lambda_grid(SpectralSet([(1.0, 2.0)]), 16, 0.05)
    g = FieldSample.from_windows(
        grid, [Window.indicator(1 / lam - 1, 1 / lam) for lam in grid.nodes])
    rep = gabor_field_verdict(g, SPEC)
    assert not rep.passed
    assert any(not s.norm.density_admissible for s in rep.slices)


def test_gabor_field_verdict_zero_field(coarse):
    grid, _ = coarse
    rep = gabor_field_verdict(FieldSample.zero(grid), SPEC)
    assert not rep.passed


# -- lattice coefficients and Parseval ---------------------------------------

def test_lattice_coefficients_match_direct_inner(coarse):
    grid, e = coarse
    f = random_pl_field(grid, seed=11, interval=(-1.5, 2.5))
    coeffs = lattice_coefficients([f], e, SPEC, 1, 2, 2)
    for ki, k in enumerate(range(-1, 2)):
        for li, l in enumerate(range(-2, 3)):
            for mi, m in enumerate(range(-2, 3)):
                want = field_inner(f, translate_field(e, k, l, m, SPEC))
                assert coeffs[0, ki, li, mi] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("spec", [SPEC, QuasiLatticeSpec(0.75, 1.25)])
def test_lattice_coefficients_piecewise_linear_g(coarse, spec):
    # g's slices are not constant, so every k != 0 coefficient depends on
    # the midpoints of the shifted cells
    grid, _ = coarse
    f = random_pl_field(grid, seed=12)
    g = random_pl_field(grid, seed=13, interval=(-1.0, 1.5))
    coeffs = lattice_coefficients([f], g, spec, 2, 2, 1)
    for ki, k in enumerate(range(-2, 3)):
        for li, l in enumerate(range(-2, 3)):
            for mi, m in enumerate(range(-1, 2)):
                want = field_inner(f, translate_field(g, k, l, m, spec))
                assert coeffs[0, ki, li, mi] == pytest.approx(want,
                                                              abs=1e-12)


def test_parseval_residual_canonical(fine):
    _, e = fine
    suite = atom_suite(e, SPEC, n_functions=3, n_atoms=12,
                       box=(1, 4, 2), seed=42)
    res = parseval_residual(e, SPEC, suite, kmax=2, lmax=12, mmax=6)
    assert res <= 1e-2


def test_parseval_residual_decreases_with_box(fine):
    _, e = fine
    # one deliberate atom outside the base box, inside the doubled box
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=8,
                       box=(1, 3, 2), seed=9,
                       extra_indices=[(0, 10, 0)])
    base = parseval_residual(e, SPEC, suite, kmax=1, lmax=6, mmax=3)
    doubled = parseval_residual(e, SPEC, suite, kmax=2, lmax=12, mmax=6)
    assert base > 1e-4            # the stray atom's energy is missed
    assert doubled <= max(0.5 * base, 1e-3)


def test_parseval_residual_zero_field(fine):
    grid, e = fine
    suite = atom_suite(e, SPEC, n_functions=1, n_atoms=4,
                       box=(1, 2, 1), seed=3)
    res = parseval_residual(FieldSample.zero(grid), SPEC, suite,
                            kmax=1, lmax=4, mmax=2)
    assert res == pytest.approx(1.0, abs=1e-12)


def test_parseval_residual_empty_testset(fine):
    _, e = fine
    with pytest.raises(DomainError):
        parseval_residual(e, SPEC, [], kmax=1, lmax=2, mmax=2)


# -- the group-law (AtomSuite) path against the field-by-field path ---------

@pytest.mark.parametrize("spec", [SPEC, QuasiLatticeSpec(0.75, 1.25)])
@pytest.mark.parametrize("pair", ["canonical", "pl_base", "pl_both"])
@pytest.mark.parametrize("trunc", [(3, 8, 4), (1, 2, 2)])
def test_parseval_suite_matches_field_path(coarse, spec, pair, trunc):
    # at (0.75, 1.25) alpha beta is not an integer, so the cocycle phase of
    # every atom with k != 0 is not trivial; piecewise-linear fields have
    # degree-1 terms, so recentering matters, and unlike the canonical
    # field their modulations are not orthogonal per node; the (1, 2, 2)
    # box is smaller than the atoms' offsets, so the norms are read on the
    # union of the box and the atom indices
    grid, e = coarse
    pl = random_pl_field(grid, seed=21, interval=(-1.0, 1.5))
    g, base = {"canonical": (e, e), "pl_base": (e, pl),
               "pl_both": (pl, pl)}[pair]
    suite = atom_suite(base, spec, n_functions=3, n_atoms=9, box=(2, 4, 2),
                       seed=17, extra_indices=[(0, 6, -3)])
    assert any(gam.k != 0 for gam in suite.indices)
    coeffs = _suite_coefficients(suite, g, spec, *trunc)
    atoms = lattice_coefficients(suite.atoms(), g, spec, *trunc)
    want = np.einsum("sj,jklm->sklm", suite.coeffs, atoms)
    assert np.max(np.abs(want)) > 1e-2
    assert np.max(np.abs(coeffs - want)) <= 1e-13 * np.max(np.abs(want))
    # the norms come from the samples against the suite's own base
    union, at, _ = _suite_union(suite, trunc)
    phi = _suite_coefficients(suite, base, spec, *union)
    norms = _suite_norms(suite, phi[(slice(None),) + at])
    fields = suite.fields()
    want_norms = np.array([f.norm2() for f in fields])
    assert np.all(np.abs(norms - want_norms) <= 1e-13 * want_norms)
    # residuals are already relative to ||f||^2
    assert parseval_residual(g, spec, suite, *trunc) == pytest.approx(
        parseval_residual(g, spec, fields, *trunc), rel=0, abs=1e-13)


def test_parseval_suite_other_grid_rejected(coarse):
    _, e = coarse
    other = canonical_field(lambda_grid(E_FULL, 32, 0.05))
    suite = atom_suite(other, SPEC, n_functions=1, n_atoms=3,
                       box=(1, 2, 1), seed=4)
    with pytest.raises(DomainError, match="different grid"):
        parseval_residual(e, SPEC, suite, kmax=1, lmax=2, mmax=2)


def test_parseval_suite_zero_row_rejected(coarse):
    _, e = coarse
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=3, box=(1, 2, 1),
                       seed=4)
    zero_row = AtomSuite(base=e, spec=SPEC, indices=suite.indices,
                         coeffs=suite.coeffs * np.array([[1.0], [0.0]]))
    with pytest.raises(DomainError, match="zero norm"):
        parseval_residual(e, SPEC, zero_row, kmax=1, lmax=2, mmax=2)


# -- orthogonality condition -------------------------------------------------

def test_orthogonality_exact_zero_canonical(coarse):
    _, e = coarse
    for i, lam in enumerate(jittered_unit_grid(6)):
        f = two_slice_field(e, lam, seed=100 + i)
        val = orthogonality_residual(e, f, lam, kmax=8)
        assert abs(val) <= 1e-10


def test_orthogonality_first_factor_vanishes(coarse):
    grid, e = coarse
    lam = 0.5
    f = two_slice_field(e, lam, seed=1)
    # zero out the slice at lam - 1
    keep = f.term_node == 1
    f2 = FieldSample(f.grid, f.term_node[keep], f.term_lo[keep],
                     f.term_hi[keep], f.term_coef[keep], f.term_freq[keep])
    assert orthogonality_residual(e, f2, lam, kmax=8) == 0


def duplicated_slice_field(lam, width=2.0):
    """Same wide indicator at lam and lam - 1: after unfolding the supports
    overlap modulo 1, so the interlocking condition genuinely fails.  (A
    width-1 duplicate still tiles by accident and gives exactly zero.)"""
    nodes = np.array([lam - 1.0, lam])
    grid = LambdaGrid(nodes, np.ones(2), 1e-9, E_FULL, "twoslice")
    w = Window.indicator(0.0, width, 1.0 / np.sqrt(width))
    return FieldSample.from_windows(grid, [w, w])


def test_orthogonality_negative_control():
    g = duplicated_slice_field(0.5)
    val = orthogonality_residual(g, g, 0.5, kmax=8)
    assert abs(val) > 1e-2
    # width-1 duplicated slices still tile after unfolding: exactly zero
    g1 = duplicated_slice_field(0.5, width=1.0)
    assert orthogonality_residual(g1, g1, 0.5, kmax=8) == 0


def test_orthogonality_truncated_converges_to_exact():
    g = duplicated_slice_field(0.5)
    exact = orthogonality_residual(g, g, 0.5, kmax=4)
    assert abs(exact) == pytest.approx(1.0, abs=1e-12)
    t1 = _reference_truncated(g, g, 0.5, 4, 64, SPEC)
    t2 = _reference_truncated(g, g, 0.5, 4, 256, SPEC)
    assert abs(t2 - exact) < abs(t1 - exact)
    assert abs(t2 - exact) < 5e-3


def _reference_truncated(g, f, lam, kmax, lmax, spec):
    """The truncated double sum with every term pair expanded over every
    translation: one inner_freq_sweep per slice and k."""
    ls = np.arange(-lmax, lmax + 1)
    sides = []
    for mu in (lam - 1.0, lam):
        fw, gw = f.slice_at(mu), g.slice_at(mu)
        sides.append(np.array([
            fw.inner_freq_sweep(gw.translate(spec.alpha * k),
                                -mu * spec.beta * ls)
            for k in range(-kmax, kmax + 1)]))
    return complex(np.sum(sides[0] * np.conj(sides[1])))


def test_orthogonality_degree_checked_per_product():
    # a quadratic f slice at lam - 1 and a quadratic g slice at lam: every
    # product is quadratic, although the one product table holds both
    grid = LambdaGrid(np.array([-0.5, 0.5]), np.ones(2), 1e-9, E_FULL,
                      "twoslice")
    quad = Window(np.array([0.0]), np.array([2.0]),
                  np.array([[1.0, 0.5j, 0.3]]), np.array([0.0]))
    flat = Window.indicator(-0.2, 1.8, 0.7)
    f = FieldSample.from_windows(grid, [quad, flat])
    g = FieldSample.from_windows(grid, [flat, quad])
    got = orthogonality_residual(g, f, 0.5, kmax=2)
    want, _ = _unfolded_reference(quad, flat, -0.5, flat, quad, 0.5,
                                  np.arange(-2, 3))
    assert abs(want) > 1e-2
    assert abs(got - want) <= 1e-13 * abs(want)


def test_orthogonality_lam_outside_unit_interval(coarse):
    _, e = coarse
    for lam in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError, match=r"lam must lie in \(0, 1\)"):
            orthogonality_residual(e, e, lam, kmax=2)


def test_orthogonality_missing_slice_error(coarse):
    grid, e = coarse
    f = random_pl_field(lambda_grid(SpectralSet([(0.4, 0.9)]), 8, 0.05),
                        seed=2)
    with pytest.raises(DomainError):
        orthogonality_residual(e, f, 0.5, kmax=2)


def _criterion2_pairs(e):
    lams = jittered_unit_grid(16)
    return [(float(lam), two_slice_field(e, float(lam),
                                         seed=0x5EED + 31 * s + i))
            for s in range(20) for i, lam in enumerate(lams)]


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64)


def test_batched_unfolded_sum_matches_per_point_calls(coarse):
    # one kernel call over all pairs gives each pair's one-pair value bit
    # for bit, and a one-pair call is the kernel on the two slices alone
    _, e = coarse
    neg = duplicated_slice_field(0.5)
    for g, pairs in ((e, _criterion2_pairs(e)),
                     (neg, [(0.5, neg), (0.5, neg)])):
        got = orthogonality_residuals(g, pairs, kmax=8)
        one = [orthogonality_residual(g, f, lam, kmax=8) for lam, f in pairs]
        assert np.array_equal(_bits(got), _bits(one))
        for lam, f in pairs[:3]:
            mus = [lam - 1.0, lam]
            kernel = _unfolded_sum(f.slices_at(mus), g.slices_at(mus),
                                   np.array(mus), 1.0, 8)
            assert np.array_equal(
                _bits(orthogonality_residual(g, f, lam, kmax=8)),
                _bits(kernel))
    assert max(map(abs, got.tolist())) > 1e-2


def test_orthogonality_residuals_bad_pairs(coarse):
    _, e = coarse
    f = two_slice_field(e, 0.4, seed=1)
    with pytest.raises(DomainError, match="at least one"):
        orthogonality_residuals(e, [], kmax=2)
    for lam in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(DomainError, match=r"lam must lie in \(0, 1\)"):
            orthogonality_residuals(e, [(0.4, f), (lam, f)], kmax=2)


# -- coefficient cross-orthogonality -----------------------------------------

def test_cross_orthogonality_canonical(fine):
    _, e = fine
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=6,
                       box=(1, 3, 2), seed=7)
    val = coefficient_cross_orthogonality(
        e, SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]),
        suite, trunc=(4, 32, 16))
    assert val <= 1e-6


@pytest.mark.parametrize("spec", [SPEC, QuasiLatticeSpec(0.8, 1.25)])
def test_cross_orthogonality_suite_matches_fields_route(fine, spec,
                                                        monkeypatch):
    # a suite's slices are built on the quadrature points only; the values
    # equal those of its fields() evaluated there
    _, e = fine
    suite = atom_suite(e, spec, n_functions=2, n_atoms=6, box=(1, 3, 2),
                       seed=7)
    args = (e, SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]))
    want = coefficient_cross_orthogonality(*args, suite.fields(),
                                           trunc=(4, 32, 16), spec=spec)

    def boom(self):
        raise AssertionError("suite fields built on the grid")
    monkeypatch.setattr(AtomSuite, "fields", boom)
    got = coefficient_cross_orthogonality(*args, suite, trunc=(4, 32, 16),
                                          spec=spec)
    assert got == want


def test_cross_orthogonality_empty_piece(fine):
    _, e = fine
    suite = atom_suite(e, SPEC, n_functions=1, n_atoms=3,
                       box=(1, 2, 1), seed=8)
    val = coefficient_cross_orthogonality(
        e, SpectralSet([(-1.0, 0.0)]), SpectralSet([]), suite)
    assert val == 0.0


def test_cross_orthogonality_overlap_error(fine):
    _, e = fine
    suite = atom_suite(e, SPEC, n_functions=1, n_atoms=3,
                       box=(1, 2, 1), seed=8)
    with pytest.raises(DomainError):
        coefficient_cross_orthogonality(
            e, SpectralSet([(-1.0, 0.0)]), SpectralSet([(-0.5, 0.5)]), suite)


def _counting(calls, name, fn):
    def spy(*args):
        calls.append(name)
        return fn(*args)
    return spy


def test_unfolding_checks_make_one_kernel_pass(coarse, monkeypatch):
    # one product table and one sweep per call, for the two slices of the
    # orthogonality condition and for every quadrature point and test-field
    # pair of the cross-orthogonality
    _, e = coarse
    calls = []
    for name in ("product_conj_terms", "paired_inner_sweep"):
        monkeypatch.setattr(fieldcheck, name,
                            _counting(calls, name, getattr(fieldcheck, name)))
    orthogonality_residual(e, two_slice_field(e, 0.4, seed=1), 0.4, kmax=8)
    assert sorted(calls) == ["paired_inner_sweep", "product_conj_terms"]
    calls.clear()
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=3, box=(1, 2, 1),
                       seed=8)
    coefficient_cross_orthogonality(
        e, SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]), suite,
        trunc=(2, 0, 0), quad_cells=2, quad_order=3)
    assert sorted(calls) == ["paired_inner_sweep", "product_conj_terms"]


# -- the unfolding kernel against the per-shift, per-n loop ------------------

def _periodized_reference(products, c1, c2):
    """sum over (p1, p2) in products and n in Z of <p1(./c1), T_n p2(./c2)>,
    one shift and one n at a time through Window methods.  Returns the sum
    and the sum of the moduli of its terms."""
    total, scale = 0j, 0.0
    for p1, p2 in products:
        if p1.n_terms == 0 or p2.n_terms == 0:
            continue
        q1 = p1.affine_substitute(c1)
        q2 = p2.affine_substitute(c2)
        s1, s2 = q1.support(), q2.support()
        for n in range(math.floor(s1[0] - s2[1]) - 1,
                       math.ceil(s1[1] - s2[0]) + 2):
            term = q1.inner(q2.translate(float(n)))
            total += term
            scale += abs(term)
    return total, scale


def _unfolded_reference(f1, g1, c1, f2, g2, c2, shifts):
    products = [(f1.product_conj(g1.translate(s)),
                 f2.product_conj(g2.translate(s))) for s in shifts]
    total, scale = _periodized_reference(products, c1, c2)
    return total / abs(c1 * c2), scale / abs(c1 * c2)


SPEC_075 = QuasiLatticeSpec(0.75, 1.0)


def test_orthogonality_matches_reference_loop(coarse):
    # two generic two-slice fields on non-integer lattices: the residual is
    # far from zero, so every term counts
    _, e = coarse
    for spec in (SPEC_075, QuasiLatticeSpec(0.75, 1.25),
                 QuasiLatticeSpec(2, 0.5)):
        shifts = spec.alpha * np.arange(-4, 5)
        for i, lam in enumerate((0.3, 0.55, 0.8)):
            f = two_slice_field(e, lam, seed=60 + i)
            g = two_slice_field(e, lam, seed=70 + i)
            got = orthogonality_residual(g, f, lam, kmax=4, spec=spec)
            want, _ = _unfolded_reference(
                f.slice_at(lam - 1), g.slice_at(lam - 1),
                (lam - 1) * spec.beta, f.slice_at(lam), g.slice_at(lam),
                lam * spec.beta, shifts)
            assert abs(want) > 1e-2
            assert abs(got - want) <= 1e-13 * abs(want)


def _pl_profile(lam):
    return Window.piecewise_linear([-0.3, 0.1 * abs(lam), 0.5 + 0.2 * lam,
                                    1.5], [0, 1 + 0.5j * lam, 0.7, 0])


def _pl_profile2(lam):
    return Window.piecewise_linear([-1.0, 0.2, 0.9], [0, 1.0 - lam, 0])


def _breakpoint_quadrature(Ej, Ej2, quad_cells, quad_order):
    """The cross-orthogonality quadrature by a breakpoint scan: the folded
    images split at every piece endpoint of either fold, a cell kept where
    both folds cover its midpoint, and quad_cells Gauss cells per cell.
    Returns (wq, lam1, lam2)."""
    fold1, fold2 = (list(zip(*fieldcheck._fold_map(E))) for E in (Ej, Ej2))
    breaks = sorted({p for lo, hi, _ in fold1 + fold2 for p in (lo, hi)})
    xg, wg = np.polynomial.legendre.leggauss(quad_order)
    points = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        n1 = next((n for lo, hi, n in fold1 if lo <= mid <= hi), None)
        n2 = next((n for lo, hi, n in fold2 if lo <= mid <= hi), None)
        if n1 is None or n2 is None:
            continue
        edges = np.linspace(a, b, quad_cells + 1)
        for ca, cb in zip(edges[:-1], edges[1:]):
            x = 0.5 * (cb - ca) * xg + 0.5 * (ca + cb)
            points.extend(zip(0.5 * (cb - ca) * wg, x + n1, x + n2))
    return np.array(points, dtype=float).reshape(-1, 3).T


def _cross_reference(g, fields, spec, kmax, quadrature):
    """max over field pairs of |sum_p wq_p |lam1 lam2| <C f, C f'>_p| at
    the given quadrature points, one point, pair, shift and n at a time
    through Window methods."""
    shifts = spec.alpha * np.arange(-kmax, kmax + 1)
    worst = 0.0
    for f in fields:
        for f2 in fields:
            total = 0j
            for wq, lam1, lam2 in zip(*quadrature):
                c1, c2 = -spec.beta * lam1, -spec.beta * lam2
                gw1, gw2 = g.slice_at(lam1), g.slice_at(lam2)
                fw1, fw2 = f.slice_at(lam1), f2.slice_at(lam2)
                acc, _ = _periodized_reference(
                    [(gw1.translate(s).product_conj(fw1),
                      gw2.translate(s).product_conj(fw2))
                     for s in shifts], c1, c2)
                total += wq * acc * abs(lam1 * lam2) / abs(c1 * c2)
            worst = max(worst, abs(total))
    return worst


def _pl_fields(E):
    grid = lambda_grid(E, 16, 0.05)
    g = FieldSample.from_profile(grid, _pl_profile)
    return g, [FieldSample.from_profile(grid, _pl_profile2), g]


def test_cross_orthogonality_matches_reference_loop():
    # profile-backed piecewise-linear fields whose coefficient operators
    # are not orthogonal, with the fold [-1, 0] -> [0, 1] written out
    g, fields = _pl_fields(E_FULL)
    Ej, Ej2 = SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)])
    for spec in (SPEC_075, QuasiLatticeSpec(0.75, 1.25)):
        got = coefficient_cross_orthogonality(
            g, Ej, Ej2, fields, trunc=(3, 0, 0), spec=spec, quad_cells=2,
            quad_order=4)
        want = _cross_reference(g, fields, spec, 3,
                                _breakpoint_quadrature(Ej, Ej2, 2, 4))
        assert want > 1e-2
        assert abs(got - want) <= 1e-13 * want


_FOLDS = [
    ([(-1.0, 0.0)], [(0.0, 1.0)]),                           # one piece
    ([(-0.7, 0.3)], [(0.45, 0.9)]),                          # two : one
    ([(-1.0, -0.6), (-0.4, 0.0)], [(0.1, 0.5), (0.55, 0.9)]),  # two : two
    ([(-1.0, -0.5), (-0.5, 0.0)], [(0.0, 0.5), (0.5, 1.0)]),  # touching
    ([(-0.8, -0.2)], [(0.1, 0.3), (0.3, 0.95)]),  # touching on one side
]


@pytest.mark.parametrize("spec", [SPEC, QuasiLatticeSpec(0.5, 0.75),
                                  QuasiLatticeSpec(0.8, 1.25)])
@pytest.mark.parametrize("pieces", _FOLDS)
def test_cross_orthogonality_quadrature_is_breakpoint_scan(pieces, spec,
                                                           coarse,
                                                           monkeypatch):
    # the overlap cells come from intersecting fold pieces, yet the points
    # g is sliced at and the weights that sum the kernel values are those
    # of the breakpoint scan bit for bit, for fields and for suites
    Ej, Ej2 = (SpectralSet(p) for p in pieces)
    wq, lam1, lam2 = _breakpoint_quadrature(Ej, Ej2, 3, 4)
    g, fields = _pl_fields(E_FULL)
    _, e = coarse
    suite = atom_suite(e, spec, n_functions=2, n_atoms=3, box=(1, 2, 1),
                       seed=8)
    for base, tests in ((g, fields), (e, suite)):
        points, values = [], []
        slices_at, kernel = base.slices_at, fieldcheck._unfolded_sum

        def spy_slices(lams):
            points.append(np.copy(lams))
            return slices_at(lams)

        def spy_kernel(*args):
            values.append(kernel(*args))
            return values[-1]

        with monkeypatch.context() as m:
            m.setattr(base, "slices_at", spy_slices)
            m.setattr(fieldcheck, "_unfolded_sum", spy_kernel)
            got = coefficient_cross_orthogonality(
                base, Ej, Ej2, tests, trunc=(2, 0, 0), spec=spec,
                quad_cells=3, quad_order=4)
        assert points[0].tobytes() == np.concatenate([lam1, lam2]).tobytes()
        vals = values[0].reshape(lam1.size, 2, 2)
        terms = (wq * np.abs(lam1 * lam2))[:, None, None] * np.conj(vals)
        assert got == float(np.max(np.abs(np.cumsum(terms, axis=0)[-1])))


def test_cross_orthogonality_rounding_level_fold_overlap():
    # the fold pieces of [0.1, 1.1] overlap by 1.1 - 1 - 0.1 ~ 9e-17, which
    # _fold_map admits: the sliver is summed with both pieces here, and
    # once by the breakpoint scan, so the two agree to rounding only
    g, fields = _pl_fields(SpectralSet([(-1.5, 1.5)]))
    Ej, Ej2 = SpectralSet([(0.1, 1.1)]), SpectralSet([(-1.0, -0.2)])
    lo, hi, _ = fieldcheck._fold_map(Ej)
    assert lo[1] < hi[0]
    for spec in (SPEC, QuasiLatticeSpec(0.75, 1.25)):
        got = coefficient_cross_orthogonality(
            g, Ej, Ej2, fields, trunc=(3, 0, 0), spec=spec, quad_cells=2,
            quad_order=4)
        want = _cross_reference(g, fields, spec, 3,
                                _breakpoint_quadrature(Ej, Ej2, 2, 4))
        assert want > 1e-2
        assert abs(got - want) <= 1e-13 * want


@st.composite
def _pl_windows(draw):
    breaks = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2,
                                  max_size=5, unique=True)))
    if min(np.diff(breaks)) < 1e-3:
        breaks = list(np.linspace(breaks[0], breaks[0] + 1.0, len(breaks)))
    parts = st.floats(-2.0, 2.0)
    values = [complex(draw(parts), draw(parts)) for _ in breaks]
    return Window.piecewise_linear(breaks, values)


def _two_points(w1, w2):
    """Two windows as the term table of a two-point grid, which the
    unfolding kernel pairs."""
    return FieldSample.from_windows(point_grid([0.5, 0.5], E_FULL), [w1, w2])


_scales = st.floats(0.2, 2.0).flatmap(
    lambda c: st.sampled_from([c, -c]))


@settings(max_examples=60, deadline=None)
@given(f1=_pl_windows(), g1=_pl_windows(), f2=_pl_windows(),
       g2=_pl_windows(), c1=_scales, c2=_scales,
       step=st.floats(0.1, 2.0), kmax=st.integers(0, 2),
       mods=st.lists(st.sampled_from([0.0, 0.5, -1.25]), min_size=4,
                     max_size=4))
def test_unfolded_sum_matches_reference_property(f1, g1, f2, g2, c1, c2,
                                                 step, kmax, mods):
    # modulated slices make every translation phase count
    f1, g1, f2, g2 = (w.modulate(m) for w, m in zip((f1, g1, f2, g2), mods))
    got = _unfolded_sum(_two_points(f1, f2), _two_points(g1, g2),
                        [c1, c2], step, kmax)[0]
    shifts = step * np.arange(-kmax, kmax + 1, dtype=float)
    want, scale = _unfolded_reference(f1, g1, c1, f2, g2, c2, shifts)
    assert abs(got - want) <= 1e-12 * scale + 1e-300


# -- truncation sizes ---------------------------------------------------------

_HALVES = (SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]))
_NEGATIVE = "bounds must be nonnegative"


@pytest.mark.parametrize("call,message", [
    (lambda e, s: orthogonality_residual(e, e, 0.5, kmax=-1), _NEGATIVE),
    (lambda e, s: coefficient_cross_orthogonality(
        e, *_HALVES, s, trunc=(-1, 2, 2)), _NEGATIVE),
    (lambda e, s: coefficient_cross_orthogonality(
        e, *_HALVES, s, quad_cells=0), "at least 1"),
    (lambda e, s: coefficient_cross_orthogonality(
        e, *_HALVES, s, quad_order=0), "at least 1"),
    (lambda e, s: frame_bounds_empirical(
        Window.indicator(0, 2), SPEC, 0.5, kmax=-1), _NEGATIVE),
    (lambda e, s: frame_bounds_empirical(
        Window.indicator(0, 2), SPEC, 0.5, lmax=-1), _NEGATIVE),
    (lambda e, s: theta_delta_report(e, SPEC, ([0.5], [0.1]), kmax=-1),
     _NEGATIVE),
    (lambda e, s: theta_delta_report(e, SPEC, ([0.5], [0.1]), lmax=-1),
     _NEGATIVE),
    (lambda e, s: lattice_coefficients([e], e, SPEC, -1, 2, 2), _NEGATIVE),
    (lambda e, s: parseval_residual(e, SPEC, s, kmax=1, lmax=-1, mmax=1),
     _NEGATIVE),
    (lambda e, s: parseval_residual(e, SPEC, [e], kmax=1, lmax=1, mmax=-1),
     _NEGATIVE),
    (lambda e, s: onb_gram_check(e, SPEC, (1, -1, 1)), _NEGATIVE),
    (lambda e, s: sample_on_lattice(e, e, SPEC, (1, 1, -1)), _NEGATIVE),
], ids=["orthogonality", "cross-trunc", "cross-cells", "cross-order",
        "frame-kmax", "frame-lmax", "theta-kmax", "theta-lmax",
        "coefficients", "parseval-suite", "parseval-fields", "gram",
        "sample"])
def test_bad_truncation_sizes_raise(coarse, call, message):
    # an empty truncated sum would read as a pass
    _, e = coarse
    suite = atom_suite(e, SPEC, n_functions=1, n_atoms=3, box=(1, 2, 1),
                       seed=8)
    with pytest.raises(DomainError, match=message):
        call(e, suite)


# -- double periodization ----------------------------------------------------

def test_theta_canonical_point(coarse):
    _, e = coarse
    assert theta(e, SPEC, 0, 0.5, 0.3, lmax=8) == pytest.approx(1.0, abs=0)
    assert theta(e, SPEC, 5, 0.5, 0.3, lmax=8) == 0
    assert theta(e, SPEC, 1, 0.37, 0.61, lmax=8) == 0


def test_theta_zero_field(coarse):
    grid, _ = coarse
    z = FieldSample.zero(grid)
    for k in range(-2, 3):
        assert theta(z, SPEC, k, 0.41, 0.13, lmax=4) == 0


def test_theta_singularity_error():
    grid = lambda_grid(E_FULL, 16, 0.05)
    e = canonical_field(grid)
    with pytest.raises(DomainError):
        theta(e, SPEC, 0, 1.0, 0.3, lmax=4)


def test_theta_delta_report_canonical(coarse):
    _, e = coarse
    pts = jittered_unit_grid(16)
    rep = theta_delta_report(e, SPEC, (pts, pts), kmax=3, lmax=8)
    assert rep.dev_zero <= 1e-10
    assert rep.dev_nonzero <= 1e-10


def _theta_literal(g, spec, k, lam, t, lmax):
    # the double periodization term by term through scalar window values
    total = 0j
    for l2 in range(-3, 4):
        mu = lam - l2
        if not g.grid.spectral_set.contains(mu):
            continue
        w = g.slice_at(mu)
        for n in range(-lmax, lmax + 1):
            s = (t - n / spec.beta) / mu
            total += w(s - k) * np.conj(w(s))
    return total


@pytest.mark.parametrize("spec", [SPEC, QuasiLatticeSpec(0.5, 0.75)])
def test_theta_delta_report_matches_literal_sum(coarse, spec):
    # a two-slice field with piecewise-linear slices gives values that are
    # not 0 or 1, so a dropped or misplaced term cannot hide
    _, e = coarse
    lam = 0.3
    f = two_slice_field(e, lam, seed=17)
    ts = np.array([0.05, 0.41, 0.77])
    rep = theta_delta_report(f, spec, ([lam], ts), kmax=2, lmax=6)
    assert sorted(rep.values) == [-2, -1, 0, 1, 2]
    for k in range(-2, 3):
        for j, t in enumerate(ts):
            want = _theta_literal(f, spec, k, lam, t, lmax=6)
            got = rep.values[k][0, j]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
            one = theta(f, spec, k, lam, t, lmax=6)
            assert abs(one - want) <= 1e-12 * (1.0 + abs(want))
    assert abs(rep.values[0]).max() > 1.0


def test_theta_delta_report_empty_spectral_set():
    grid = LambdaGrid(nodes=np.zeros(0), weights=np.zeros(0),
                      lambda_min=0.05, spectral_set=SpectralSet([]))
    z = FieldSample.zero(grid)
    rep = theta_delta_report(z, SPEC, ([0.2, 0.5], [0.1]), kmax=1, lmax=2)
    for k in (-1, 0, 1):
        assert rep.values[k].shape == (2, 1)
        assert not rep.values[k].any()
    assert theta(z, SPEC, 1, 0.3, 0.2) == 0


def test_theta_scaling_quadratic(coarse):
    _, e = coarse
    half = e.scaled(np.sqrt(0.5))
    val = theta(half, SPEC, 0, 0.5, 0.3, lmax=8)
    assert abs(val - 1.0) == pytest.approx(0.5, abs=1e-12)


def test_theta_empty_point_sets(coarse):
    # an empty grid reports zero deviations, as an empty spectral set does
    _, e = coarse
    for pts, shape in ((([], [0.3]), (0, 1)), (([0.3], []), (1, 0))):
        rep = theta_delta_report(e, SPEC, pts, kmax=2, lmax=4)
        assert rep.values[1].shape == shape
        assert (rep.dev_zero, rep.dev_nonzero) == (0.0, 0.0)


def test_theta_gram_duality_needs_a_quadrature_point(coarse):
    _, e = coarse
    with pytest.raises(DomainError, match="at least 1"):
        theta_gram_duality(e, SPEC, LatticeIndex(0, 0, 0), n_quad=0)


def _theta_dense(g, spec, gridpts, kmax, lmax):
    """Theta_k by the dense loop: every slice through Window.__call__ on
    the whole (k, n, t) grid, one spectral shift at a time."""
    lams, ts = (np.asarray(x, dtype=float) for x in gridpts)
    ks = np.arange(-kmax, kmax + 1)
    acc = np.zeros((ks.size, lams.size, ts.size), dtype=complex)
    bounds = g.grid.spectral_set.bounds()
    l2_lo = np.floor(lams - bounds[1]).astype(np.int64)
    l2_hi = np.ceil(lams - bounds[0]).astype(np.int64)
    i, l2 = fieldcheck._ranges(l2_lo, l2_hi - l2_lo + 1)
    mu = lams[i] - l2
    keep = (mu != 0.0) & g.grid.spectral_set.contains(mu)
    i, mu = i[keep], mu[keep]
    slices = g.slices_at(mu)
    shifted = ts[None, :] - np.arange(-lmax, lmax + 1)[:, None] / spec.beta
    for q in range(mu.size):
        w = slices.slice(q)
        if w.n_terms:
            vals = w(shifted / mu[q] - ks[:, None, None])
            acc[:, i[q]] += np.sum(vals * np.conj(vals[kmax]), axis=1)
    return {int(k): acc[j] for j, k in enumerate(ks)}


@pytest.mark.parametrize("n,kmax,lmax", [(32, 4, 16), (64, 2, 16),
                                         (16, 2, 8)])
def test_theta_matches_dense_loop_canonical(coarse, n, kmax, lmax):
    # the criterion grids: only the live rows are evaluated, bit for bit
    _, e = coarse
    pts = jittered_unit_grid(n)
    rep = theta_delta_report(e, SPEC, (pts, pts), kmax=kmax, lmax=lmax)
    want = _theta_dense(e, SPEC, (pts, pts), kmax, lmax)
    for k in want:
        assert np.array_equal(_bits(rep.values[k]), _bits(want[k]))


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_theta_matches_dense_loop_on_cell_edges(coarse, beta):
    # dyadic points land on the cell edges of the canonical slices, where
    # the half-open masks decide
    _, e = coarse
    spec = QuasiLatticeSpec(1.0, beta)
    pts = ([0.25, 0.5, 0.75], np.linspace(0, 1, 17))
    rep = theta_delta_report(e, spec, pts, kmax=2, lmax=8)
    want = _theta_dense(e, spec, pts, 2, 8)
    assert any(want[0].ravel() != 0)
    for k in want:
        assert np.array_equal(_bits(rep.values[k]), _bits(want[k]))


@st.composite
def _pl_two_slice(draw):
    lam = draw(st.floats(0.05, 0.95))
    windows = []
    for _ in range(2):
        n = draw(st.integers(2, 9))
        start = draw(st.floats(-2.0, 1.0))
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                             max_size=n - 1))
        breaks = start + np.concatenate([[0.0], np.cumsum(gaps)])
        parts = st.floats(-2.0, 2.0)
        values = [complex(draw(parts), draw(parts)) for _ in breaks]
        windows.append(Window.piecewise_linear(breaks, values))
    grid = LambdaGrid(np.array([lam - 1.0, lam]), np.ones(2), 1e-12, E_FULL,
                      "twoslice")
    return lam, FieldSample.from_windows(grid, windows)


@settings(max_examples=40, deadline=None)
@given(field=_pl_two_slice(), alpha=st.floats(0.5, 2.0),
       beta=st.floats(0.5, 2.0), kmax=st.integers(0, 2),
       edges=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8),
                                st.integers(-3, 3)), max_size=4),
       ts=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4))
def test_theta_matches_literal_sum_property(field, alpha, beta, kmax, edges,
                                            ts):
    # ts that put s = (t - n / beta) / mu on a breakpoint exercise the
    # half-open cells of both factors
    lam, f = field
    spec = QuasiLatticeSpec(alpha, beta)
    mus = (lam - 1.0, lam)
    for side, b, n in edges:
        w = f.slice(side)
        brk = np.append(w.lo, w.hi[-1])
        ts.append(mus[side] * brk[min(b, brk.size - 1)] + n / beta)
    rep = theta_delta_report(f, spec, ([lam], ts), kmax=kmax, lmax=4)
    for k in range(-kmax, kmax + 1):
        for j, t in enumerate(ts):
            want = _theta_literal(f, spec, k, lam, t, lmax=4)
            got = rep.values[k][0, j]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_theta_memory_stays_off_the_dense_grid(coarse):
    # no (K, N, T) scratch: the 128 x 128 report peaks below 8 MB
    _, e = coarse
    pts = jittered_unit_grid(128)
    rep, peak = traced_peak(
        lambda: theta_delta_report(e, SPEC, (pts, pts), kmax=4, lmax=16))
    assert rep.dev_zero <= 1e-10 and rep.dev_nonzero <= 1e-10
    assert peak < 8e6


# -- Gram entries ------------------------------------------------------------

def test_gram_entry_diagonal(coarse):
    grid, e = coarse
    val = gram_entry(e, LatticeIndex(0, 0, 0), SPEC)
    assert val.real == pytest.approx(grid.mass(), abs=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-14)


def test_gram_entry_shifted_translates_vanish(coarse):
    _, e = coarse
    # disjoint supports make every k != 0 entry exactly zero
    assert gram_entry(e, LatticeIndex(1, 0, 0), SPEC) == 0


def test_gram_entry_modulations_small(fine):
    _, e = fine
    for idx in [LatticeIndex(0, 1, 0), LatticeIndex(0, 0, 1),
                LatticeIndex(0, 2, -1), LatticeIndex(0, -3, 2)]:
        assert abs(gram_entry(e, idx, SPEC)) <= 1e-3


def test_gram_entry_conjugate_symmetry(fine):
    _, e = fine
    # <T_gamma g, g> = conj(<T_{gamma^{-1}} g, g>) for the unit lattice
    for (k, l, m) in [(0, 1, 0), (0, 2, 1), (1, 0, 2)]:
        inv = (-k, -l, -m + k * l)
        a = gram_entry(e, LatticeIndex(k, l, m), SPEC)
        b = gram_entry(e, LatticeIndex(*inv), SPEC)
        assert a == pytest.approx(np.conj(b), abs=1e-12)


def test_theta_gram_duality(fine):
    _, e = fine
    for idx in [LatticeIndex(0, 0, 0), LatticeIndex(0, 1, 0),
                LatticeIndex(1, 0, 1), LatticeIndex(0, -1, 2)]:
        coeff, gram = theta_gram_duality(e, SPEC, idx, n_quad=32, lmax=8)
        assert coeff == pytest.approx(gram, abs=1e-3)


@pytest.mark.parametrize("alpha,beta", [(2, 0.5), (1, 0.5), (0.5, 1),
                                        (1, 2)])
def test_theta_gram_duality_off_unit_lattice(coarse, alpha, beta):
    # Theta_k translates by k, not alpha k: at (1, 0.5) and gamma =
    # (0, -1, 0) its coefficient is 0 against a Gram entry of 0.637i
    _, e = coarse
    with pytest.raises(NotApplicableError, match="unit lattice"):
        theta_gram_duality(e, QuasiLatticeSpec(alpha, beta),
                           LatticeIndex(0, -1, 0), n_quad=8, lmax=4)


# -- composed invariants -------------------------------------------------------

def test_lemma_pipeline_end_to_end(fine):
    # per-slice painless pass + vanishing two-slice orthogonality together
    # predict a small full-space Parseval residual
    _, e = fine
    verdict = gabor_field_verdict(e, SPEC, tol=1e-12)
    assert verdict.passed
    worst = max(abs(orthogonality_residual(
        e, two_slice_field(e, lam, seed=500 + i), lam, kmax=6))
        for i, lam in enumerate(jittered_unit_grid(4)))
    assert worst <= 1e-10
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=8, box=(1, 4, 2),
                       seed=21)
    assert parseval_residual(e, SPEC, suite, 2, 12, 6) <= 1e-2


def test_parseval_implies_gabor_field(fine):
    # whenever the full-space residual is small, the per-slice verdict holds
    _, e = fine
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=8, box=(1, 4, 2),
                       seed=22)
    res = parseval_residual(e, SPEC, suite, 2, 12, 6)
    if res <= 1e-2:
        assert gabor_field_verdict(e, SPEC, tol=1e-12).passed
