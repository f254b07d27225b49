import numpy as np
import pytest

from hgs.canonical import canonical_field
from hgs.errors import DomainError
from hgs.fieldcheck import (coefficient_cross_orthogonality,
                            gabor_field_verdict, gram_entry,
                            jittered_unit_grid, lattice_coefficients,
                            orthogonality_residual, parseval_residual,
                            theta, theta_delta_report, theta_gram_duality,
                            translate_field)
from hgs.grids import (FieldSample, LambdaGrid, SpectralSet, field_inner,
                       lambda_grid)
from hgs.group import LatticeIndex, QuasiLatticeSpec
from hgs.testfields import atom_suite, random_pl_field, two_slice_field
from hgs.windows import Window

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
    t1 = orthogonality_residual(g, g, 0.5, kmax=4, lmax=64,
                                method="truncated")
    t2 = orthogonality_residual(g, g, 0.5, kmax=4, lmax=256,
                                method="truncated")
    assert abs(t2 - exact) < abs(t1 - exact)
    assert abs(t2 - exact) < 5e-3


def test_orthogonality_missing_slice_error(coarse):
    grid, e = coarse
    f = random_pl_field(lambda_grid(SpectralSet([(0.4, 0.9)]), 8, 0.05),
                        seed=2)
    with pytest.raises(DomainError):
        orthogonality_residual(e, f, 0.5, kmax=2)


# -- coefficient cross-orthogonality -----------------------------------------

def test_cross_orthogonality_canonical(fine):
    _, e = fine
    suite = atom_suite(e, SPEC, n_functions=2, n_atoms=6,
                       box=(1, 3, 2), seed=7)
    val = coefficient_cross_orthogonality(
        e, SpectralSet([(-1.0, 0.0)]), SpectralSet([(0.0, 1.0)]),
        suite, trunc=(4, 32, 16))
    assert val <= 1e-6


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
