"""Field-level verification: Gabor-field verdicts, the Parseval property of
the lattice translate system on the full weighted space, the two-slice
orthogonality condition, coefficient-operator cross-orthogonality, the
double-periodization orthonormality criterion, and Gram entries.

Where an identity involves an infinite modulation or phase sum, the sum is
evaluated in closed form through the same periodization that proves it:
for compactly supported slices the Fourier-coefficient sum of two windows
collapses to finitely many overlap integrals over integer shifts.  The
lattice truncation parameters bound the directions that are genuinely
finite (translations) or empirically truncated (coefficient boxes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotApplicableError
from .gabor import (NormConditionReport, _norm_reports, _painless_table,
                    frame_bounds_empirical)
from .grids import (FieldSample, SpectralSet, _concat, _gram_tables,
                    _node_table, _self_table, field_inner, field_sum,
                    point_grid)
from .group import LatticeIndex, QuasiLatticeSpec, _check_bounds
from .testfields import AtomSuite
from .windows import (_TWO_PI, _blocks, _ranges, _rows, _term_values,
                      _translated_pairs, affine_terms, paired_inner_sweep,
                      product_conj_terms)

SPEC_UNIT = QuasiLatticeSpec(1.0, 1.0)
_NORM_TOL = 1e-12  # the Gabor-field verdict's bound on norm identity errors


# ---------------------------------------------------------------------------
# lattice translates


def translate_field(g: FieldSample, k: int, l: int, m: int,
                    spec: QuasiLatticeSpec = SPEC_UNIT) -> FieldSample:
    """Slice-wise unitary lattice translate:

        (T g)(lam, t) = e^{2 pi i lam m} e^{-2 pi i lam beta l t}
                        g(lam, t - alpha k).
    """
    return g.heisenberg_translate(spec.alpha * k, spec.beta * l, float(m))


def gram_entry(g: FieldSample, gamma: LatticeIndex,
               spec: QuasiLatticeSpec = SPEC_UNIT) -> complex:
    """<T_gamma g, g> on the grid."""
    return field_inner(translate_field(g, gamma.k, gamma.l, gamma.m, spec), g)


# ---------------------------------------------------------------------------
# Gabor-field verdict


@dataclass(frozen=True)
class SliceCheck:
    lam: float
    painless: float | None          # exact residual, or None if inapplicable
    empirical: tuple | None         # (A_est, B_est) fallback
    norm: NormConditionReport

    def residual(self):
        if self.painless is not None:
            return self.painless
        a, b = self.empirical
        return max(abs(a - 1.0), abs(b - 1.0))


@dataclass(frozen=True)
class GaborFieldReport:
    slices: tuple
    tol: float
    lattice_integer: bool

    @property
    def worst_residual(self):
        return max((s.residual() for s in self.slices), default=0.0)

    @property
    def worst_norm_error(self):
        return max((abs(s.norm.difference) for s in self.slices), default=0.0)

    @property
    def passed(self):
        return all(s.residual() <= self.tol and s.norm.within(_NORM_TOL)
                   for s in self.slices)


def gabor_field_verdict(g: FieldSample, spec: QuasiLatticeSpec = SPEC_UNIT,
                        tol: float = 1e-12,
                        empirical_kw: dict | None = None) -> GaborFieldReport:
    """Scale each slice by |lam|^{1/2} and verify the per-slice Parseval
    property (painless criterion where applicable, empirical frame bounds
    otherwise) plus the norm identity, then aggregate.

    The painless residuals of all slices come from one call over the
    scaled term table and the norms from one slice_norm2 call; only the
    slices outside the painless regime are built as windows."""
    lams = g.grid.nodes
    root = np.sqrt(np.abs(lams))
    painless, why = _painless_table(
        g.term_node, g.term_lo, g.term_hi,
        g.term_coef * root[g.term_node, None], g.term_freq, lams, spec)
    empirical = {i: frame_bounds_empirical(
        g.slice(i).scaled(root[i]), spec, lams[i], **(empirical_kw or {}))
        for i in why}
    norms = _norm_reports(lams, g.slice_norm2(), spec)
    checks = tuple(
        SliceCheck(lam=norm.lam, painless=None if i in why else p,
                   empirical=empirical.get(i), norm=norm)
        for i, (p, norm) in enumerate(zip(painless.tolist(), norms)))
    return GaborFieldReport(slices=checks, tol=tol,
                            lattice_integer=spec.is_integer)


# ---------------------------------------------------------------------------
# the lattice coefficient sweep (shared by Parseval residual and sampling)


def _one_atom(f: FieldSample, spec: QuasiLatticeSpec) -> AtomSuite:
    """f as its one-atom suite f = 1 * T_(0,0,0) f."""
    return AtomSuite(f, spec, (LatticeIndex(0, 0, 0),), np.ones((1, 1)))


def _own_suite(suite, g: FieldSample, spec: QuasiLatticeSpec):
    """suite if it is an AtomSuite of translates of g itself under spec,
    else None: only such a suite reads its norms off its own samples."""
    own = (isinstance(suite, AtomSuite) and suite.base is g
           and suite.spec == spec)
    return suite if own else None


def lattice_coefficients(fields, g: FieldSample, spec: QuasiLatticeSpec,
                         kmax: int, lmax: int, mmax: int) -> np.ndarray:
    """Coefficients <f, T_{k,l,m} g> for every field f and every index in
    the truncation box, as an array of shape (n_fields, K, L, M).

    Each field is swept as its one-atom suite f = 1 * T_(0,0,0) f by
    _suite_coefficients, whose cocycle at kappa = 0 is exactly 1.
    """
    _check_bounds(kmax, lmax, mmax)
    out = np.zeros((len(fields), 2 * kmax + 1, 2 * lmax + 1, 2 * mmax + 1),
                   dtype=complex)
    for fi, f in enumerate(fields):
        out[fi] = _suite_coefficients(_one_atom(f, spec), g, spec,
                                      kmax, lmax, mmax)[0]
    return out


def _suite_coefficients(suite: AtomSuite, g: FieldSample,
                        spec: QuasiLatticeSpec, kmax: int, lmax: int,
                        mmax: int) -> np.ndarray:
    """<f_s, T_{k,l,m} g> for the test fields of an AtomSuite, shape
    (n_functions, K, L, M): the blocks of _suite_blocks stacked along k."""
    return np.stack([*_suite_blocks(suite, g, spec, kmax, lmax, mmax)], 1)


def _suite_blocks(suite: AtomSuite, g: FieldSample, spec: QuasiLatticeSpec,
                  kmax: int, lmax: int, mmax: int):
    """Lattice coefficients <f_s, T_{k,l,m} g> of the test fields f_s =
    sum_j c_sj T_{gamma_j} b of an AtomSuite whose atoms are translates
    under spec, without building the fields, yielded k-major: one
    (n_functions, L, M) block per k = -kmax .. kmax.  This is the
    package's one lattice-coefficient sweep: a plain field is swept as its
    one-atom suite (lattice_coefficients).

    The group law reduces every pairing to the twisted Gram tables of the
    base b against g (_gram_tables) over the box widened by the atoms'
    largest |k|, |l| and |m|:

        <T_{k_j,l_j,m_j} b, T_{k,l,m} g> = Y_{k_j}(k - k_j, l - l_j, m - m_j),

    so all atoms with the same k_j share one (l, m) table per translation.
    When b is g the tables are g's own, kept on g (_self_table); any other
    base builds them per call.  A block adds its atoms in ascending kappa,
    then atom, order.
    """
    _check_bounds(kmax, lmax, mmax)
    b, c = suite.base, suite.coeffs
    if not suite.indices or not c.shape[0]:
        raise DomainError("need at least one test field")
    kj, lj, mj = np.array([gam.astuple() for gam in suite.indices]).T
    dk, dl, dm = (int(np.abs(x).max()) for x in (kj, lj, mj))
    L, M = 2 * lmax + 1, 2 * mmax + 1
    reach = (dk, kmax + dk, lmax + dl, mmax + dm)
    if b is g:
        rho, Y = _self_table(g, spec, *reach)
    else:
        rho, Y = _gram_tables(_node_table(b, g, spec, *reach[1:3]), g, spec,
                              *reach[:2], reach[3])
    kappas = np.unique(kj).tolist()
    for k in range(-kmax, kmax + 1):
        block = np.zeros((c.shape[0], L, M), dtype=complex)
        for kappa in kappas:
            j = np.searchsorted(rho, k - kappa)
            if j < rho.size and rho[j] == k - kappa:
                for a in np.flatnonzero(kj == kappa):
                    l0, m0 = dl - lj[a], dm - mj[a]
                    block += (c[:, a, None, None] * Y[kappa + dk, j][
                        None, l0:l0 + L, m0:m0 + M])
        yield block


def _suite_union(suite: AtomSuite, bounds):
    """(union, at, box) for a suite and a lattice box: the smallest box
    holding the box and every atom index, the atoms' positions in an array
    over it, and the slices of such an array that hold the box."""
    idx = np.array([gam.astuple() for gam in suite.indices])
    union = tuple(int(u) for u in np.maximum(bounds, np.abs(idx).max(axis=0)))
    return (union, tuple((idx + union).T),
            tuple(slice(u - b, u + b + 1) for u, b in zip(union, bounds)))


def _suite_norms(suite: AtomSuite, samples: np.ndarray) -> np.ndarray:
    """Squared norms of the test fields of a suite over g itself, read off
    their own samples at the atoms, samples[s, j] = phi_s(gamma_j) =
    <f_s, T_{gamma_j} g> (the positions at from _suite_union):

        ||f_s||^2 = <f_s, f_s> = Re sum_j conj(c_sj) phi_s(gamma_j).

    An elementwise product and np.sum, so no BLAS kernel sets the
    rounding."""
    vals = np.conj(suite.coeffs) * samples
    return np.maximum(np.sum(vals, axis=1).real, 0.0)


def _test_fields(testfns) -> list:
    """The fields of a nonempty list of test fields or of an AtomSuite."""
    fields = (testfns.fields() if isinstance(testfns, AtomSuite)
              else list(testfns))
    if not fields:
        raise DomainError("need at least one test field")
    return fields


def parseval_residual(g: FieldSample, spec: QuasiLatticeSpec, testfns,
                      kmax: int = 4, lmax: int = 32, mmax: int = 16) -> float:
    """max over test fields f of |sum_box |<f, T_gamma g>|^2 - ||f||^2| / ||f||^2.

    testfns is a nonempty list of fields on g's grid, or an AtomSuite.  A
    suite of translates of g itself under spec is evaluated without
    building its fields: its coefficients come from one relative-offset
    table of g against g (_suite_blocks) on the union of the box and its
    atom indices, and its norms are read off them (_suite_norms).  Any
    other suite takes the fields route.  Both sum |c|^2 one k block at a
    time.  For a Parseval system and test fields concentrated in the box
    the residual is bounded by quadrature noise plus the energy the box
    misses.
    """
    _check_bounds(kmax, lmax, mmax)
    suite = _own_suite(testfns, g, spec)
    if suite is not None:
        union, at, box = _suite_union(suite, (kmax, lmax, mmax))
        # the samples at the atoms and the energy in the box, one k at a time
        samples, energy = np.empty(suite.coeffs.shape, dtype=complex), 0.0
        for k, block in enumerate(_suite_blocks(suite, g, spec, *union)):
            on = at[0] == k
            samples[:, on] = block[:, at[1][on], at[2][on]]
            if box[0].start <= k < box[0].stop:
                energy = energy + np.sum(
                    np.abs(block[:, box[1], box[2]]) ** 2, axis=(1, 2))
        norms = _suite_norms(suite, samples).tolist()
    else:
        fields = _test_fields(testfns)
        energy = [sum(np.sum(np.abs(block) ** 2) for block in _suite_blocks(
            _one_atom(f, spec), g, spec, kmax, lmax, mmax)) for f in fields]
        norms = [f.norm2() for f in fields]
    worst = 0.0
    for total, n2 in zip(energy, norms):
        if n2 == 0.0:
            raise DomainError("test field has zero norm")
        worst = max(worst, abs(float(total) - n2) / n2)
    return worst


# ---------------------------------------------------------------------------
# two-slice orthogonality condition


def _unfolded_sum(f: FieldSample, g: FieldSample, c, step: float,
                  kmax: int) -> np.ndarray:
    """Per point p < P of the common grid of 2P points of f and g, paired
    with point q = P + p:

        sum_{|k| <= kmax} sum_{n in Z} <(f_p conj T_s g_p)(./c_p),
                            T_n (f_q conj T_s g_q)(./c_q)> / |c_p c_q|,

    with T_s the translation by s = step k and c of length 2P; an array
    over the P points.

    The periodization behind the two-slice orthogonality condition and the
    coefficient cross-orthogonality: after the unfolding substitution a
    modulation sum over the frequencies c*l, l in Z, is a sum of integer-
    frequency Fourier coefficients, so it collapses to overlap integrals
    over integer shifts n.  Both joins come from _translated_pairs: the
    overlapping (point, shift, term pair) rows give the product terms of
    all 2P points, the terms of (p, s) meet those of (P + p, s) at every n
    where their cells overlap, and one sweep evaluates them all.
    """
    c = np.asarray(c, dtype=float)
    # the sweep forms |c|^5 and |c|^-5 (degree-4 products on scaled cells)
    if not np.all((2.0 ** -200 <= np.abs(c)) & (np.abs(c) <= 2.0 ** 200)):
        raise DomainError("unfolding scales beta*lambda out of range")
    S, P = 2 * kmax + 1, c.size // 2
    ia, ib, seg, k, lo, hi = _translated_pairs(
        f._starts, f.term_lo, f.term_hi, g._starts, g.term_lo, g.term_hi,
        step, kmax)
    # (point, shift, term pair) order
    seg = seg * S + (k.astype(np.int64) + kmax)
    perm = np.argsort(seg, kind="stable")
    seg, ia, ib, k, lo, hi = (x[perm] for x in (seg, ia, ib, k, lo, hi))
    phase = np.exp(-1j * _TWO_PI * g.term_freq[ib] * (step * k))
    _, prod = product_conj_terms(
        _rows(f.terms, ia),
        (lo, hi, g.term_coef[ib] * phase[:, None], g.term_freq[ib]))
    terms = affine_terms(prod, c[seg // S])
    starts = np.searchsorted(seg, np.arange(c.size * S + 1))
    ia, ib, seg, n, lo2, hi2 = _translated_pairs(
        starts[:P * S + 1], terms[0], terms[1], starts[P * S:], terms[0],
        terms[1], 1.0, math.inf)
    freq2 = terms[3][ib]
    coef2 = terms[2][ib] * np.exp(-1j * _TWO_PI * freq2 * n)[:, None]
    vals = paired_inner_sweep(_rows(terms, ia), (lo2, hi2, coef2, freq2),
                              np.zeros(1))
    # rows come point by point; one np.sum per point keeps numpy's pairwise
    # order, so every value equals that of a one-point call bit for bit
    bounds = np.searchsorted(seg // S, np.arange(P + 1))
    sums = np.array([np.sum(vals[a:b]) for a, b
                     in zip(bounds[:-1], bounds[1:])], dtype=complex)
    scale = np.abs(c[:P] * c[P:])
    out = np.empty(P, dtype=complex)
    out.real, out.imag = sums.real / scale, sums.imag / scale
    return out


def orthogonality_residuals(g: FieldSample, pairs, kmax: int = 8,
                            spec: QuasiLatticeSpec = SPEC_UNIT) -> np.ndarray:
    """orthogonality_residual for every (lam, f) of a nonempty list, with
    the bits of one-pair calls, by one _unfolded_sum call: g's slices at
    the 2P points lam_p - 1 and lam_p, and f_p's at points p and P + p.
    """
    if not pairs:
        raise DomainError("need at least one (lam, f) pair")
    if not all(0 < lam < 1 for lam, _ in pairs):
        raise DomainError("lam must lie in (0, 1)")
    _check_bounds(kmax)
    P = len(pairs)
    lams = np.array([lam for lam, _ in pairs], dtype=float)
    mus = np.concatenate([lams - 1.0, lams])
    gs = g.slices_at(mus)
    fs = _concat(gs.grid, [f.slices_at(mus[[p, P + p]])
                           for p, (_, f) in enumerate(pairs)],
                 np.arange(2 * P).reshape(2, P).T)
    return _unfolded_sum(fs, gs, spec.beta * mus, spec.alpha, kmax)


def orthogonality_residual(g: FieldSample, f: FieldSample, lam: float,
                           kmax: int = 8,
                           spec: QuasiLatticeSpec = SPEC_UNIT) -> complex:
    """sum_{k,l} <f(lam-1), (T_{k,l,0} g)(lam-1)> conj(<f(lam), (T_{k,l,0} g)(lam)>).

    The unfolding kernel (orthogonality_residuals) pairs the slices at
    lam - 1 and lam: the l-sum over all of Z is a finite sum of overlap
    integrals over integer shifts, and the k-sum is exactly finite once
    kmax covers the support spread.
    """
    return complex(orthogonality_residuals(g, [(lam, f)], kmax, spec)[0])


# ---------------------------------------------------------------------------
# coefficient-operator cross-orthogonality


def _fold_map(E: SpectralSet):
    """For a set translation-congruent into a unit interval, the sorted
    pieces of its image in [0, 1) as arrays (x_lo, x_hi, n), lam = x + n."""
    pieces = []
    for a, b in E.intervals:
        for n in range(math.floor(a), math.floor(b) + 2):
            lo, hi = max(a - n, 0.0), min(b - n, 1.0)
            if hi > lo:
                pieces.append((lo, hi, n))
    pieces.sort()
    for (l1, h1, _), (l2, h2, _) in zip(pieces, pieces[1:]):
        if l2 < h1 - 1e-12:
            raise DomainError(
                "set is not translation-congruent to a subset of [0, 1]")
    return np.array(pieces, dtype=float).reshape(-1, 3).T


def coefficient_cross_orthogonality(g: FieldSample, Ej: SpectralSet,
                                    Ej2: SpectralSet, testfns,
                                    trunc=(4, 32, 16),
                                    spec: QuasiLatticeSpec = SPEC_UNIT,
                                    quad_cells: int = 24,
                                    quad_order: int = 8) -> float:
    """max over test pairs (f, f') of |<C_j f, C_j' f'>| with C_j the
    coefficient operator of the restriction of g to Ej.

    The phase sum over the central index collapses to an integral over the
    common unit circle onto which both spectral pieces fold, and at every
    fold point the modulation sum collapses by the same unfolding
    periodization used for the two-slice orthogonality condition; only the
    translation sum is truncated (exactly finite for compact supports, at
    trunc[0]).  Test fields must be evaluable at arbitrary spectral points
    (profile-backed or on-grid interpolable).
    """
    _check_bounds(*trunc)
    if min(quad_cells, quad_order) < 1:
        raise DomainError("quad_cells and quad_order must be at least 1")
    if Ej.intersect(Ej2).intervals:
        raise DomainError("spectral pieces overlap")
    # overlap cells of the two folded images: the pieces of one fold are
    # disjoint and sorted, so each pair of pieces meets in at most one
    # interval and the nonempty meets come in [0, 1) order
    (lo1, hi1, n1), (lo2, hi2, n2) = _fold_map(Ej), _fold_map(Ej2)
    a, b = np.maximum.outer(lo1, lo2), np.minimum.outer(hi1, hi2)
    k1, k2 = np.nonzero(b > a)
    # quad_cells Gauss cells per overlap cell, raveled cell by cell
    edges = np.linspace(a[k1, k2], b[k1, k2], quad_cells + 1, axis=1)
    ca, cb = edges[:, :-1, None], edges[:, 1:, None]
    xg, wg = np.polynomial.legendre.leggauss(quad_order)
    x = 0.5 * (cb - ca) * xg + 0.5 * (ca + cb)
    wq = (0.5 * (cb - ca) * wg).ravel()
    lam1 = (x + n1[k1, None, None]).ravel()
    lam2 = (x + n2[k2, None, None]).ravel()
    # one kernel point per (quadrature point p, field i, field j): the
    # slices at lam1 and at lam2 sit at point p and point P + p of one table
    both = np.concatenate([lam1, lam2])
    gs = g.slices_at(both)
    if isinstance(testfns, AtomSuite):
        # a suite's slices are translates of its base's: no field is built
        # on the grid
        base = testfns.base.slices_at(both)
        atoms = [translate_field(base, gam.k, gam.l, gam.m, testfns.spec)
                 for gam in testfns.indices]
        fs = _test_fields([field_sum(atoms, c) for c in testfns.coeffs])
    else:
        fs = [f.slices_at(both) for f in _test_fields(testfns)]
    P, F = lam1.size, len(fs)
    # field k's slices at rows 2 P k to 2 P (k + 1) of one table
    table = _concat(point_grid(np.tile(both, F), g.grid.spectral_set), fs,
                    np.arange(2 * P * F).reshape(F, 2 * P))
    p, i, j = (x.ravel() for x in np.meshgrid(
        np.arange(P), np.arange(F), np.arange(F), indexing="ij"))
    # kernel point r < P F^2 holds the f_i slice at lam1_p and its partner
    # P F^2 + r the f_j slice at lam2_p
    row = np.concatenate([p, P + p])
    f_all = table.take(np.concatenate([2 * P * i + p, 2 * P * j + P + p]))
    vals = _unfolded_sum(f_all, gs.take(row), -spec.beta * both[row],
                         spec.alpha, trunc[0]).reshape(P, F, F)
    # the coefficients pair T g with f, so the products are the conjugates
    # of the kernel's f * conj(T g); |lam1 lam2| is the spectral weight of
    # the two folded slices; cumsum adds the points strictly in order, so
    # the totals do not depend on numpy's pairwise summation
    terms = (wq * np.abs(lam1 * lam2))[:, None, None] * np.conj(vals)
    totals = np.cumsum(terms, axis=0)[-1] if P else terms.sum(axis=0)
    return float(np.max(np.abs(totals)))


# ---------------------------------------------------------------------------
# double-periodization orthonormality criterion


def theta(g: FieldSample, spec: QuasiLatticeSpec, k: int, lam: float,
          t: float, lmax: int = 16) -> complex:
    """Double periodization

        Theta_k(lam, t) = sum_{l' in (1/beta) Z, l'' in Z}
            g(lam - l'', (t - l')/(lam - l'') - k)
            * conj(g(lam - l'', (t - l')/(lam - l'')))

    at one point; see theta_delta_report.  On the unit lattice Z^3 it is
    identically delta_k exactly when the translates are orthonormal.
    """
    rep = theta_delta_report(g, spec, ([lam], [t]), kmax=abs(k), lmax=lmax)
    return complex(rep.values[k][0, 0])


@dataclass(frozen=True)
class ThetaReport:
    lams: np.ndarray
    ts: np.ndarray
    kmax: int
    values: dict                 # k -> (n_lam, n_t) array
    dev_zero: float = field(init=False, default=0.0)
    dev_nonzero: float = field(init=False, default=0.0)

    def __post_init__(self):
        # an empty grid deviates nowhere
        object.__setattr__(self, "dev_zero", float(np.max(
            np.abs(self.values[0] - 1.0), initial=0.0)))
        others = [np.max(np.abs(self.values[k]), initial=0.0)
                  for k in self.values if k != 0]
        object.__setattr__(self, "dev_nonzero",
                           float(max(others, default=0.0)))


def jittered_unit_grid(n: int) -> np.ndarray:
    """n points of (0, 1) offset by the cell-scaled irrational 1/sqrt(2),
    avoiding the measure-zero breakpoint lattice of indicator fields."""
    return (np.arange(n) + 0.5 ** 0.5) / n


def theta_delta_report(g: FieldSample, spec: QuasiLatticeSpec, gridpts,
                       kmax: int = 4, lmax: int = 16) -> ThetaReport:
    """Evaluate Theta_k on a (lam, t) product grid for |k| <= kmax and
    report sup|Theta_0 - 1| and sup_{k != 0} |Theta_k|.

    Support arithmetic keeps the sum finite: only spectral shifts with
    lam - l'' inside the spectral set contribute, and l' = n / beta runs
    over |n| <= lmax.  All slices come from one slices_at call, and only
    the products whose two window values can be nonzero are evaluated
    (_theta_terms); an empty spectral set or point set gives zeros.  The
    literal sum is evaluated at any spec, but it characterizes
    orthonormality only on the unit lattice: the translation in Theta_k is
    k, not alpha k.
    """
    _check_bounds(kmax, lmax)
    lams, ts = (np.asarray(gridpts[0], dtype=float),
                np.asarray(gridpts[1], dtype=float))
    ks = np.arange(-kmax, kmax + 1)
    acc = np.zeros(ks.size * lams.size * ts.size, dtype=complex)
    E = g.grid.spectral_set
    bounds = E.bounds()
    if bounds is not None and lams.size:
        # every spectral shift l'' with lam - l'' in E, lam by lam
        l2_lo = np.floor(lams - bounds[1]).astype(np.int64)
        l2_hi = np.ceil(lams - bounds[0]).astype(np.int64)
        i, l2 = _ranges(l2_lo, l2_hi - l2_lo + 1)
        mu = lams[i] - l2
        if E.contains(0.0) and np.any(mu == 0.0):
            raise DomainError(
                f"periodization hits the singular slice at "
                f"lam - {l2[mu == 0.0][0]} = 0")
        keep = (mu != 0.0) & E.contains(mu)
        i, mu = i[keep], mu[keep]
        for q, k, t, vals in _theta_terms(g.slices_at(mu), mu, ts, kmax,
                                          lmax, spec.beta):
            # acc[k, lam, t], the values added one by one in (q, n) order
            np.add.at(acc, ((k + kmax) * lams.size + i[q]) * ts.size + t,
                      vals)
    acc = acc.reshape(ks.size, lams.size, ts.size)
    values = {int(k): acc[j] for j, k in enumerate(ks)}
    return ThetaReport(lams=lams, ts=ts, kmax=kmax, values=values)


def _theta_terms(table: FieldSample, mu, ts, kmax: int, lmax: int,
                 beta: float):
    """Blocks (q, k, t, value) of the terms w_q(s - k) conj(w_q(s)), s =
    (ts[t] - n / beta) / mu[q], |n| <= lmax, |k| <= kmax, of the slices w_q
    of table whose two factors can be nonzero, in (q, n) order.

    The rows (q, a, b, k) of _translated_pairs pair term a at s with term b
    at s - k.  On their overlap cell t = mu s + n / beta, so a row's n come
    from the extent of the sorted ts, and each (row, n)'s t from a binary
    search, both widened by a relative 1e-9; the half-open masks of
    Window.__call__ then keep the terms.
    """
    lo, hi = table.term_lo, table.term_hi
    order = np.argsort(ts, kind="stable")
    order = order[np.isfinite(ts[order])]   # no other t meets a cell
    fin = ts[order]
    if not fin.size:
        return
    ia, ib, q, k, clo, chi = _translated_pairs(
        table._starts, lo, hi, table._starts, lo, hi, 1.0, kmax)
    clo, chi = np.maximum(lo[ia], clo), np.minimum(hi[ia], chi)
    u0, u1 = np.sort([mu[q] * clo, mu[q] * chi], axis=0)  # in t - n / beta
    slack = 1e-9 * (1.0 + max(-fin[0], fin[-1]) + lmax / beta
                    + np.maximum(-u0, u1))
    n_lo = np.maximum(np.ceil(beta * (fin[0] - u1 - slack)), -lmax)
    n_hi = np.minimum(np.floor(beta * (fin[-1] - u0 + slack)), lmax)
    r, n = _ranges(n_lo, np.maximum(n_hi - n_lo + 1, 0))
    perm = np.argsort(q[r] * (2 * lmax + 1) + n, kind="stable")
    r, n = r[perm], n[perm]
    first = fin.searchsorted(u0[r] + n / beta - slack[r], side="left")
    count = fin.searchsorted(u1[r] + n / beta + slack[r], side="right") - first
    # an entry holds some 150 bytes of scratch: blocks of about 0.3 MB
    for start, stop in _blocks(128 * count):
        j, pos = _ranges(first[start:stop], count[start:stop])
        rr, t = r[start:stop][j], order[pos]
        s = (ts[t] - n[start:stop][j] / beta) / mu[q[rr]]
        sk = s - k[rr]
        a, b = ia[rr], ib[rr]
        live = np.flatnonzero((s >= lo[a]) & (s < hi[a])
                              & (sk >= lo[b]) & (sk < hi[b]))
        rr, t, s, sk, a, b = (x[live] for x in (rr, t, s, sk, a, b))
        yield (q[rr], k[rr].astype(np.int64), t,
               _term_values(table.terms, b, sk)
               * np.conj(_term_values(table.terms, a, s)))


def theta_gram_duality(g: FieldSample, spec: QuasiLatticeSpec,
                       gamma: LatticeIndex, n_quad: int = 64,
                       lmax: int = 16) -> tuple:
    """Return (fourier_coefficient, gram) where the first is the (m, l)
    Fourier coefficient of Theta_k over the unit square by midpoint
    quadrature and the second is the Gram entry it must reproduce.

    The duality is derived for the unit lattice Z^3; at other (alpha,
    beta) Theta_k translates by k, not alpha k, so this raises
    NotApplicableError."""
    if spec != SPEC_UNIT:
        raise NotApplicableError(
            f"theta duality is not applicable off the unit lattice: "
            f"(alpha, beta) = ({spec.alpha}, {spec.beta})")
    if n_quad < 1:
        raise DomainError("n_quad must be at least 1")
    pts = jittered_unit_grid(n_quad)
    rep = theta_delta_report(g, spec, (pts, pts), kmax=abs(gamma.k),
                             lmax=lmax)
    vals = rep.values[gamma.k]
    phase_l = np.exp(1j * _TWO_PI * gamma.m * pts)[:, None]
    phase_t = np.exp(-1j * _TWO_PI * gamma.l * pts)[None, :]
    coeff = complex(np.sum(vals * phase_l * phase_t) / n_quad ** 2)
    return coeff, gram_entry(g, gamma, spec)
