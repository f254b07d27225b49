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
from .grids import (FieldSample, SpectralSet, _concat, _node_table,
                    field_inner, field_sum, point_grid)
from .group import LatticeIndex, QuasiLatticeSpec, _check_bounds
from .testfields import AtomSuite
from .windows import (_TWO_PI, _ranges, _translated_pairs, affine_terms,
                      paired_inner_sweep, product_conj_terms)

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

    def as_dict(self):
        return {
            "passed": self.passed,
            "tol": self.tol,
            "worst_residual": self.worst_residual,
            "worst_norm_error": self.worst_norm_error,
            "lattice_integer": self.lattice_integer,
            "slices": [{"lam": s.lam, "painless": s.painless,
                        "empirical": s.empirical,
                        "norm_error": s.norm.difference,
                        "density_admissible": s.norm.density_admissible}
                       for s in self.slices],
        }


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
# lattice coefficient sweeps (shared by Parseval residual and sampling)


def _m_phase(grid, mmax: int) -> np.ndarray:
    """w_n e^{-2 pi i lam_n m} for |m| <= mmax, shape (N, M): the central
    phase sum that turns a per-node table into lattice coefficients."""
    ms = np.arange(-mmax, mmax + 1)
    return grid.weights[:, None] * np.exp(
        -1j * _TWO_PI * np.outer(grid.nodes, ms))


def lattice_coefficients(fields, g: FieldSample, spec: QuasiLatticeSpec,
                         kmax: int, lmax: int, mmax: int) -> np.ndarray:
    """Coefficients <f, T_{k,l,m} g> for every field f and every index in
    the truncation box, as an array of shape (n_fields, K, L, M).

    Each field's per-node table (_node_table) holds the translation and
    modulation sweep; the phase sum over m is a dense matrix product per
    translation with a live pair.
    """
    _check_bounds(kmax, lmax, mmax)
    wphase = _m_phase(g.grid, mmax)
    out = np.zeros((len(fields), 2 * kmax + 1, 2 * lmax + 1, 2 * mmax + 1),
                   dtype=complex)
    for fi, f in enumerate(fields):
        live_k, H = _node_table(f, g, spec, kmax, lmax)
        for j, ki in enumerate(live_k):
            out[fi, ki] = H[j].T @ wphase
    return out


def _table_rows(table, kmax: int, lmax: int, k, l) -> np.ndarray:
    """Rows H_n(k, l) of a _node_table(..., kmax, lmax) result for index
    arrays k, l of shape (P,), as a (P, N) array; translations without a
    live pair give zero rows."""
    live_k, H = table
    out = np.zeros((k.size, H.shape[1]), dtype=complex)
    pos = np.searchsorted(live_k, k + kmax)
    hit = pos < live_k.size
    hit[hit] = live_k[pos[hit]] == k[hit] + kmax
    out[hit] = H[pos[hit], :, l[hit] + lmax]
    return out


def _suite_coefficients(suite: AtomSuite, g: FieldSample,
                        spec: QuasiLatticeSpec, kmax: int, lmax: int,
                        mmax: int):
    """Lattice coefficients (n_functions, K, L, M) and squared norms of the
    test fields of an AtomSuite whose atoms T_{gamma_j} b are translates
    under spec, without building the fields.

    The group law reduces every pairing to one relative-offset table of the
    base b: with H = _node_table(b, g) over the box widened by the atoms'
    largest |k| and |l|,

        <T_{k_j,l_j,m_j} b, T_{k,l,m} g> = Y_{k_j}(k - k_j, l - l_j, m - m_j),
        Y_kappa(k, l, m) = sum_n w_n e^{-2 pi i lam_n (m - alpha beta kappa l)}
                           H_n(k, l),

    where the alpha beta kappa l part is the central cocycle phase.  So all
    atoms with the same k_j share one (l, m) table per translation.  The
    Gram matrix G_ij = <T_{gamma_i} b, T_{gamma_j} b> comes the same way
    from a b-vs-b table (the first one when b is g and it covers the
    offsets), and ||f_s||^2 = c_s^T G conj(c_s).
    """
    b, c = suite.base, suite.coeffs
    if not suite.indices or not c.shape[0]:
        raise DomainError("need at least one test field")
    kj, lj, mj = np.array([gam.astuple() for gam in suite.indices]).T
    dk, dl, dm = (int(np.abs(x).max()) for x in (kj, lj, mj))
    lam = g.grid.nodes
    ab = spec.alpha * spec.beta
    L, M = 2 * lmax + 1, 2 * mmax + 1
    table = _node_table(b, g, spec, kmax + dk, lmax + dl)
    live_k, H = table
    wphase = _m_phase(g.grid, mmax + dm)
    out = np.zeros((c.shape[0], 2 * kmax + 1, L, M), dtype=complex)
    for kappa in np.unique(kj):
        cocycle = np.exp(1j * _TWO_PI * ab * kappa * np.outer(
            lam, np.arange(-(lmax + dl), lmax + dl + 1)))
        atoms = np.flatnonzero(kj == kappa)
        for Hk, k in zip(H, live_k - (kmax + dk) + kappa):
            if abs(k) > kmax:
                continue
            Y = (Hk * cocycle).T @ wphase
            for a in atoms:
                l0, m0 = dl - lj[a], dm - mj[a]
                out[:, k + kmax] += (c[:, a, None, None]
                                     * Y[None, l0:l0 + L, m0:m0 + M])
    # G_ij from the offsets k_j - k_i, l_j - l_i, m_j - m_i, with the
    # cocycle of gamma_i
    i, j = (x.ravel() for x in np.meshgrid(np.arange(kj.size),
                                            np.arange(kj.size),
                                            indexing="ij"))
    if b is g and kmax >= dk and lmax >= dl:
        bb, reach = table, (kmax + dk, lmax + dl)
    else:
        bb, reach = _node_table(b, b, spec, 2 * dk, 2 * dl), (2 * dk, 2 * dl)
    rows = _table_rows(bb, *reach, kj[j] - kj[i], lj[j] - lj[i])
    phase = np.exp(-1j * _TWO_PI * np.outer(
        mj[j] - mj[i] - ab * kj[i] * (lj[j] - lj[i]), lam))
    gram = ((rows * phase) @ g.grid.weights).reshape(kj.size, kj.size)
    norms = np.einsum("si,ij,sj->s", c, gram, np.conj(c)).real
    return out, np.maximum(norms, 0.0).tolist()


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
    suite whose atoms are translates under spec is evaluated from one
    relative-offset table of its base against g (_suite_coefficients),
    without building its fields.  For a Parseval system and test fields
    concentrated in the box the residual is bounded by quadrature noise
    plus the energy the box misses.
    """
    _check_bounds(kmax, lmax, mmax)
    if isinstance(testfns, AtomSuite) and testfns.spec == spec:
        coeffs, norms = _suite_coefficients(testfns, g, spec,
                                            kmax, lmax, mmax)
    else:
        fields = _test_fields(testfns)
        coeffs = lattice_coefficients(fields, g, spec, kmax, lmax, mmax)
        norms = [f.norm2() for f in fields]
    worst = 0.0
    for fi, n2 in enumerate(norms):
        if n2 == 0.0:
            raise DomainError("test field has zero norm")
        total = float(np.sum(np.abs(coeffs[fi]) ** 2))
        worst = max(worst, abs(total - n2) / n2)
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
    _, *prod = product_conj_terms(
        f.term_lo[ia], f.term_hi[ia], f.term_mid()[ia], f.term_coef[ia],
        f.term_freq[ia], lo, hi, 0.5 * (lo + hi),
        g.term_coef[ib] * phase[:, None], g.term_freq[ib])
    terms = affine_terms(*prod, c[seg // S])
    starts = np.searchsorted(seg, np.arange(c.size * S + 1))
    ia, ib, seg, n, lo2, hi2 = _translated_pairs(
        starts[:P * S + 1], terms[0], terms[1], starts[P * S:], terms[0],
        terms[1], 1.0, math.inf)
    lo1, hi1, coef1, freq1 = (x[ia] for x in terms)
    freq2 = terms[3][ib]
    coef2 = terms[2][ib] * np.exp(-1j * _TWO_PI * freq2 * n)[:, None]
    vals = paired_inner_sweep(lo1, hi1, 0.5 * (lo1 + hi1), coef1, freq1,
                              lo2, hi2, 0.5 * (lo2 + hi2), coef2, freq2,
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


def orthogonality_residual(g: FieldSample, f: FieldSample, lam: float,
                           kmax: int = 8,
                           spec: QuasiLatticeSpec = SPEC_UNIT) -> complex:
    """sum_{k,l} <f(lam-1), (T_{k,l,0} g)(lam-1)> conj(<f(lam), (T_{k,l,0} g)(lam)>).

    The modulation sum is evaluated in closed form by one _unfolded_sum
    call that pairs the slices at lam - 1 and at lam: the l-sum over all of
    Z equals a finite sum of overlap integrals over integer shifts.  The
    k-sum is exactly finite once kmax covers the support spread.
    """
    if not 0 < lam < 1:
        raise DomainError("lam must lie in (0, 1)")
    _check_bounds(kmax)
    mus = [lam - 1.0, lam]
    return complex(_unfolded_sum(f.slices_at(mus), g.slices_at(mus),
                                 spec.beta * np.array(mus), spec.alpha,
                                 kmax)[0])


# ---------------------------------------------------------------------------
# coefficient-operator cross-orthogonality


def _fold_map(E: SpectralSet):
    """For a set translation-congruent into a unit interval, the pieces of
    its image in [0, 1) as (x_lo, x_hi, n) with lam = x + n."""
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
    return pieces


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
    fold1 = _fold_map(Ej)
    fold2 = _fold_map(Ej2)
    # overlap cells of the two folded images, split at every breakpoint
    breaks = sorted({p for lo, hi, _ in fold1 for p in (lo, hi)}
                    | {p for lo, hi, _ in fold2 for p in (lo, hi)})
    cells = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (a + b)
        n1 = next((n for lo, hi, n in fold1 if lo <= mid <= hi), None)
        n2 = next((n for lo, hi, n in fold2 if lo <= mid <= hi), None)
        if n1 is not None and n2 is not None and b > a:
            cells.append((a, b, n1, n2))
    xg, wg = np.polynomial.legendre.leggauss(quad_order)
    points = []
    for a, b, n1, n2 in cells:
        edges = np.linspace(a, b, quad_cells + 1)
        for ca, cb in zip(edges[:-1], edges[1:]):
            x = 0.5 * (cb - ca) * xg + 0.5 * (ca + cb)
            points.extend(zip(0.5 * (cb - ca) * wg, x + n1, x + n2))
    wq, lam1, lam2 = np.array(points, dtype=float).reshape(-1, 3).T
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
    p, i, j = (x.ravel() for x in np.meshgrid(
        np.arange(P), np.arange(F), np.arange(F), indexing="ij"))
    # kernel point r < P F^2 holds the f_i slice at lam1_p and its partner
    # P F^2 + r the f_j slice at lam2_p
    row, field_of = np.concatenate([p, P + p]), np.concatenate([i, j])
    picks = [np.flatnonzero(field_of == k) for k in range(F)]
    f_all = _concat(point_grid(both[row], g.grid.spectral_set),
                    [fk.take(row[pk]) for fk, pk in zip(fs, picks)], picks)
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
        object.__setattr__(self, "dev_zero",
                           float(np.max(np.abs(self.values[0] - 1.0))))
        others = [np.max(np.abs(self.values[k]))
                  for k in self.values if k != 0]
        object.__setattr__(self, "dev_nonzero",
                           float(max(others, default=0.0)))

    def as_dict(self):
        return {"kmax": self.kmax, "n_lam": int(self.lams.size),
                "n_t": int(self.ts.size), "dev_zero": self.dev_zero,
                "dev_nonzero": self.dev_nonzero}


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
    over |n| <= lmax.  One window call per (lam, l'') covers every k, every
    n and every t; an empty spectral set gives zeros.  The literal sum is
    evaluated at any spec, but it characterizes orthonormality only on
    the unit lattice: the translation in Theta_k is k, not alpha k.
    """
    _check_bounds(kmax, lmax)
    lams, ts = (np.asarray(gridpts[0], dtype=float),
                np.asarray(gridpts[1], dtype=float))
    ks = np.arange(-kmax, kmax + 1)
    acc = np.zeros((ks.size, lams.size, ts.size), dtype=complex)
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
        slices = g.slices_at(mu)
        # t - l' for every time shift, shape (N, T)
        shifted = (ts[None, :]
                   - np.arange(-lmax, lmax + 1)[:, None] / spec.beta)
        # one window call per point bounds the scratch at (K, N, T)
        for q in range(mu.size):
            w = slices.slice(q)
            if w.n_terms == 0:
                continue
            vals = w(shifted / mu[q] - ks[:, None, None])     # (K, N, T)
            acc[:, i[q]] += np.sum(vals * np.conj(vals[kmax]), axis=1)
    values = {int(k): acc[j] for j, k in enumerate(ks)}
    return ThetaReport(lams=lams, ts=ts, kmax=kmax, values=values)


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
    pts = (np.arange(n_quad) + 0.5 ** 0.5) / n_quad
    rep = theta_delta_report(g, spec, (pts, pts), kmax=abs(gamma.k),
                             lmax=lmax)
    vals = rep.values[gamma.k]
    phase_l = np.exp(1j * _TWO_PI * gamma.m * pts)[:, None]
    phase_t = np.exp(-1j * _TWO_PI * gamma.l * pts)[None, :]
    coeff = complex(np.sum(vals * phase_l * phase_t) / n_quad ** 2)
    return coeff, gram_entry(g, gamma, spec)
