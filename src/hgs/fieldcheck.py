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
from .gabor import (NormConditionReport, frame_bounds_empirical,
                    norm_condition_check, painless_residual)
from .grids import FieldSample, SpectralSet, field_inner
from .group import LatticeIndex, QuasiLatticeSpec
from .windows import paired_inner_sweep

_TWO_PI = 2.0 * math.pi

SPEC_UNIT = QuasiLatticeSpec(1.0, 1.0)


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
    norm_tol: float
    lattice_integer: bool

    @property
    def worst_residual(self):
        return max((s.residual() for s in self.slices), default=0.0)

    @property
    def worst_norm_error(self):
        return max((abs(s.norm.difference) for s in self.slices), default=0.0)

    @property
    def passed(self):
        return all(s.residual() <= self.tol and s.norm.within(self.norm_tol)
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
                        tol: float = 1e-12, norm_tol: float = 1e-12,
                        empirical_kw: dict | None = None) -> GaborFieldReport:
    """Scale each slice by |lam|^{1/2} and verify the per-slice Parseval
    property (painless criterion where applicable, empirical frame bounds
    otherwise) plus the norm identity, then aggregate."""
    empirical_kw = empirical_kw or {}
    checks = []
    for i, lam in enumerate(g.grid.nodes):
        w = g.slice(i)
        scaled = w.scaled(math.sqrt(abs(lam)))
        painless = empirical = None
        try:
            painless = painless_residual(scaled, spec, lam)
        except NotApplicableError:
            empirical = frame_bounds_empirical(scaled, spec, lam,
                                               **empirical_kw)
        checks.append(SliceCheck(lam=float(lam), painless=painless,
                                 empirical=empirical,
                                 norm=norm_condition_check(w, spec, lam)))
    return GaborFieldReport(slices=tuple(checks), tol=tol, norm_tol=norm_tol,
                            lattice_integer=spec.is_integer)


# ---------------------------------------------------------------------------
# lattice coefficient sweeps (shared by Parseval residual and sampling)


def lattice_coefficients(fields, g: FieldSample, spec: QuasiLatticeSpec,
                         kmax: int, lmax: int, mmax: int,
                         max_block: int = 2_000_000) -> np.ndarray:
    """Coefficients <f, T_{k,l,m} g> for every field f and every index in
    the truncation box, as an array of shape (n_fields, K, L, M).

    The modulation sweep shares the overlap geometry across all l, and the
    phase sum over m is a dense matrix product, so the cost is dominated by
    one closed-form moment evaluation per (pair, l).
    """
    grid = g.grid
    for f in fields:
        if not grid.same_as(f.grid):
            raise DomainError("test field lives on a different grid")
    ls = np.arange(-lmax, lmax + 1)
    ms = np.arange(-mmax, mmax + 1)
    ks = np.arange(-kmax, kmax + 1)
    # <f, T g> = sum_i w_i e^{-2 pi i lam_i m} <f_i, (mod shift g)_i>
    phase = np.exp(-1j * _TWO_PI * np.outer(grid.nodes, ms))  # (N, M)
    wphase = grid.weights[:, None] * phase
    out = np.zeros((len(fields), ks.size, ls.size, ms.size), dtype=complex)
    g_mid = g.term_mid()
    joins = [_cross_join_tables(f, g) for f in fields]
    mids = [f.term_mid() for f in fields]
    for ki, k in enumerate(ks):
        shift = spec.alpha * float(k)
        g_lo = g.term_lo + shift
        g_hi = g.term_hi + shift
        g_coef = g.term_coef * np.exp(
            -1j * _TWO_PI * g.term_freq * shift)[:, None]
        for fi, f in enumerate(fields):
            ia, ib, node = joins[fi]
            if ia.size == 0:
                continue
            C = np.zeros((grid.n, ls.size), dtype=complex)
            step = max(1, max_block // ls.size)
            f_mid = mids[fi]
            for s in range(0, ia.size, step):
                sl = slice(s, s + step)
                iaa, ibb, nd = ia[sl], ib[sl], node[sl]
                df = (-spec.beta * grid.nodes[nd])[:, None] * ls[None, :]
                vals = paired_inner_sweep(
                    f.term_lo[iaa], f.term_hi[iaa], f_mid[iaa],
                    f.term_coef[iaa], f.term_freq[iaa],
                    g_lo[ibb], g_hi[ibb], g_mid[ibb], g_coef[ibb],
                    g.term_freq[ibb], df)
                # pair order is node-major, so segments are contiguous
                uniq, seg = np.unique(nd, return_index=True)
                C[uniq] += np.add.reduceat(vals, seg, axis=0)
            out[fi, ki] = C.T @ wphase
    return out


def _cross_join_tables(f, g):
    from .grids import _cross_join
    return _cross_join(f._starts, g._starts)


def parseval_residual(g: FieldSample, spec: QuasiLatticeSpec, testfns,
                      kmax: int = 4, lmax: int = 32, mmax: int = 16) -> float:
    """max over test fields f of |sum_box |<f, T_gamma g>|^2 - ||f||^2| / ||f||^2.

    testfns is a nonempty list of fields on g's grid, or an AtomSuite whose
    shared atom set lets all functions reuse one coefficient sweep.  For a
    Parseval system and test fields concentrated in the box the residual is
    bounded by quadrature noise plus the energy the box misses.
    """
    if hasattr(testfns, "atoms") and hasattr(testfns, "coeffs"):
        atom_coeffs = lattice_coefficients(testfns.atoms(), g, spec,
                                           kmax, lmax, mmax)
        coeffs = np.einsum("sj,jklm->sklm", testfns.coeffs, atom_coeffs)
        fields = testfns.fields()
    else:
        fields = list(testfns)
        if not fields:
            raise DomainError("need at least one test field")
        coeffs = lattice_coefficients(fields, g, spec, kmax, lmax, mmax)
    if not fields:
        raise DomainError("need at least one test field")
    worst = 0.0
    for fi, f in enumerate(fields):
        n2 = f.norm2()
        if n2 == 0.0:
            raise DomainError("test field has zero norm")
        total = float(np.sum(np.abs(coeffs[fi]) ** 2))
        worst = max(worst, abs(total - n2) / n2)
    return worst


# ---------------------------------------------------------------------------
# two-slice orthogonality condition


def orthogonality_residual(g: FieldSample, f: FieldSample, lam: float,
                           kmax: int = 8, lmax: int = 64,
                           spec: QuasiLatticeSpec = SPEC_UNIT,
                           method: str = "exact") -> complex:
    """sum_{k,l} <f(lam-1), (T_{k,l,0} g)(lam-1)> conj(<f(lam), (T_{k,l,0} g)(lam)>).

    method="exact" evaluates the modulation sum in closed form: after the
    unfolding substitution the two coefficient sequences are integer-
    frequency Fourier coefficients, so the l-sum over all of Z equals a
    finite sum of overlap integrals over integer shifts.  The k-sum is
    exactly finite once kmax covers the support spread.  method="truncated"
    performs the literal double sum over |l| <= lmax for convergence
    studies.
    """
    if not 0 < lam <= 1:
        raise DomainError("lam must lie in (0, 1]")
    c1 = (lam - 1.0) * spec.beta
    c2 = lam * spec.beta
    if c1 == 0.0:
        raise DomainError("degenerate unfolding at lam = 1")
    f_prev = f.slice_at(lam - 1.0)
    f_cur = f.slice_at(lam)
    g_prev = g.slice_at(lam - 1.0)
    g_cur = g.slice_at(lam)
    total = 0.0 + 0.0j
    for k in range(-kmax, kmax + 1):
        shift = spec.alpha * float(k)
        gp = g_prev.translate(shift)
        gc = g_cur.translate(shift)
        if method == "truncated":
            ls = np.arange(-lmax, lmax + 1)
            a = f_prev.inner_freq_sweep(gp, -c1 * ls)
            b = f_cur.inner_freq_sweep(gc, -c2 * ls)
            total += complex(np.sum(a * np.conj(b)))
            continue
        if method != "exact":
            raise DomainError(f"unknown method {method!r}")
        p1 = f_prev.product_conj(gp)
        p2 = f_cur.product_conj(gc)
        if p1.n_terms == 0 or p2.n_terms == 0:
            continue
        # unfold: Q(s) = P(s / c) so the coefficient at frequency c*l
        # becomes the integer-frequency coefficient Q^(l) / |c|
        q1 = p1.affine_substitute(c1)
        q2 = p2.affine_substitute(c2)
        s1 = q1.support()
        s2 = q2.support()
        n_lo = int(math.floor(s1[0] - s2[1])) - 1
        n_hi = int(math.ceil(s1[1] - s2[0])) + 1
        for n in range(n_lo, n_hi + 1):
            total += q1.inner(q2.translate(float(n))) / abs(c1 * c2)
    return total


# ---------------------------------------------------------------------------
# coefficient-operator cross-orthogonality


def _fold_map(E: SpectralSet):
    """For a set translation-congruent into a unit interval, the pieces of
    its image in [0, 1) as (x_lo, x_hi, n) with lam = x + n."""
    pieces = []
    for a, b in E.intervals:
        n0 = int(math.floor(a))
        n1 = int(math.floor(b)) + 1
        for n in range(n0, n1 + 1):
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
    if Ej2.intervals and Ej.intervals and Ej.intersect(Ej2).intervals:
        raise DomainError("spectral pieces overlap")
    fields = list(testfns.fields()) if hasattr(testfns, "fields") \
        else list(testfns)
    if not fields:
        raise DomainError("need at least one test field")
    if not Ej.intervals or not Ej2.intervals:
        return 0.0
    kmax = trunc[0]
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
    if not cells:
        return 0.0
    xg, wg = np.polynomial.legendre.leggauss(quad_order)
    ws, lam1s, lam2s = [], [], []
    for a, b, n1, n2 in cells:
        edges = np.linspace(a, b, max(1, quad_cells) + 1)
        for ca, cb in zip(edges[:-1], edges[1:]):
            x = 0.5 * (cb - ca) * xg + 0.5 * (ca + cb)
            ws.append(0.5 * (cb - ca) * wg)
            lam1s.append(x + n1)
            lam2s.append(x + n2)
    ws = np.concatenate(ws)
    lam1s = np.concatenate(lam1s)
    lam2s = np.concatenate(lam2s)
    worst = 0.0
    for f in fields:
        for f2 in fields:
            total = 0.0 + 0.0j
            for wq, lam1, lam2 in zip(ws, lam1s, lam2s):
                c1 = -spec.beta * lam1
                c2 = -spec.beta * lam2
                fw1 = f.slice_at(lam1)
                fw2 = f2.slice_at(lam2)
                gw1 = g.slice_at(lam1)
                gw2 = g.slice_at(lam2)
                acc = 0.0 + 0.0j
                for k in range(-kmax, kmax + 1):
                    shift = spec.alpha * float(k)
                    r1 = gw1.translate(shift).product_conj(fw1)
                    r2 = gw2.translate(shift).product_conj(fw2)
                    if r1.n_terms == 0 or r2.n_terms == 0:
                        continue
                    q1 = r1.affine_substitute(c1)
                    q2 = r2.affine_substitute(c2)
                    s1 = q1.support()
                    s2 = q2.support()
                    n_lo = int(math.floor(s1[0] - s2[1])) - 1
                    n_hi = int(math.ceil(s1[1] - s2[0])) + 1
                    for n in range(n_lo, n_hi + 1):
                        acc += q1.inner(q2.translate(float(n)))
                total += wq * acc * abs(lam1 * lam2) / abs(c1 * c2)
            worst = max(worst, abs(total))
    return worst


# ---------------------------------------------------------------------------
# double-periodization orthonormality criterion


def theta(g: FieldSample, spec: QuasiLatticeSpec, k: int, lam: float,
          t: float, lmax: int = 16) -> complex:
    """Double periodization

        Theta_k(lam, t) = sum_{l' in (1/beta) Z, l'' in Z}
            g(lam - l'', (t - l')/(lam - l'') - k)
            * conj(g(lam - l'', (t - l')/(lam - l'')))

    at one point; see theta_delta_report.  Identically delta_k exactly when
    the unit-density translates are orthonormal.
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
    n and every t; an empty spectral set gives zeros.
    """
    lams, ts = (np.asarray(gridpts[0], dtype=float),
                np.asarray(gridpts[1], dtype=float))
    ks = np.arange(-kmax, kmax + 1)
    acc = np.zeros((ks.size, lams.size, ts.size), dtype=complex)
    E = g.grid.spectral_set
    bounds = E.bounds()
    # t - l' for every time shift, shape (N, T)
    shifted = ts[None, :] - np.arange(-lmax, lmax + 1)[:, None] / spec.beta
    for i, lam in enumerate(lams if bounds is not None else ()):
        l2_lo = int(math.floor(lam - bounds[1]))
        l2_hi = int(math.ceil(lam - bounds[0]))
        for l2 in range(l2_lo, l2_hi + 1):
            mu = lam - l2
            if mu == 0.0:
                if E.contains(0.0):
                    raise DomainError(
                        f"periodization hits the singular slice at "
                        f"lam - {l2} = 0")
                continue
            if not E.contains(mu):
                continue
            w = g.slice_at(mu)
            if w.n_terms == 0:
                continue
            vals = w(shifted / mu - ks[:, None, None])     # (K, N, T)
            acc[:, i] += np.sum(vals * np.conj(vals[kmax]), axis=1)
    values = {int(k): acc[j] for j, k in enumerate(ks)}
    return ThetaReport(lams=lams, ts=ts, kmax=kmax, values=values)


def theta_gram_duality(g: FieldSample, spec: QuasiLatticeSpec,
                       gamma: LatticeIndex, n_quad: int = 64,
                       lmax: int = 16) -> tuple:
    """Return (fourier_coefficient, gram) where the first is the (m, l)
    Fourier coefficient of Theta_k over the unit square by midpoint
    quadrature and the second is the Gram entry it must reproduce."""
    pts = (np.arange(n_quad) + 0.5 ** 0.5) / n_quad
    rep = theta_delta_report(g, spec, (pts, pts), kmax=abs(gamma.k),
                             lmax=lmax)
    vals = rep.values[gamma.k]
    phase_l = np.exp(1j * _TWO_PI * gamma.m * pts)[:, None]
    phase_t = np.exp(-1j * _TWO_PI * gamma.l * pts)[None, :]
    coeff = complex(np.sum(vals * phase_l * phase_t) / n_quad ** 2)
    return coeff, gram_entry(g, gamma, spec)
