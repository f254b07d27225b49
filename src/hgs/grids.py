"""Spectral sets, the weighted spectral quadrature, discretized fields,
inner products, and field serialization.

The measure on the spectral axis is |lambda| d(lambda).  A field sample
holds one window per quadrature node, stored in a flat term table so that
inner products and Heisenberg translates run vectorized across nodes.
Slices at arbitrary spectral points come as the same kind of table on an
ad-hoc point grid, so off-grid evaluation is vectorized across points.
Node membership of spectral endpoints follows half-open cells; the sets
are only ever used up to measure zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (DomainError, EmptyGridError, FieldFormatError,
                     GridMismatchError, WindowStructureError)
from .group import QuasiLatticeSpec
# re-exported as grids._cross_join, the name perfbench traces the squared
# norms' class-pair expansion under
from .windows import (_TWO_PI, MAX_DEGREE, Window, _cross_join,  # noqa: F401
                      _blocks, _ranges, _segment_inner, _segment_norm2)


# ---------------------------------------------------------------------------
# spectral sets


@dataclass(frozen=True)
class SpectralSet:
    """Finite union of disjoint bounded intervals on the spectral axis."""

    intervals: tuple

    def __init__(self, intervals):
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise DomainError(f"invalid interval ({a}, {b})")
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise DomainError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(ivs))

    @classmethod
    def parse(cls, text):
        """Parse 'a,b[;a,b...]' as used by the command line."""
        pieces = []
        for chunk in text.split(";"):
            try:
                a, b = (float(p) for p in chunk.split(","))
            except ValueError:
                raise DomainError(f"bad interval spec {chunk!r}") from None
            pieces.append((a, b))
        return cls(pieces)

    def measure(self):
        """Exact weighted measure: sum of int_a^b |x| dx in closed form."""
        total = 0.0
        for a, b in self.intervals:
            total += 0.5 * (b * abs(b) - a * abs(a))
        return total

    def bounds(self):
        if not self.intervals:
            return None
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, x):
        """Membership of x in the closed intervals; elementwise for arrays."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (a <= x) & (x <= b)
        return out if out.ndim else bool(out)

    def cut(self, lambda_min):
        """Pieces of each interval with the band (-lambda_min, lambda_min)
        removed, keyed by the index of the parent interval."""
        pieces = []
        for idx, (a, b) in enumerate(self.intervals):
            for lo, hi in ((a, min(b, -lambda_min)), (max(a, lambda_min), b)):
                if hi > lo:
                    pieces.append((idx, lo, hi))
        return pieces

    def intersect(self, other):
        out = []
        for a1, b1 in self.intervals:
            for a2, b2 in other.intervals:
                lo, hi = max(a1, a2), min(b1, b2)
                if hi > lo:
                    out.append((lo, hi))
        return SpectralSet(out)


def plancherel_measure(E: SpectralSet) -> float:
    """Weighted measure of the spectral set, exact piecewise-quadratic form."""
    return E.measure()


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class LambdaGrid:
    """Quadrature rule for the weighted spectral integral.

    Nodes never sit at 0 or at interval endpoints; weights carry the
    |lambda| density, so sum(weights) approximates the weighted measure of
    the spectral set outside the excluded band (-lambda_min, lambda_min).
    """

    nodes: np.ndarray
    weights: np.ndarray
    lambda_min: float
    spectral_set: SpectralSet
    rule: str = "midpoint"

    @property
    def n(self):
        return self.nodes.size

    def mass(self):
        return float(self.weights.sum())

    def same_as(self, other):
        return (self.n == other.n
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.weights, other.weights))


def _allocate(pieces, n_per_interval):
    """Largest-remainder split of each parent interval's node budget over
    its pieces, at most two (SpectralSet.cut): each takes the floor of its
    share, at least one; the largest remainders (first on ties) add one."""
    by_parent = {}
    for idx, lo, hi in pieces:
        by_parent.setdefault(idx, []).append((lo, hi))
    alloc = []
    for idx in sorted(by_parent):
        segs = by_parent[idx]
        total = sum(hi - lo for lo, hi in segs)
        raw = [n_per_interval * (hi - lo) / total for lo, hi in segs]
        counts = [max(1, int(r)) for r in raw]
        by_rem = sorted(range(len(raw)), key=lambda j: counts[j] - raw[j])
        for j in by_rem[:max(n_per_interval - sum(counts), 0)]:
            counts[j] += 1
        alloc.extend((lo, hi, c) for (lo, hi), c in zip(segs, counts))
    return alloc


def _layout(E: SpectralSet, n_per_interval: int, lambda_min: float,
            rule: str, piece_rule) -> LambdaGrid:
    """Cut the band (-lambda_min, lambda_min) out of E, split each
    interval's node budget over its surviving pieces, place nodes and
    weights on every piece with piece_rule(lo, hi, count), and sort."""
    if not lambda_min > 0:
        raise DomainError("lambda_min must be positive")
    pieces = E.cut(lambda_min)
    if not pieces:
        raise EmptyGridError(
            f"spectral set lies inside the excluded band (+-{lambda_min})")
    nodes, weights = zip(*(piece_rule(lo, hi, count) for lo, hi, count
                           in _allocate(pieces, n_per_interval)))
    nodes = np.concatenate(nodes)
    order = np.argsort(nodes)
    return LambdaGrid(nodes[order], np.concatenate(weights)[order],
                      lambda_min, E, rule)


def lambda_grid(E: SpectralSet, n_per_interval: int,
                lambda_min: float = 0.05) -> LambdaGrid:
    """Composite midpoint rule on E with the band around 0 excluded.

    Each interval of E receives n_per_interval nodes, split proportionally
    among the parts that survive the cut.  Weights are |node| * cell width.
    """
    if n_per_interval < 1:
        raise DomainError("need at least one node per interval")

    def midpoint(lo, hi, count):
        h = (hi - lo) / count
        x = lo + h * (np.arange(count) + 0.5)
        return x, np.abs(x) * h

    return _layout(E, n_per_interval, lambda_min, "midpoint", midpoint)


def gauss_lambda_grid(E: SpectralSet, n_per_interval: int,
                      lambda_min: float = 0.05, order: int = 8) -> LambdaGrid:
    """Composite Gauss-Legendre rule with the same layout as lambda_grid.

    Plumbing for high-accuracy oracles; nodes are interior, so the
    no-node-at-breakpoints property of the midpoint rule is preserved.
    """
    if n_per_interval < order:
        raise DomainError("need at least `order` nodes per interval")
    xg, wg = np.polynomial.legendre.leggauss(order)

    def gauss(lo, hi, count):
        edges = np.linspace(lo, hi, max(1, count // order) + 1)
        a, b = edges[:-1, None], edges[1:, None]
        x = 0.5 * (b - a) * xg + 0.5 * (a + b)
        return x.ravel(), (np.abs(x) * 0.5 * (b - a) * wg).ravel()

    return _layout(E, n_per_interval, lambda_min, f"gauss{order}", gauss)


def _gauss_panel_width(E: SpectralSet, n_per_interval: int,
                       lambda_min: float = 0.05, order: int = 8) -> float:
    """Width of the widest panel of gauss_lambda_grid with these
    arguments: each piece of E.cut(lambda_min) holds count // order
    panels of equal width, at least one."""
    return max((hi - lo) / max(1, count // order) for lo, hi, count
               in _allocate(E.cut(lambda_min), n_per_interval))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid for tabulated slices."""

    offset: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0 and self.count > 0):
            raise DomainError("need step > 0 and count > 0")

    def times(self):
        return self.offset + self.step * np.arange(self.count)


def point_grid(lams, spectral_set: SpectralSet) -> LambdaGrid:
    """Ad-hoc grid with one node per spectral point and unit weights: the
    grid of a term table that holds slices at arbitrary points, which may
    repeat and need not be sorted."""
    lams = np.asarray(lams, dtype=float)
    return LambdaGrid(lams, np.ones(lams.size), 0.0, spectral_set, "points")


# ---------------------------------------------------------------------------
# field samples

_NODE_TOL = 1e-12  # slice_at takes a node's slice within this distance


def _node_hits(nodes, lams):
    """Index of the first node within _NODE_TOL of each lam, or -1."""
    out = np.full(lams.size, -1, dtype=np.int64)
    for s, e in _blocks(np.full(lams.size, nodes.size)):
        near = np.abs(nodes[None, :] - lams[s:e, None]) <= _NODE_TOL
        out[s:e] = np.where(near.any(axis=1), near.argmax(axis=1), -1)
    return out


def _then(profile, transform, *args):
    """The array profile whose tables are profile's rewritten by
    transform(table, *args), or None without a profile."""
    if profile is None:
        return None
    return lambda lams: transform(profile(lams), *args)


class FieldSample:
    """Discretized element of the weighted L2 space over E x R.

    One window per spectral node, kept in a flat term table segmented by
    node.  Instances are immutable; transforms return new objects.  An
    optional analytic profile lets verification code evaluate slices off
    the grid exactly: it maps an array of spectral points to their slices
    as one term table, a FieldSample on point_grid(points) whose node k is
    the slice at points[k].  The transforms rewrite that table with the
    same code as the on-grid terms.

    A field made by AtomSuite.fields also carries its lattice expansion:
    expansion is then the one-row AtomSuite whose field it is, so sampling
    can pair it with its base by the group law instead of sweeping its
    terms.  Every other field, a transform of one included, has expansion
    None.

    One private memo slot, _table_memo, keeps the field's twisted Gram
    tables against its own translates for one spec (_self_table), at the
    elementwise largest reach asked for, until the field is freed; each
    read is a view at its own reach.  Every new field, a transform
    included, starts without them.
    """

    def __init__(self, grid: LambdaGrid, term_node, term_lo, term_hi,
                 term_coef, term_freq, profile=None, kinds=None):
        self.grid = grid
        self.term_node = np.asarray(term_node, dtype=np.int64)
        self.term_lo = np.asarray(term_lo, dtype=float)
        self.term_hi = np.asarray(term_hi, dtype=float)
        self.term_coef = np.asarray(term_coef, dtype=complex).reshape(
            -1, MAX_DEGREE + 1)
        self.term_freq = np.asarray(term_freq, dtype=float)
        if np.count_nonzero(self.term_node[1:] < self.term_node[:-1]):
            order = np.argsort(self.term_node, kind="stable")
            for name in ("term_node", "term_lo", "term_hi", "term_coef",
                         "term_freq"):
                setattr(self, name, getattr(self, name)[order])
        counts = np.bincount(self.term_node, minlength=grid.n)
        self._starts = np.concatenate([[0], np.cumsum(counts)])
        self.profile = profile
        self.kinds = kinds
        self.expansion = None
        self._table_memo = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_windows(cls, grid, windows, kinds=None):
        if len(windows) != grid.n:
            raise GridMismatchError("need one window per node")
        node = np.repeat(np.arange(grid.n), [w.n_terms for w in windows])
        rows = zip(Window.zero().terms, *(w.terms for w in windows))
        return cls(grid, node, *map(np.concatenate, rows), kinds=kinds)

    @classmethod
    def from_array_profile(cls, grid, profile):
        """Sample an array profile (points -> FieldSample on
        point_grid(points)) at the grid nodes, keeping it attached for
        off-grid evaluation."""
        s = profile(grid.nodes)
        return cls(grid, s.term_node, s.term_lo, s.term_hi, s.term_coef,
                   s.term_freq, profile=profile)

    @classmethod
    def from_profile(cls, grid, window_at):
        """Sample a per-point profile lam -> Window at the grid nodes.  It
        is kept as the array profile that calls window_at once per point."""
        def profile(lams):
            return cls.from_windows(point_grid(lams, grid.spectral_set),
                                    [window_at(lam) for lam in lams])
        return cls.from_array_profile(grid, profile)

    @classmethod
    def zero(cls, grid):
        return cls.from_windows(grid, [Window.zero()] * grid.n)

    # -- access ------------------------------------------------------------

    @property
    def n_terms(self):
        return self.term_node.size

    @property
    def terms(self):
        """The term row (term_lo, term_hi, term_coef, term_freq)."""
        return self.term_lo, self.term_hi, self.term_coef, self.term_freq

    def slice(self, i) -> Window:
        a, b = self._starts[i], self._starts[i + 1]
        return Window(self.term_lo[a:b], self.term_hi[a:b],
                      self.term_coef[a:b], self.term_freq[a:b])

    def take(self, idx, scale=None, at=None) -> FieldSample:
        """The slices at nodes idx (repeats allowed) as a table on
        point_grid(at), by default at those nodes; slice k is multiplied
        by scale[k] if given."""
        idx = np.asarray(idx, dtype=np.int64)
        pos, term = _ranges(self._starts[idx], np.diff(self._starts)[idx])
        coef = self.term_coef[term]
        if scale is not None:
            coef = coef * scale[pos][:, None]
        at = self.grid.nodes[idx] if at is None else at
        return FieldSample(point_grid(at, self.grid.spectral_set), pos,
                           self.term_lo[term], self.term_hi[term], coef,
                           self.term_freq[term])

    def slice_at(self, lam) -> Window:
        """Window at lam: the profile's if the field has one, else the
        slice of a node within _NODE_TOL, else the linear interpolation
        between the bracketing node slices."""
        return self.slices_at([lam]).slice(0)

    def slices_at(self, lams) -> FieldSample:
        """The windows at an array of spectral values, as slice_at finds
        each one, in one term table on point_grid(lams)."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if self.profile is not None:
            return self.profile(lams)
        nodes = self.grid.nodes
        hit = _node_hits(nodes, lams)
        on, off = np.flatnonzero(hit >= 0), np.flatnonzero(hit < 0)
        if not off.size:
            return self.take(hit, at=lams)
        j = np.searchsorted(nodes, lams[off])
        outside = (j == 0) | (j == nodes.size)
        if outside.any():
            raise DomainError(
                f"no slice data at lambda={float(lams[off][outside][0])}")
        t = (lams[off] - nodes[j - 1]) / (nodes[j] - nodes[j - 1])
        return _concat(point_grid(lams, self.grid.spectral_set),
                       [self.take(hit[on]), self.take(j - 1, 1 - t),
                        self.take(j, t)], [on, off, off])

    def windows(self):
        return [self.slice(i) for i in range(self.grid.n)]

    # -- algebra -----------------------------------------------------------

    def scaled(self, c):
        return FieldSample(self.grid, self.term_node, self.term_lo,
                           self.term_hi, self.term_coef * c, self.term_freq,
                           profile=_then(self.profile, FieldSample.scaled, c))

    def __add__(self, other, sign=None):
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("fields live on different grids")
        return _concat(self.grid, [self, other], scale=[None, sign])

    def __sub__(self, other):
        return self.__add__(other, -1.0)

    def heisenberg_translate(self, x1, x2, x3):
        """Slice-wise action of the group element (x1, x2, x3):

            g(lam, t) -> e^{2 pi i lam x3} e^{-2 pi i lam x2 t} g(lam, t - x1)

        Exact on the term table; the profile, if any, is transformed too.
        """
        lam = self.grid.nodes[self.term_node]
        coef = self.term_coef * np.exp(
            1j * _TWO_PI * (lam * x3 - self.term_freq * x1))[:, None]
        freq = self.term_freq - lam * x2
        return FieldSample(
            self.grid, self.term_node, self.term_lo + x1, self.term_hi + x1,
            coef, freq, profile=_then(self.profile,
                                      FieldSample.heisenberg_translate,
                                      x1, x2, x3))

    def restrict(self, subset: SpectralSet):
        """Zero out slices whose node lies outside the given spectral set."""
        keep = subset.contains(self.grid.nodes[self.term_node])
        return FieldSample(self.grid, self.term_node[keep],
                           self.term_lo[keep], self.term_hi[keep],
                           self.term_coef[keep], self.term_freq[keep],
                           profile=_then(self.profile, FieldSample.restrict,
                                         subset))

    # -- analysis ----------------------------------------------------------

    def slice_norm2(self):
        """Exact per-node squared norms as an array (_segment_norm2)."""
        return np.maximum(_segment_norm2(self._starts, self.terms), 0.0)

    def norm2(self):
        """||f||^2 = sum_i w_i ||f(lam_i, .)||^2, the slice norms as in
        slice_norm2 before the clip at zero."""
        return max(float(np.sum(self.grid.weights
                                * _segment_norm2(self._starts, self.terms))),
                   0.0)


def _concat(grid, fields, nodes=None, scale=None):
    """One node-major table on grid of every field's terms: node k of
    fields[i] at node nodes[i][k] (k without nodes), its rows scaled by
    scale[i] unless None; fields keep their order in a node, terms theirs."""
    node = np.concatenate([f.term_node if nodes is None
                           else nodes[i][f.term_node]
                           for i, f in enumerate(fields)])
    order = (np.argsort(node, kind="stable")
             if np.count_nonzero(node[1:] < node[:-1]) else slice(None))
    lo, hi, coef, freq = zip(*(f.terms for f in fields))
    node, coef = node[order], np.concatenate(coef)
    if scale is not None:
        ends = accumulate(f.n_terms for f in fields)
        for f, c, stop in zip(fields, scale, ends):
            if c is not None:
                coef[stop - f.n_terms:stop] *= c
    coef = coef[order]
    lo, hi, freq = (np.concatenate(x)[order] for x in (lo, hi, freq))
    return FieldSample(grid, node, lo, hi, coef, freq)


def field_sum(fields, coeffs):
    """Linear combination sum_j coeffs[j] * fields[j] on a common grid.

    Unlike repeated addition this keeps an analytic profile when every
    summand carries one (the summands' tables, concatenated), so
    synthesized test fields stay evaluable off-grid.
    """
    if len(fields) != len(coeffs) or not fields:
        raise DomainError("need matching nonempty fields and coefficients")
    grid = fields[0].grid
    for f in fields[1:]:
        if not grid.same_as(f.grid):
            raise GridMismatchError("fields live on different grids")
    out = _concat(grid, fields, scale=coeffs)
    if all(f.profile is not None for f in fields):
        profs = [f.profile for f in fields]
        out.profile = lambda lams: _concat(
            point_grid(lams, grid.spectral_set), [p(lams) for p in profs],
            scale=coeffs)
    return out


def _phase_table(x, scale: float, n: int):
    """np.exp(1j * scale * np.outer(x, np.arange(-n, n + 1))) for nonzero
    x from its columns l >= 0: the angle at -l is the exact negation of the
    one at l, and cos and sin are even and odd, so the l < 0 half is the
    conjugate of the mirrored l > 0 half bit for bit."""
    out = np.empty((np.size(x), 2 * n + 1), dtype=complex)
    half = out[:, n:]
    np.exp(np.multiply(1j * scale, np.outer(x, np.arange(n + 1)), out=half),
           out=half)
    np.conj(out[:, :n:-1], out=out[:, :n])
    return out


def _node_table(f: FieldSample, g: FieldSample, spec: QuasiLatticeSpec,
                kmax: int, lmax: int):
    """Per-node inner products H[j, n, l + lmax] = <f_n, e^{-2 pi i lam_n
    beta l t} g_n(t - alpha k)> for |l| <= lmax and the translations
    |k| <= kmax at which some pair of cells overlaps.  Returns (live_k, H)
    with live_k the ascending k + kmax of those translations.

    One _segment_inner sweep at step alpha, rate -beta lam_n and df = l:
    one moment per live (pair, k, l), in blocks of bounded memory.
    """
    if not g.grid.same_as(f.grid):
        raise DomainError("test field lives on a different grid")
    k, H = _segment_inner(f._starts, f.terms, g._starts, g.terms,
                          spec.alpha, kmax, -spec.beta * g.grid.nodes,
                          np.arange(-lmax, lmax + 1))
    return k + kmax, H


_TILE = 16  # side of the fixed-shape products a Gram table is built from


def _gram_tables(table, g: FieldSample, spec: QuasiLatticeSpec,
                 kreach: int, kmax: int, mmax: int):
    """(rho, Y): the twisted Gram tables of table = (live_k, H) =
    _node_table(b, g, spec, kmax, lmax) at the live offsets rho = live_k -
    kmax, for |kappa| <= kreach:

        Y[kappa + kreach, j, l + lmax, m + mmax] = Y_kappa(rho_j, l, m)
          = sum_n w_n e^{-2 pi i lam_n (m - alpha beta kappa l)} H_n(rho_j, l)
          = <T_{kappa,l',m'} b, T_{kappa+rho_j,l'+l,m'+m} g>.

    The node sums are (_TILE, N) @ (N, _TILE) products on tiles anchored
    at multiples of _TILE in absolute (l, m), zero past the reach, so an
    entry's bits do not depend on the reach.  The cocycle is exponentiated
    for kappa > 0 and l >= 0 only (_phase_table); kappa < 0 takes its
    conjugate, kappa = 0 none."""
    live_k, H = table
    lam, T, lmax = g.grid.nodes, _TILE, H.shape[2] // 2
    # -n .. n within whole tiles: (its slice, the tile count)
    (sl, nl), (sm, nm) = ((slice(-n % T, -n % T + 2 * n + 1),
                           (-n % T + 2 * n + T) // T) for n in (lmax, mmax))
    wphase = np.zeros((lam.size, nm * T), dtype=complex)
    wphase[:, sm] = g.grid.weights[:, None] * _phase_table(lam, -_TWO_PI,
                                                           mmax)
    tiles = wphase.reshape(lam.size, nm, T).transpose(1, 0, 2)  # (nm, N, T)
    rows = np.zeros((nl * T, lam.size), dtype=complex)
    Y = np.empty((2 * kreach + 1, len(H), 2 * lmax + 1, 2 * mmax + 1),
                 dtype=complex)
    ab = spec.alpha * spec.beta
    for size in range(kreach + 1):
        cocycle = (_phase_table(lam, _TWO_PI * ab * size, lmax)
                   if size else None)
        for kappa in sorted({size, -size}, reverse=True):
            if kappa < 0:
                np.conj(cocycle, out=cocycle)
            for j, Hj in enumerate(H):
                if kappa:
                    np.multiply(Hj.T, cocycle.T, out=rows[sl])
                else:
                    rows[sl] = Hj.T
                prod = np.matmul(rows.reshape(nl, 1, T, -1), tiles)
                Y[kappa + kreach, j] = prod.transpose(0, 2, 1, 3).reshape(
                    nl * T, -1)[sl, sm]
        del cocycle     # one cocycle at a time
    return live_k - kmax, Y


def _self_table(e: FieldSample, spec: QuasiLatticeSpec, kreach: int,
                rreach: int, lmax: int, mmax: int):
    """(rho, Y): the _gram_tables of _node_table(e, e, spec, rreach, lmax)
    at |kappa| <= kreach and |m| <= mmax, as read-only views of the tables
    kept on e for spec, which equal a fresh build bit for bit.  A request
    they do not cover rebuilds them at the elementwise max of both reaches,
    one under another spec replaces them."""
    want = (kreach, rreach, lmax, mmax)
    if e._table_memo is not None and e._table_memo[0] == spec:
        want = tuple(map(max, e._table_memo[1], want))
    if e._table_memo is None or e._table_memo[:2] != (spec, want):
        e._table_memo = None    # free the old tables before the build
        rho, Y = _gram_tables(_node_table(e, e, spec, *want[1:3]), e, spec,
                              *want[:2], want[3])
        rho.flags.writeable = Y.flags.writeable = False
        e._table_memo = (spec, want, rho, Y)
    _, (K, _, L, M), rho, Y = e._table_memo
    a, b = np.searchsorted(rho, [-rreach, rreach + 1])
    return rho[a:b], Y[K - kreach:K + kreach + 1, a:b,
                       L - lmax:L + lmax + 1, M - mmax:M + mmax + 1]


def field_inner_per_node(f: FieldSample, g: FieldSample) -> np.ndarray:
    """Unweighted slice inner products <f(lam_i, .), g(lam_i, .)> as an
    array over nodes; exact, deterministic accumulation order (the slab
    n = 0 of _segment_inner, if any cells meet, in blocks of bounded size,
    which keeps dense reconstructions tractable).  Squared norms take half
    the pairs through _segment_norm2 instead."""
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("fields live on different grids")
    _, H = _segment_inner(f._starts, f.terms, g._starts, g.terms, 1.0, 0,
                          np.ones(f.grid.n), np.zeros(1))
    return H.sum(axis=0)[:, 0]


def field_inner(f: FieldSample, g: FieldSample):
    """<f, g> = sum_i w_i <f(lam_i, .), g(lam_i, .)>, slice inners exact.

    Fails on mismatched grids.  Deterministic: fixed pair order, per-node
    accumulation in pair order, then a single weighted sum over nodes.
    """
    return complex(np.sum(f.grid.weights * field_inner_per_node(f, g)))


# ---------------------------------------------------------------------------
# serialization

_FMT = "%.17g"


def _fmt(x):
    return _FMT % float(x)


def field_save(f: FieldSample, path):
    """Write a field in the line-oriented text format.

    Only plain indicator slices and tabulated (sample-grid) slices are
    representable; fields produced by transforms must be re-tabulated first.
    """
    kinds = f.kinds
    lines = ["hgsfield 1"]
    for a, b in f.grid.spectral_set.intervals:
        lines.append(f"interval {_fmt(a)} {_fmt(b)}")
    lines.append(f"lambda_min {_fmt(f.grid.lambda_min)}")
    lines.append(f"rule {f.grid.rule}")
    lines.append(f"nodes {f.grid.n}")
    for i in range(f.grid.n):
        lines.append(f"node {_fmt(f.grid.nodes[i])} {_fmt(f.grid.weights[i])}")
        kind = kinds[i] if kinds is not None else None
        if kind is None:
            w = f.slice(i)
            if w.n_terms == 0:
                kind = ("indicator", 0.0, 1.0, 0.0 + 0.0j)
            elif w.is_plain_indicator():
                kind = ("indicator", float(w.lo[0]), float(w.hi[0]),
                        complex(w.coef[0, 0]))
            else:
                raise WindowStructureError(
                    f"slice {i} is not serializable; tabulate it first")
        if kind[0] == "indicator":
            _, a, b, s = kind
            lines.append("slice indicator "
                         f"{_fmt(a)} {_fmt(b)} {_fmt(s.real)} {_fmt(s.imag)}")
        elif kind[0] == "samples":
            _, tg, data = kind
            payload = " ".join(f"{_fmt(v.real)} {_fmt(v.imag)}" for v in data)
            lines.append(f"slice samples {_fmt(tg.offset)} {_fmt(tg.step)} "
                         f"{tg.count} {payload}")
        else:
            raise WindowStructureError(f"unknown slice kind {kind[0]!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(parts, n, lineno):
    """The first n of parts as finite floats."""
    if len(parts) < n:
        raise FieldFormatError("truncated record", lineno)
    try:
        vals = [float(p) for p in parts[:n]]
    except ValueError as exc:
        raise FieldFormatError(str(exc), lineno) from None
    if not all(math.isfinite(v) for v in vals):
        raise FieldFormatError("value is not finite", lineno)
    return vals


def _ascii_lines(path, error):
    """(line number, text) of every line of the file at path, decoded as
    the caller asks for them; the first line that is not ASCII raises
    error("not ASCII text", lineno).  Blank lines and whitespace are kept
    for each reader to skip, strip or quote as its format says."""
    with open(path, "rb") as fh:
        raw = fh.read().splitlines()
    for lineno, line in enumerate(raw, start=1):
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise error("not ASCII text", lineno) from None
        yield lineno, text


def field_load(path) -> FieldSample:
    """Read a field written by field_save; inverse up to bit-exact floats.
    Every bad record raises FieldFormatError with its line number."""
    lines = [(i, t.strip()) for i, t in _ascii_lines(path, FieldFormatError)
             if t.strip()]
    if not lines or lines[0][1] != "hgsfield 1":
        raise FieldFormatError("missing 'hgsfield 1' header",
                               lines[0][0] if lines else 1)
    pos = 1
    intervals = []
    lambda_min = None
    rule = "midpoint"
    n_nodes = None
    while pos < len(lines):
        lineno, ln = lines[pos]
        key = ln.split()[0]
        if key == "interval":
            intervals.append(tuple(_parse_floats(ln.split()[1:], 2, lineno)))
            try:
                SpectralSet(intervals)
            except DomainError as exc:
                raise FieldFormatError(str(exc), lineno) from None
        elif key == "lambda_min":
            (lambda_min,) = _parse_floats(ln.split()[1:], 1, lineno)
            if not lambda_min > 0:
                raise FieldFormatError("lambda_min must be positive", lineno)
        elif key == "rule":
            parts = ln.split()
            if len(parts) != 2:
                raise FieldFormatError("bad rule record", lineno)
            rule = parts[1]
        elif key == "nodes":
            try:
                n_nodes = int(ln.split()[1])
            except (IndexError, ValueError):
                raise FieldFormatError("bad node count", lineno) from None
            if n_nodes < 1:
                raise FieldFormatError("need at least one node", lineno)
            pos += 1
            break
        else:
            raise FieldFormatError(f"unexpected record {key!r}", lineno)
        pos += 1
    if lambda_min is None or n_nodes is None or not intervals:
        raise FieldFormatError("incomplete header", lines[-1][0])
    nodes, weights, windows, kinds = [], [], [], []
    for _ in range(n_nodes):
        if pos >= len(lines):
            raise FieldFormatError("truncated file: missing node record",
                                   lines[-1][0])
        lineno, ln = lines[pos]
        parts = ln.split()
        if parts[0] != "node":
            raise FieldFormatError("expected node record", lineno)
        lam, w = _parse_floats(parts[1:], 2, lineno)
        if not (lam != 0.0 and (not nodes or lam > nodes[-1])):
            raise FieldFormatError(
                "node must be nonzero and above the previous node", lineno)
        if not w > 0.0:
            raise FieldFormatError("node weight must be positive", lineno)
        pos += 1
        if pos >= len(lines):
            raise FieldFormatError("truncated file: missing slice record",
                                   lines[-1][0])
        lineno, ln = lines[pos]
        parts = ln.split()
        if parts[0] != "slice" or len(parts) < 2:
            raise FieldFormatError("expected slice record", lineno)
        if parts[1] == "indicator":
            a, b, re, im = _parse_floats(parts[2:], 4, lineno)
            if not b > a:
                raise FieldFormatError("indicator needs lo < hi", lineno)
            scale = complex(re, im)
            windows.append(Window.indicator(a, b, scale) if scale != 0
                           else Window.zero())
            kinds.append(("indicator", a, b, scale))
        elif parts[1] == "samples":
            off, step = _parse_floats(parts[2:4], 2, lineno)
            try:
                count = int(parts[4])
            except (IndexError, ValueError):
                raise FieldFormatError("bad sample count", lineno) from None
            if count < 2:
                raise FieldFormatError("need at least two samples", lineno)
            vals = _parse_floats(parts[5:], 2 * count, lineno)
            data = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
            try:
                tg = TimeGrid(off, step, count)
                windows.append(Window.from_samples(off, step, data))
            except (DomainError, WindowStructureError) as exc:
                raise FieldFormatError(str(exc), lineno) from None
            kinds.append(("samples", tg, data))
        else:
            raise FieldFormatError(f"unknown slice kind {parts[1]!r}", lineno)
        nodes.append(lam)
        weights.append(w)
        pos += 1
    if pos < len(lines):
        raise FieldFormatError("record after the last node", lines[pos][0])
    grid = LambdaGrid(np.array(nodes), np.array(weights), lambda_min,
                      SpectralSet(intervals), rule)
    return FieldSample.from_windows(grid, windows, kinds=kinds)
