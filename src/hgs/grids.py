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

import numpy as np

from .errors import (DomainError, EmptyGridError, FieldFormatError,
                     GridMismatchError, WindowStructureError)
from .group import QuasiLatticeSpec
# _cross_join stays importable as grids._cross_join, a layer perfbench traces
from .windows import (_TWO_PI, MAX_DEGREE, Window, _cross_join,  # noqa: F401
                      _ranges, _translated_pairs, paired_inner_sweep)

# Cross-joined term pairs per field-inner node block (bounding candidate
# and live pairs) and rows times modulations per lattice-sweep block, unless
# one node or slot alone has more; bounds their scratch memory.
_PAIR_BLOCK = 250_000


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
    its surviving pieces."""
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


def _node_hits(nodes, lams, tol):
    """Index of the first node within tol of each lam, or -1."""
    out = np.full(lams.size, -1, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // max(nodes.size, 1))
    for s in range(0, lams.size, rows):
        near = np.abs(nodes[None, :] - lams[s:s + rows, None]) <= tol
        out[s:s + rows] = np.where(near.any(axis=1), near.argmax(axis=1), -1)
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
        if np.any(self.term_node[1:] < self.term_node[:-1]):
            order = np.argsort(self.term_node, kind="stable")
            self.term_node = self.term_node[order]
            self.term_lo = self.term_lo[order]
            self.term_hi = self.term_hi[order]
            self.term_coef = self.term_coef[order]
            self.term_freq = self.term_freq[order]
        counts = np.bincount(self.term_node, minlength=grid.n)
        self._starts = np.concatenate([[0], np.cumsum(counts)])
        self.profile = profile
        self.kinds = kinds

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_windows(cls, grid, windows, kinds=None):
        if len(windows) != grid.n:
            raise GridMismatchError("need one window per node")
        node = np.concatenate([np.full(w.n_terms, i, dtype=np.int64)
                               for i, w in enumerate(windows)]) \
            if windows else np.empty(0, dtype=np.int64)
        cat = (lambda xs, empty: np.concatenate(xs) if xs else empty)
        lo = cat([w.lo for w in windows], np.empty(0))
        hi = cat([w.hi for w in windows], np.empty(0))
        coef = (np.concatenate([w.coef for w in windows])
                if windows else np.empty((0, MAX_DEGREE + 1), dtype=complex))
        freq = cat([w.freq for w in windows], np.empty(0))
        return cls(grid, node, lo, hi, coef, freq, kinds=kinds)

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

    def term_mid(self):
        return 0.5 * (self.term_lo + self.term_hi)

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

    def slice_at(self, lam, tol=1e-12) -> Window:
        """Window at spectral value lam: exact node match, else the profile,
        else linear interpolation between bracketing node slices."""
        return self.slices_at([lam], tol).slice(0)

    def slices_at(self, lams, tol=1e-12) -> FieldSample:
        """The windows at an array of spectral values, as slice_at finds
        each one, in one term table on point_grid(lams)."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        nodes = self.grid.nodes
        hit = _node_hits(nodes, lams, tol)
        on, off = np.flatnonzero(hit >= 0), np.flatnonzero(hit < 0)
        if not off.size:
            return self.take(hit, at=lams)
        if not on.size and self.profile is not None:
            return self.profile(lams)
        pieces = [(on, self.take(hit[on]))]
        if self.profile is not None:
            pieces.append((off, self.profile(lams[off])))
        else:
            j = np.searchsorted(nodes, lams[off])
            outside = (j == 0) | (j == nodes.size)
            if outside.any():
                raise DomainError(
                    f"no slice data at lambda={float(lams[off][outside][0])}")
            t = (lams[off] - nodes[j - 1]) / (nodes[j] - nodes[j - 1])
            pieces += [(off, self.take(j - 1, 1 - t)),
                       (off, self.take(j, t))]
        return _concat(point_grid(lams, self.grid.spectral_set),
                       [s for _, s in pieces], [p for p, _ in pieces])

    def windows(self):
        return [self.slice(i) for i in range(self.grid.n)]

    # -- algebra -----------------------------------------------------------

    def scaled(self, c):
        return FieldSample(self.grid, self.term_node, self.term_lo,
                           self.term_hi, self.term_coef * c, self.term_freq,
                           profile=_then(self.profile, FieldSample.scaled, c))

    def __add__(self, other):
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("fields live on different grids")
        return _concat(self.grid, [self, other])

    def __sub__(self, other):
        return self + other.scaled(-1.0)

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
        """Exact per-node squared norms as an array."""
        return np.maximum(field_inner_per_node(self, self).real, 0.0)

    def norm2(self):
        return max(field_inner(self, self).real, 0.0)


def _concat(grid, fields, nodes=None):
    """One table on grid holding the terms of every field in order; node k
    of fields[i] becomes node nodes[i][k] of grid (k itself without
    nodes).  Terms keep their order within each node."""
    node = [f.term_node if nodes is None else nodes[i][f.term_node]
            for i, f in enumerate(fields)]
    return FieldSample(
        grid, np.concatenate(node),
        np.concatenate([f.term_lo for f in fields]),
        np.concatenate([f.term_hi for f in fields]),
        np.concatenate([f.term_coef for f in fields]),
        np.concatenate([f.term_freq for f in fields]))


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
    scaled = [f.scaled(c) for f, c in zip(fields, coeffs)]
    out = _concat(grid, scaled)
    if all(f.profile is not None for f in scaled):
        profs = [f.profile for f in scaled]
        out.profile = lambda lams: _concat(
            point_grid(lams, grid.spectral_set), [p(lams) for p in profs])
    return out


def _blocks(weights):
    """Split range(len(weights)) into consecutive runs [start, stop) whose
    weights sum to at most _PAIR_BLOCK; a single heavier item is a run of
    its own."""
    cum = np.cumsum(weights)
    start = 0
    while start < cum.size:
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + _PAIR_BLOCK, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _node_table(f: FieldSample, g: FieldSample, spec: QuasiLatticeSpec,
                kmax: int, lmax: int):
    """Per-node inner products H[j, n, l + lmax] = <f_n, e^{-2 pi i lam_n
    beta l t} g_n(t - alpha k)> for |l| <= lmax and the translations
    |k| <= kmax at which some pair of cells overlaps.  Returns (live_k, H)
    with live_k the ascending k + kmax of those translations.

    The overlapping (pair, k) rows come from _translated_pairs and are
    evaluated in blocks.  The modulation sweep shares the overlap geometry
    across all l, so the cost is one closed-form moment evaluation per
    live (pair, k, l).
    """
    grid = g.grid
    if not grid.same_as(f.grid):
        raise DomainError("test field lives on a different grid")
    ls = np.arange(-lmax, lmax + 1)
    rows = _translated_pairs(f._starts, f.term_lo, f.term_hi, g._starts,
                             g.term_lo, g.term_hi, spec.alpha, kmax)
    # k-major rows, pairs in node-major order within each k
    perm = np.argsort(rows[3], kind="stable")
    ia, ib, node, k, g_lo, g_hi = (x[perm] for x in rows)
    del rows
    kidx = k.astype(np.int64) + kmax
    live_k = np.unique(kidx)
    # accumulator row of every (k, node) with a live pair
    slot = np.searchsorted(live_k, kidx) * grid.n + node
    H = np.zeros((live_k.size * grid.n, ls.size), dtype=complex)
    # blocks end at slot boundaries, so each slot sums in one segment
    per_slot = np.bincount(slot, minlength=H.shape[0])
    bounds = np.concatenate([[0], np.cumsum(per_slot)])
    f_mid = f.term_mid()
    for j0, j1 in _blocks(per_slot * ls.size):
        s, e = bounds[j0], bounds[j1]
        a, b = ia[s:e], ib[s:e]
        lo, hi = g_lo[s:e], g_hi[s:e]
        coef = g.term_coef[b] * np.exp(
            -1j * _TWO_PI * g.term_freq[b] * (spec.alpha * k[s:e]))[:, None]
        df = (-spec.beta * grid.nodes[node[s:e]])[:, None] * ls[None, :]
        vals = paired_inner_sweep(
            f.term_lo[a], f.term_hi[a], f_mid[a], f.term_coef[a],
            f.term_freq[a], lo, hi, 0.5 * (lo + hi), coef,
            g.term_freq[b], df)
        sl = slot[s:e]
        seg = np.flatnonzero(np.diff(sl, prepend=-1))
        H[sl[seg]] += np.add.reduceat(vals, seg, axis=0)
    return live_k, H.reshape(live_k.size, grid.n, ls.size)


def field_inner_per_node(f: FieldSample, g: FieldSample) -> np.ndarray:
    """Unweighted slice inner products <f(lam_i, .), g(lam_i, .)> as an
    array over nodes; exact, deterministic accumulation order.

    The overlapping term pairs come from _translated_pairs at nmax = 0, in
    node blocks of bounded size, which keeps dense reconstructions
    tractable."""
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("fields live on different grids")
    out = np.zeros(f.grid.n, dtype=complex)
    f_mid = f.term_mid()
    g_mid = g.term_mid()
    zero = np.zeros(1)
    for start, stop in _blocks(np.diff(f._starts) * np.diff(g._starts)):
        ia, ib, node, *_ = _translated_pairs(
            f._starts[start:stop + 1], f.term_lo, f.term_hi,
            g._starts[start:stop + 1], g.term_lo, g.term_hi, 1.0, 0)
        if ia.size:
            vals = paired_inner_sweep(
                f.term_lo[ia], f.term_hi[ia], f_mid[ia], f.term_coef[ia],
                f.term_freq[ia],
                g.term_lo[ib], g.term_hi[ib], g_mid[ib], g.term_coef[ib],
                g.term_freq[ib], zero)[:, 0]
            out[start:stop] += (
                np.bincount(node, weights=vals.real, minlength=stop - start)
                + 1j * np.bincount(node, weights=vals.imag,
                                   minlength=stop - start))
    return out


def field_inner(f: FieldSample, g: FieldSample):
    """<f, g> = sum_i w_i <f(lam_i, .), g(lam_i, .)>, slice inners exact.

    Fails on mismatched grids.  Deterministic: fixed pair order, per-node
    accumulation via bincount, then a single weighted sum over nodes.
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


def field_load(path) -> FieldSample:
    """Read a field written by field_save; inverse up to bit-exact floats.
    Every bad record raises FieldFormatError with its line number."""
    with open(path, "rb") as fh:
        raw = fh.read().splitlines()
    lines = []
    for i, ln in enumerate(raw):
        try:
            text = ln.decode("ascii").strip()
        except UnicodeDecodeError:
            raise FieldFormatError("not ASCII text", i + 1) from None
        if text:
            lines.append((i + 1, text))
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
