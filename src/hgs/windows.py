"""Exact arithmetic for modulated piecewise-polynomial windows.

A window is a finite sum of terms

    w(t) = sum_j  p_j(t - mid_j) * exp(2*pi*i*freq_j*t) * 1_{[lo_j, hi_j)}(t)

where p_j is a complex polynomial of degree <= 2 stored in coordinates
centered at the term midpoint mid_j = (lo_j + hi_j)/2.  Indicator windows,
piecewise-linear windows, and everything the Heisenberg translates produce
from them stay inside this family, and L2 inner products reduce to the
closed-form moments

    int_a^b (t - mid)^p exp(2*pi*i*f*t) dt,   p <= 4,

so the headline identities are evaluated without discretization error.
Pointwise evaluation uses half-open cells [lo, hi); membership at cell
boundaries is a measure-zero convention, not a contract.

Degree 0 (every pair against an indicator field) has a real path: N_0 is
real, so centered_moments(theta, 0) evaluates it in real arithmetic and
interval_moments multiplies the complex phase by it once.  Its values are
bit for bit those of the complex series and recurrence that serve the
higher degrees, and interval_moments(..., 0)[0] equals row 0 at any larger
degree.  interval_moments computes each cell's half-width, midpoint and
live mask once per row of a pair sweep, and paired_inner_sweep uses its
rows in place.  The pair kernels take each side as a term row (lo, hi,
coef, freq), the layout of Window.terms and FieldSample.terms, and derive
the term midpoints themselves.

Every term pairing in the package comes from one pair search,
_translated_pairs, which ends in the exact overlap test min(hi) > max(lo)
that keeps disjoint pairs out of paired_inner_sweep.  Its binary search
runs only where it can prune, at finite nmax on two tables that both hold
several terms in some segment; at nmax = inf, or when either table holds
at most one term per segment, the candidates are the segment cross join
_cross_join, and both give the same rows.  Both pair kernels,
paired_inner_sweep and product_conj_terms, form the product of a pair on
its overlap cell in one helper, _pair_product.  _segment_inner and
_segment_norm2 are the one inner product and the one squared norm of the
windows of a segmented table, a Window being one segment and a
FieldSample one per node; both run in blocks of at most _PAIR_BLOCK
candidate pairs, sweep at most _PAIR_BLOCK / 4 pair values at a time and
add each segment's values in pair order.  _segment_inner also takes
translates and per-segment modulations, so it is the lattice table
grids._node_table too; only fieldcheck's unfolding sum sweeps elsewhere.

_segment_norm2 takes whole segments of at most _PAIR_BLOCK / 32 terms at
a time, merges bit-equal terms and groups them by cell; it sums a regular
class (degree-0 modulations one step apart, as in a reconstruction) as one
coefficient correlation and every other unordered cell pair once.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .errors import DomainError, WindowStructureError

_TWO_PI = 2.0 * np.pi
# |theta| below this uses the Taylor series for the centered moments; above,
# the boundary recurrence.  0.5 keeps both branches at ~1e-16 relative error.
_SERIES_CUT = 0.5
_SERIES_TERMS = 18
_FACTORIALS = np.cumprod([1.0, *range(1, _SERIES_TERMS)])  # j!, exact
_ULPS = 8.0 * np.finfo(float).eps  # pair search slack per unit endpoint

MAX_DEGREE = 2

# Candidate term pairs times translations per segment block and, over four,
# pair values per sweep of _segment_inner; candidate cell pairs per segment
# block and, over four, swept term pairs per block and, over 32, terms per
# run of _segment_norm2; unless one segment, one row of a sweep or one cell
# pair alone has more.  Bounds their scratch memory.
_PAIR_BLOCK = 250_000


def centered_moments(theta, pmax):
    """Moments N_p(theta) = int_{-1}^{1} s^p exp(i*theta*s) ds for p = 0..pmax.

    The physical moment over [-h, h] at angular frequency phi is
    h**(p+1) * N_p(phi*h).  Returns an array of shape (pmax+1,) + theta.shape,
    complex for pmax >= 1.  For pmax = 0 it is the real N_0, equal bit for
    bit to the real part of row 0 at any larger pmax (whose imaginary part
    is exactly zero).  The branch partition keeps scratch memory at
    O(result size).
    """
    theta = np.asarray(theta, dtype=float)
    shape = theta.shape
    th = theta.ravel()
    small = np.abs(th) < _SERIES_CUT
    ns = np.nonzero(small)[0]
    if pmax == 0:
        # The real part of row 0 of the complex branches below, with the
        # same roundings: (2 sin(theta)) * (1/theta) at and above the cut;
        # under it the series' even terms in order, (i theta)^j as
        # ((i theta)^(j-2) * theta) * -theta, each term times 1/j!, then
        # times 1/(j+1).
        n0 = np.sin(th)
        n0 *= 2.0
        # the cells under the cut are overwritten: silence 1/0, 0 * inf
        # and the overflow of 1/theta at subnormal theta
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            n0 *= 1.0 / th
        if ns.size:
            ts = th[ns]
            nts = -ts
            power = np.ones(ns.size)
            acc = np.ones(ns.size)
            fact = 1.0
            for j in range(2, _SERIES_TERMS, 2):
                power = (power * ts) * nts
                fact *= (j - 1) * j
                acc += power * (1.0 / fact) * (1.0 / (j + 1))
            n0[ns] = 2.0 * acc
        return n0.reshape((1,) + shape)

    nb = np.nonzero(~small)[0]
    out = np.empty((pmax + 1, th.size), dtype=complex)
    if ns.size:
        # Series: N_p = 2 * sum_{j: j+p even} (i*theta)^j / (j! * (p+j+1)),
        # each sum added in j order from zero.  The terms of all p of one
        # parity form one (j, p, point) table, added row by row.
        it = 1j * th[ns]
        coef = np.empty((_SERIES_TERMS, ns.size), dtype=complex)
        coef[0] = 1.0
        for j in range(1, _SERIES_TERMS):
            np.multiply(coef[j - 1], it, out=coef[j])
        coef /= _FACTORIALS[:, None]
        acc = np.zeros((pmax + 1, ns.size), dtype=complex)
        for par in (0, 1):
            p = np.arange(par, pmax + 1, 2)[:, None]
            j1 = np.arange(par + 1.0, _SERIES_TERMS + 1, 2)[:, None, None]
            rows = acc[par::2]
            for term in coef[par::2, None] / (p + j1):
                rows += term
        out[:, ns] = 2.0 * acc
    if nb.size:
        # Recurrence: N_0 = 2 sin(theta)/theta and
        # N_p = (e^{i th} - (-1)^p e^{-i th})/(i th) - (p/(i th)) N_{p-1}.
        tb = th[nb]
        eip = np.exp(1j * tb)
        ein = np.conj(eip)
        inv_it = 1.0 / (1j * tb)
        prev = (eip - ein) * inv_it
        out[0, nb] = prev
        for p in range(1, pmax + 1):
            sign = -1.0 if p % 2 else 1.0
            prev = (eip - sign * ein) * inv_it - p * inv_it * prev
            out[p, nb] = prev
    return out.reshape((pmax + 1,) + shape)


def interval_moments(lo, hi, freq, pmax):
    """int_lo^hi (t - mid)^p exp(2*pi*i*freq*t) dt, mid = (lo+hi)/2, p = 0..pmax.

    All arguments broadcast; the result is complex of shape
    (pmax+1,) + broadcast shape.  Empty intervals (hi <= lo) contribute
    zero.  The cell geometry (half-width h, midpoint, live mask) is
    computed on the shape of lo and hi alone, (R, 1) in the pair sweeps;
    only theta and the phase take the broadcast shape.  Every value is
    ((phase * live) * h**(p+1)) * N_p(theta), and the degree-0 row, which
    multiplies by the real N_0, has the same bits for every pmax.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    live = h > 0.0
    hs = np.where(live, h, 0.0)
    omega = _TWO_PI * np.asarray(freq, dtype=float)
    mom = centered_moments(omega * hs, pmax)
    scale = np.exp(1j * (omega * mid))
    scale *= np.where(live, 1.0, 0.0)
    if pmax == 0:
        scale *= hs
        scale *= mom[0]
        return scale[None]
    for p in range(pmax + 1):
        mom[p] *= scale * hs ** (p + 1)
    return mom


def indicator_transform(lo, hi, s):
    """Fourier transform int_lo^hi exp(2*pi*i*s*t) dt of an indicator."""
    return interval_moments(lo, hi, s, 0)[0]


def paired_inner_sweep(a, b, df):
    """Per-pair inner products <a_r, exp(2*pi*i*df*t) * b_r> for paired term
    rows a and b, each (lo, hi, coef, freq) of the same length R, and
    modulations df of shape (D,) or (R, D).

    Returns a complex (R, D) array, one row per pair, evaluated in place;
    the moment depth adapts to the polynomial degrees present.  Every
    caller takes its pairs from _translated_pairs, so the cells of each
    pair overlap; a pair with empty overlap would come out as exact zeros
    through the live mask of interval_moments.
    """
    lo, hi, poly = _pair_product(a, b)
    freq = (a[3] - b[3])[:, None] - np.asarray(df, dtype=float)
    mom = interval_moments(lo[:, None], hi[:, None], freq, poly.shape[1] - 1)
    acc = np.zeros(freq.shape, dtype=complex)
    for p in range(poly.shape[1]):
        acc += poly[:, p, None] * mom[p]
    return acc


def _pair_product(a, b):
    """Overlap cell [lo, hi) of paired term rows a and b and the product
    a_r(t) * conj(b_r(t)) on it, without its modulation: (lo, hi, poly),
    poly in powers of (t - (lo + hi)/2), of degree the sum of the sides'
    live degrees."""
    loa, hia, coefa, _ = a
    lob, hib, coefb, _ = b
    lo = np.maximum(loa, lob)
    hi = np.minimum(hia, hib)
    mid = 0.5 * (lo + hi)
    # recentering preserves the degree and leaves constants unchanged
    dega = _live_degree(coefa)
    degb = _live_degree(coefb)
    a = _recenter(coefa, mid - 0.5 * (loa + hia)) if dega else coefa
    b = np.conj(_recenter(coefb, mid - 0.5 * (lob + hib)) if degb else coefb)
    poly = np.zeros((lo.size, dega + degb + 1), dtype=complex)
    for p in range(dega + 1):
        for q in range(degb + 1):
            poly[:, p + q] += a[:, p] * b[:, q]
    return lo, hi, poly


def _live_degree(coef):
    for p in range(coef.shape[1] - 1, 0, -1):
        if np.count_nonzero(coef[:, p]):
            return p
    return 0


def _row_degree(coef):
    """Degree of the polynomial of every row."""
    return np.max((coef != 0) * np.arange(coef.shape[1]), axis=1, initial=0)


def _recenter(coef, shift):
    """Re-expand centered polynomial coefficients about mid + shift.

    coef has shape (..., MAX_DEGREE+1); returns coefficients of the same
    polynomial written in powers of (t - (mid + shift)).
    """
    c0, c1, c2 = coef[..., 0], coef[..., 1], coef[..., 2]
    out = np.empty_like(coef)
    out[..., 0] = c0 + c1 * shift + c2 * shift * shift
    out[..., 1] = c1 + 2.0 * c2 * shift
    out[..., 2] = c2
    return out


def _term_values(t, j, x):
    """Values of the terms j of the term row t at the points x."""
    lo, hi, coef, freq = t
    s = x - 0.5 * (lo[j] + hi[j])
    val = coef[j, 0] + coef[j, 1] * s + coef[j, 2] * s * s
    return val * np.exp(1j * _TWO_PI * freq[j] * x)


def _ranges(first, count):
    """Concatenated integer ranges [first_r, first_r + count_r).  Returns
    the range index r of every element and its value, ranges in order.
    Float counts (of shifts) must sum below 2^62, so that their int64 form
    and running sum cannot overflow; else this raises DomainError."""
    count = np.asarray(count)
    total = count.sum(dtype=float)
    if not total < 2.0 ** 62:
        raise DomainError(f"cannot enumerate {total:.3g} shifts: the "
                          "lattice step is out of scale with the cells")
    count = count.astype(np.int64)
    rep = np.arange(count.size).repeat(count)
    rank = np.arange(rep.size) - (count.cumsum() - count)[rep]
    return rep, first[rep] + rank


def _cross_join(first_a, count_a, first_b, count_b):
    """Cross join of paired runs: run r of A is the indices first_a[r] up
    to first_a[r] + count_a[r], likewise B, all given as arrays.  Returns
    (ia, ib, run) covering, run by run, every pair of an index of A's run
    and one of B's, A-major.
    """
    run, rank = _ranges(np.zeros(count_b.size, dtype=np.int64),
                        count_a * count_b)
    cb = count_b[run]
    return first_a[run] + rank // cb, first_b[run] + rank % cb, run


def _seg_key(seg, x):
    """seg + i x.  Complex numbers compare lexicographically, so the key
    sorts and searches as the pair (seg, x)."""
    return seg + 1j * x


def _overlap_shifts(lo1, hi1, lo2, hi2, step, nmax):
    """Expand paired cells over the integers n, |n| <= nmax, at which
    [lo1, hi1) and [lo2 + n step, hi2 + n step) can overlap, plus one n at
    each end whose exact-zero term guards against rounding.  Returns the
    pair index and the n of every row: pairs in order, n ascending."""
    n_lo = np.maximum(np.floor((lo1 - hi2) / step), -nmax)
    n_hi = np.minimum(np.ceil((hi1 - lo2) / step), nmax)
    return _ranges(n_lo, np.maximum(n_hi - n_lo + 1, 0))


def _translated_pairs(starts_a, lo_a, hi_a, starts_b, lo_b, hi_b, step,
                      nmax):
    """Same-segment term pairs of tables A and B, expanded over the n,
    |n| <= nmax, at which the cells can meet (_overlap_shifts), with the B
    cell moved to [lo_b', hi_b') = [lo_b, hi_b) + n step; keeps the rows
    where min(hi_a, hi_b') > max(lo_a, lo_b').  Returns (ia, ib, seg, n,
    lo_b', hi_b') in (segment, ia, ib, n) order.

    Table A is terms starts_a[0] to starts_a[-1], segment s from
    starts_a[s]; likewise B.  The candidates are the segment cross join
    (_cross_join) when nmax is infinite, where any reach covers whole
    segments, or when A or B holds at most one term in every segment,
    where the join is linear in the terms.  Otherwise each A term takes
    the B terms of its segment with lo in (lo_a - w - nmax step, hi_a +
    nmax step), w the widest B cell, by binary search in B sorted by
    (segment, lo), the reach widened by a few ulps so that rounding in the
    moved cells drops no row.  Both keep the same rows.
    """
    starts_a, starts_b = np.asarray(starts_a), np.asarray(starts_b)
    a0, a1, b0, b1 = starts_a[0], starts_a[-1], starts_b[0], starts_b[-1]
    count_a = starts_a[1:] - starts_a[:-1]
    count_b = starts_b[1:] - starts_b[:-1]
    segs = np.arange(count_a.size)
    seg_a = segs.repeat(count_a)
    searched = (nmax != np.inf and count_a.max(initial=0) > 1
                and count_b.max(initial=0) > 1)
    if searched:
        la, ha, lb, hb = lo_a[a0:a1], hi_a[a0:a1], lo_b[b0:b1], hi_b[b0:b1]
        key = _seg_key(segs.repeat(count_b), lb)
        order = key.argsort(kind="stable")
        key = key[order]
        scale = np.abs(np.concatenate((la, ha, lb, hb))).max(initial=0.0)
        # a reach past every cell finds what an infinite one would, and
        # keeps the search keys finite
        pad = min(nmax * step, 4.0 * scale)
        slack = _ULPS * (scale + pad)
        reach = (hb - lb).max(initial=0.0) + pad + slack
        first = key.searchsorted(_seg_key(seg_a, la - reach), side="right")
        stop = key.searchsorted(_seg_key(seg_a, ha + (pad + slack)),
                                side="left")
        rep, pos = _ranges(first, np.maximum(stop - first, 0))
        ia, ib = a0 + rep, b0 + order[pos]
    else:
        ia, ib, _ = _cross_join(starts_a[:-1], count_a, starts_b[:-1],
                                count_b)
    if nmax:    # at nmax = 0 each candidate has the one row n = 0
        rep, n = _overlap_shifts(lo_a[ia], hi_a[ia], lo_b[ib], hi_b[ib],
                                 step, nmax)
        ia, ib = ia[rep], ib[rep]
    else:
        n = np.zeros(ia.size)
    shift = step * n
    lo, hi = lo_b[ib] + shift, hi_b[ib] + shift
    live = np.minimum(hi_a[ia], hi) > np.maximum(lo_a[ia], lo)
    ia, ib, n, lo, hi = ia[live], ib[live], n[live], lo[live], hi[live]
    # searched candidates come in lo order; restore ib order within each
    # A term
    if searched and ((ia[1:] == ia[:-1]) & (ib[1:] < ib[:-1])).any():
        perm = (ia * lo_b.size + ib).argsort(kind="stable")
        ia, ib, n, lo, hi = ia[perm], ib[perm], n[perm], lo[perm], hi[perm]
    return ia, ib, seg_a[ia - a0], n, lo, hi


def _cover_sums(seg, lo, hi, mid, coef, cuts=None, sliver=0.0):
    """Cut the line of every segment at its pieces' ends, and at the
    points cuts = (segments, points) if given; drop the cells no longer
    than sliver (a scalar or one value per segment).  Piece r lies on
    [lo_r, hi_r) in segment seg_r with coefficients coef_r centred at
    mid_r.  Returns the (segment, a, b, sum) of every other cell [a, b),
    in (segment, a) order, with sum the covering pieces' polynomials
    recentred at (a + b) / 2 and added in piece order.
    """
    # cell j lies between keys j and j + 1
    klo, khi = _seg_key(seg, lo), _seg_key(seg, hi)
    extra = [] if cuts is None else [_seg_key(*cuts)]
    key = np.unique(np.concatenate([klo, khi] + extra))
    a, b = key.imag[:-1], key.imag[1:]
    # piece r covers the cells from key lo_r up to key hi_r
    ilo, ihi = np.searchsorted(key, klo), np.searchsorted(key, khi)
    rep, cell = _ranges(ilo, np.maximum(ihi - ilo, 0))
    order = np.argsort(cell, kind="stable")
    rep, cell = rep[order], cell[order]
    total = np.zeros((a.size, coef.shape[1]), dtype=coef.dtype)
    np.add.at(total, cell,
              _recenter(coef[rep], 0.5 * (a + b)[cell] - mid[rep]))
    cseg = key.real[:-1].astype(np.int64)
    keep = np.flatnonzero(key.real[1:] == key.real[:-1])
    keep = keep[b[keep] - a[keep]
                > (sliver[cseg[keep]] if np.ndim(sliver) else sliver)]
    return cseg[keep], a[keep], b[keep], total[keep]


def _modulus_cells(seg, lo, hi, coef, freq):
    """squared_modulus_pieces of the window of every segment as the cells
    (segment, a, b, quad) and why, a dict from each segment that has no
    such form to the reason; the cells of those segments are left out."""
    why = dict.fromkeys(np.unique(seg[freq != 0]).tolist(),
                        "squared modulus needs an unmodulated window")
    live = ~np.isin(seg, list(why))
    cseg, a, b, amp = _cover_sums(seg[live], lo[live], hi[live],
                                  0.5 * (lo + hi)[live], coef[live])
    why.update(dict.fromkeys(np.unique(cseg[amp[:, 2] != 0]).tolist(),
                             "squared modulus needs degree <= 1 per cell"))
    ok = ~np.isin(cseg, list(why))
    a0, a1 = amp[ok, 0], amp[ok, 1]
    quad = np.stack([(a0 * np.conj(a0)).real, 2.0 * (a0 * np.conj(a1)).real,
                     (a1 * np.conj(a1)).real], axis=1)
    return cseg[ok], a[ok], b[ok], quad, why


def product_conj_terms(a, b):
    """Terms of a_r(t) * conj(b_r(t)) for paired term rows, laid out as for
    paired_inner_sweep.  Returns (live, row) with live the indices of the
    pairs whose cells overlap and row their product terms, one each.
    Requires deg(a_r) + deg(b_r) <= MAX_DEGREE for every such pair.
    """
    live = np.nonzero(np.minimum(a[1], b[1]) > np.maximum(a[0], b[0]))[0]
    a, b = _rows(a, live), _rows(b, live)
    if np.any(_row_degree(a[2]) + _row_degree(b[2]) > MAX_DEGREE):
        raise WindowStructureError("product would exceed max degree")
    lo, hi, poly = _pair_product(a, b)
    # the block's degree may pass MAX_DEGREE; no row's does
    coef = np.zeros((lo.size, MAX_DEGREE + 1), dtype=complex)
    coef[:, :poly.shape[1]] = poly[:, :MAX_DEGREE + 1]
    return live, (lo, hi, coef, a[3] - b[3])


def affine_terms(t, c):
    """Term row of w(t / c) for the term row t of w and real c != 0, one c
    for all terms or one per term."""
    lo, hi, coef, freq = t
    c = np.asarray(c, dtype=float)
    if np.any(c == 0):
        raise WindowStructureError("affine substitution needs c != 0")
    lo, hi = lo * c, hi * c
    flip = c < 0
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    coef = coef / c[..., None] ** np.arange(MAX_DEGREE + 1)
    return lo, hi, coef, freq / c


def _rows(t, i):
    """The rows i of the term row t."""
    return tuple(x[i] for x in t)


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


def _segment_inner(starts_a, a, starts_b, b, step, nmax, rate, df):
    """Inner products H[j, s, d] = <a_s, exp(2*pi*i*rate[s]*df[d]*t) *
    b_s(t - n_j step)> of the windows of every segment s of two term
    tables, over the translations |n_j| <= nmax at which some cells meet;
    the modulation table rate[s] * df[d] is formed per sweep.  Returns
    (n, H): n the ascending int64 n_j, H complex (n.size, segments,
    df.size).

    Segment s of A is its terms starts_a[s] to starts_a[s + 1], likewise B.
    The (pair, n) rows come from _translated_pairs in segment blocks of at
    most _PAIR_BLOCK candidates times 2 nmax + 1, swept n-major in runs of
    at most max(1, _PAIR_BLOCK // (4 df.size)) rows of one translation.
    np.add.at adds each run's values into the slab in row order, so no
    result depends on where a run ends.  Memory: one block's scratch, one
    slab H[j] per live n_j.
    """
    starts_a, starts_b = np.asarray(starts_a), np.asarray(starts_b)
    run = max(1, _PAIR_BLOCK // (4 * df.size))
    slabs = defaultdict(lambda: np.zeros((starts_a.size - 1, df.size),
                                         dtype=complex))
    for start, stop in _blocks(np.diff(starts_a) * np.diff(starts_b)
                               * (2 * nmax + 1)):
        rows = _translated_pairs(starts_a[start:stop + 1], a[0], a[1],
                                 starts_b[start:stop + 1], b[0], b[1], step,
                                 nmax)
        # n-major; at nmax = 0 every row has n = 0
        perm = np.argsort(rows[3], kind="stable") if nmax else slice(None)
        ia, ib, seg, n, lo, hi = (x[perm] for x in rows)
        seg += start
        # translation j - nmax has the rows ends[j] to ends[j + 1]
        ends = n.searchsorted(np.arange(-nmax, nmax + 2) - 0.5)
        for j in np.flatnonzero(np.diff(ends)):
            for s in range(ends[j], ends[j + 1], run):
                e = min(s + run, ends[j + 1])
                coef, freq = b[2][ib[s:e]], b[3][ib[s:e]]
                if j != nmax:   # B moved by n step
                    coef = coef * np.exp(
                        -1j * _TWO_PI * freq * (step * n[s:e]))[:, None]
                vals = paired_inner_sweep(
                    _rows(a, ia[s:e]), (lo[s:e], hi[s:e], coef, freq),
                    rate[seg[s:e], None] * df)
                for d in range(df.size):
                    np.add.at(slabs[j][:, d], seg[s:e], vals[:, d])
    n = np.array(sorted(slabs), dtype=np.int64)
    H = [slabs.pop(j) for j in n]
    return n - nmax, (H[0][None] if n.size == 1 else np.array(
        H, dtype=complex).reshape(n.size, starts_a.size - 1, df.size))


def _like_terms(starts, t):
    """The terms of one table, segment s from starts[s], with bit-equal
    (segment, lo, hi, freq) merged by adding their coefficient rows in
    table order.  Returns the segment of every merged term and its term
    row, in (segment, lo, hi, freq) order."""
    lo, hi, coef, freq = (x[starts[0]:starts[-1]] for x in t)
    seg = np.arange(starts.size - 1).repeat(np.diff(starts))
    order = np.lexsort((freq, hi, lo, seg))
    seg, lo, hi, freq = seg[order], lo[order], hi[order], freq[order]
    new = np.ones(seg.size, dtype=bool)
    new[1:] = ((seg[1:] != seg[:-1]) | (lo[1:] != lo[:-1])
               | (hi[1:] != hi[:-1]) | (freq[1:] != freq[:-1]))
    first = np.flatnonzero(new)
    coef = np.add.reduceat(coef[order], first, axis=0)
    return seg[first], (lo[first], hi[first], coef, freq[first])


def _cell_classes(seg, t):
    """Group the merged terms (seg, t) of _like_terms by bit-equal cell.
    Returns the first term and size of every class, whether it is regular,
    and for the terms of regular classes the slot l and for the classes the
    step delta with freq = f0 + l delta, f0 the class's lowest frequency
    (both None when no class has two terms).

    A class is regular when it has n >= 2 terms, all of degree 0, whose
    frequencies are f0 + l delta for distinct integers 0 <= l < 2n, each
    within _ULPS of the class's largest |freq|.  delta is first the
    smallest gap; l is cast to an integer only where the quotient
    (freq - f0) / delta lies below 2n, so a spread that overflows it or a
    gap far below the rest leaves the class irregular.
    """
    lo, hi, coef, freq = t
    new = np.ones(seg.size, dtype=bool)
    new[1:] = (seg[1:] != seg[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    first = np.flatnonzero(new)
    size = np.diff(np.append(first, seg.size))
    regular = size >= 2
    if not regular.any():
        return first, size, regular, None, None
    last = first + size - 1
    cls = np.cumsum(new) - 1
    f0, f1 = freq[first], freq[last]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gap = np.diff(freq, prepend=np.inf)
        gap[first] = np.inf
        quot = (freq - f0[cls]) / np.minimum.reduceat(gap, first)[cls]
        fit = quot < 2.0 * size[cls] - 0.5
        slot = np.rint(np.where(fit, quot, 0.0)).astype(np.int64)
        step = (f1 - f0) / np.maximum(slot[last], 1)
        fit &= (np.abs(f0[cls] + slot * step[cls] - freq)
                <= _ULPS * np.maximum(np.abs(f0), np.abs(f1))[cls])
    fit &= (coef[:, 1] == 0) & (coef[:, 2] == 0)
    fit[1:] &= new[1:] | (slot[1:] > slot[:-1])
    regular &= np.logical_and.reduceat(fit, first)
    return first, size, regular, slot, step


def _lag_sums(lo, hi, v, slot, step, first, size):
    """Squared norms of the given regular classes (_cell_classes):
    sum_d K(d delta) R(d) with K(x) the moment int exp(2 pi i x t) dt over
    the cell and R(d) = sum_l V[l + d] conj(V[l]) the correlation of the
    coefficients V by slot, the lag 0 once and every other lag twice its
    real part.  Classes of one span share one (classes, span) array."""
    span = slot[first + size - 1] + 1
    out = np.empty(first.size)
    for m in np.unique(span):
        cls = np.flatnonzero(span == m)
        rows, terms = _ranges(first[cls], size[cls])
        table = np.zeros((cls.size, m), dtype=complex)
        table[rows, slot[terms]] = v[terms]
        conj = np.conj(table)
        corr = np.empty_like(table)
        for d in range(m):
            corr[:, d] = np.einsum("ij,ij->i", table[:, d:], conj[:, :m - d])
        at = first[cls, None]
        k = interval_moments(lo[at], hi[at], step[cls, None] * np.arange(m),
                             0)[0]
        prod = (k * corr).real
        out[cls] = prod[:, 0] + 2.0 * prod[:, 1:].sum(axis=1)
    return out


def _segment_norm2(starts, t):
    """Real squared norms of the window of every segment of one term table,
    laid out as for _segment_inner, unclipped.

    Terms with bit-equal (segment, lo, hi, freq) are merged first
    (_like_terms), and the merged terms are grouped by cell
    (_cell_classes).  A regular class, modulations of degree 0 one step
    apart, is summed as one coefficient correlation (_lag_sums).  Every
    other overlapping pair is taken once: _translated_pairs at nmax = 0
    pairs the class cells with themselves, in segment blocks of at most
    _PAIR_BLOCK candidates, c * c for c cells in a segment; of its ordered
    cell pairs ca < cb are kept, and the diagonal of every class that is
    not regular.  _cross_join expands each kept class pair to its term
    pairs, those ia <= ib of a class with itself, in blocks of at most
    _PAIR_BLOCK / 4 rows, as _segment_inner bounds a sweep.  The diagonal
    adds the real part of its inner product and every other pair twice
    it, since <a, b> + <b, a> = 2 Re <a, b>, in pair order; a one-term
    class keeps the bits of its diagonal row.  It runs on whole segments
    of at most _PAIR_BLOCK / 32 terms, which moves no bit: a segment's
    norm reads only its own terms.
    """
    starts = np.asarray(starts)
    out = np.zeros(starts.size - 1)
    if starts[-1] == starts[0]:
        return out
    if out.size > 1 and 32 * (starts[-1] - starts[0]) > _PAIR_BLOCK:
        return np.concatenate([_segment_norm2(starts[s0:s1 + 1], t)
                               for s0, s1 in _blocks(32 * np.diff(starts))])
    seg, merged = _like_terms(starts, t)
    first, size, regular, slot, step = _cell_classes(seg, merged)
    cstarts = np.searchsorted(seg[first], np.arange(starts.size))
    counts = np.diff(cstarts)
    lo, hi = merged[0][first], merged[1][first]
    for start, stop in _blocks(counts * counts):
        cells = cstarts[start:stop + 1]
        ca, cb, *_ = _translated_pairs(cells, lo, hi, cells, lo, hi, 1.0, 0)
        keep = (ca < cb) | ((ca == cb) & ~regular[ca])
        ca, cb = ca[keep], cb[keep]
        for i, j in _blocks(4 * size[ca] * size[cb]):
            a, b = ca[i:j], cb[i:j]
            ia, ib, _ = _cross_join(first[a], size[a], first[b], size[b])
            # classes lie in term order, so this holds wherever a < b
            keep = ia <= ib
            ia, ib = ia[keep], ib[keep]
            vals = paired_inner_sweep(_rows(merged, ia), _rows(merged, ib),
                                      np.zeros(1))[:, 0]
            np.add.at(out, seg[ia], np.where(ia == ib, 1.0, 2.0) * vals.real)
    reg = np.flatnonzero(regular)
    if reg.size:
        np.add.at(out, seg[first[reg]],
                  _lag_sums(merged[0], merged[1], merged[2][:, 0], slot,
                            step[reg], first[reg], size[reg]))
    return out


class Window:
    """Immutable modulated piecewise-polynomial function of one variable."""

    __slots__ = ("lo", "hi", "coef", "freq")

    def __init__(self, lo, hi, coef, freq):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        coef = np.atleast_2d(np.asarray(coef, dtype=complex))
        freq = np.atleast_1d(np.asarray(freq, dtype=float))
        if coef.shape != (lo.size, MAX_DEGREE + 1):
            raise WindowStructureError(
                f"coef must have shape (n_terms, {MAX_DEGREE + 1})")
        self.lo, self.hi, self.coef, self.freq = lo, hi, coef, freq

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(np.empty(0), np.empty(0),
                   np.empty((0, MAX_DEGREE + 1), dtype=complex), np.empty(0))

    @classmethod
    def indicator(cls, a, b, scale=1.0):
        """scale * 1_[a, b)."""
        if not b > a:
            return cls.zero()
        coef = np.zeros((1, MAX_DEGREE + 1), dtype=complex)
        coef[0, 0] = scale
        return cls([a], [b], coef, [0.0])

    @classmethod
    def piecewise_linear(cls, breaks, values):
        """Continuous piecewise-linear interpolant of (breaks, values).

        breaks must be strictly increasing; the window vanishes outside
        [breaks[0], breaks[-1]].
        """
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=complex)
        if breaks.ndim != 1 or breaks.size < 2 or values.shape != breaks.shape:
            raise WindowStructureError("need matching 1d breaks and values")
        if not np.all(np.diff(breaks) > 0):
            raise WindowStructureError("breaks must be strictly increasing")
        lo, hi = breaks[:-1], breaks[1:]
        mid = 0.5 * (lo + hi)
        slope = np.diff(values) / (hi - lo)
        coef = np.zeros((lo.size, MAX_DEGREE + 1), dtype=complex)
        coef[:, 0] = values[:-1] + slope * (mid - lo)
        coef[:, 1] = slope
        return cls(lo, hi, coef, np.zeros(lo.size))

    @classmethod
    def from_samples(cls, offset, step, samples):
        """Piecewise-linear window through uniformly spaced samples."""
        samples = np.asarray(samples, dtype=complex)
        breaks = offset + step * np.arange(samples.size)
        return cls.piecewise_linear(breaks, samples)

    # -- structure ---------------------------------------------------------

    @property
    def n_terms(self):
        return self.lo.size

    @property
    def terms(self):
        """The term row (lo, hi, coef, freq)."""
        return self.lo, self.hi, self.coef, self.freq

    def support(self):
        """Smallest closed interval containing all terms, or None if empty."""
        if self.n_terms == 0:
            return None
        return float(self.lo.min()), float(self.hi.max())

    def is_plain_indicator(self):
        """Single unmodulated constant-coefficient term."""
        return (self.n_terms == 1 and self.freq[0] == 0.0
                and self.coef[0, 1] == 0 and self.coef[0, 2] == 0)

    # -- algebra -----------------------------------------------------------

    def translate(self, dt):
        """w(t - dt)."""
        phase = np.exp(-1j * _TWO_PI * self.freq * dt)
        return Window(self.lo + dt, self.hi + dt,
                      self.coef * phase[:, None], self.freq)

    def modulate(self, df):
        """exp(2*pi*i*df*t) * w(t)."""
        return Window(self.lo, self.hi, self.coef, self.freq + df)

    def scaled(self, c):
        return Window(self.lo, self.hi, self.coef * c, self.freq)

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__

    def __add__(self, other):
        return Window(np.concatenate([self.lo, other.lo]),
                      np.concatenate([self.hi, other.hi]),
                      np.concatenate([self.coef, other.coef]),
                      np.concatenate([self.freq, other.freq]))

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def affine_substitute(self, c):
        """w(t / c) for real c != 0.  Stays in the family."""
        return Window(*affine_terms(self.terms, c))

    def product_conj(self, other):
        """Pointwise product w1(t) * conj(w2(t)) as a window.

        Requires deg(w1) + deg(w2) <= MAX_DEGREE.
        """
        i, j, *_ = _translated_pairs([0, self.n_terms], self.lo, self.hi,
                                     [0, other.n_terms], other.lo, other.hi,
                                     1.0, 0)
        return Window(*product_conj_terms(_rows(self.terms, i),
                                          _rows(other.terms, j))[1])

    # -- analysis ----------------------------------------------------------

    def integral(self):
        """int w(t) dt in closed form."""
        if self.n_terms == 0:
            return 0.0 + 0.0j
        mom = interval_moments(self.lo, self.hi, self.freq, MAX_DEGREE)
        total = 0.0 + 0.0j
        for p in range(MAX_DEGREE + 1):
            total += np.sum(self.coef[:, p] * mom[p])
        return complex(total)

    def inner(self, other):
        """<w1, w2> = int w1(t) conj(w2(t)) dt, exact."""
        return complex(self.inner_freq_sweep(other, 0.0))

    def inner_freq_sweep(self, other, df):
        """<w1, exp(2*pi*i*df*t) * w2> for an array of modulations df, in
        the shape of df: the n = 0 slice of _segment_inner, zero where no
        cells meet.  All df values share the overlap structure.
        """
        df = np.asarray(df, dtype=float)
        _, H = _segment_inner([0, self.n_terms], self.terms,
                              [0, other.n_terms], other.terms, 1.0, 0,
                              np.ones(1), df.ravel())
        return H.sum(axis=0)[0].reshape(df.shape)

    def norm2(self):
        """Squared L2 norm, exact and nonnegative (_segment_norm2)."""
        return max(float(_segment_norm2([0, self.n_terms], self.terms)[0]),
                   0.0)

    def __call__(self, t):
        """Pointwise values on half-open cells [lo, hi)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.zeros(tt.shape, dtype=complex)
        for j in range(self.n_terms):
            mask = (tt >= self.lo[j]) & (tt < self.hi[j])
            if mask.any():
                out[mask] += _term_values(self.terms, j, tt[mask])
        return complex(out[0]) if scalar else out

    def squared_modulus_pieces(self):
        """|w|^2 as real quadratics on a breakpoint partition.

        Only defined when every term is unmodulated (freq == 0); cross terms
        between modulated pieces would leave the polynomial family.  Returns
        (breaks, quad) with quad[c] = (q0, q1, q2) the coefficients of
        |w|^2 in powers of (t - cell midpoint) on [breaks[c], breaks[c+1]).
        """
        _, a, b, quad, why = _modulus_cells(
            np.zeros(self.n_terms, dtype=np.int64), self.lo, self.hi,
            self.coef, self.freq)
        if why:
            raise WindowStructureError(why[0])
        return np.append(a, b[-1:]), quad
