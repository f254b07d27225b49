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
rows in place.  Every term pairing in the package, from Window.inner to
the lattice sweeps, comes from one stage, _translated_pairs, whose exact
overlap test keeps disjoint pairs out of paired_inner_sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, WindowStructureError

_TWO_PI = 2.0 * np.pi
# |theta| below this uses the Taylor series for the centered moments; above,
# the boundary recurrence.  0.5 keeps both branches at ~1e-16 relative error.
_SERIES_CUT = 0.5
_SERIES_TERMS = 18
_ULPS = 8.0 * np.finfo(float).eps  # pair search slack per unit endpoint

MAX_DEGREE = 2


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
        # Series: N_p = 2 * sum_{j: j+p even} (i*theta)^j / (j! * (p+j+1)).
        it = 1j * th[ns]
        power = np.ones(ns.size, dtype=complex)
        acc = np.zeros((pmax + 1, ns.size), dtype=complex)
        fact = 1.0
        for j in range(_SERIES_TERMS):
            if j:
                power = power * it
                fact *= j
            coef = power / fact
            for p in range(pmax + 1):
                if (p + j) % 2 == 0:
                    acc[p] += coef / (p + j + 1)
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


def paired_inner_sweep(loa, hia, mida, coefa, freqa,
                       lob, hib, midb, coefb, freqb, df):
    """Per-pair inner products <a_r, exp(2*pi*i*df*t) * b_r> for paired term
    arrays (same length R) and modulations df of shape (D,) or (R, D).

    Returns a complex (R, D) array, one row per pair, evaluated in place;
    the moment depth adapts to the polynomial degrees present.  Every
    caller takes its pairs from _translated_pairs, so the cells of each
    pair overlap; a pair with empty overlap would come out as exact zeros
    through the live mask of interval_moments.
    """
    df = np.asarray(df, dtype=float)
    lo = np.maximum(loa, lob)
    hi = np.minimum(hia, hib)
    mid = 0.5 * (lo + hi)
    # recentering preserves the degree and leaves constants unchanged
    dega = _live_degree(coefa)
    degb = _live_degree(coefb)
    a = _recenter(coefa, mid - mida) if dega else coefa
    b = np.conj(_recenter(coefb, mid - midb) if degb else coefb)
    pmax = dega + degb
    poly = np.zeros((lo.size, pmax + 1), dtype=complex)
    for p in range(dega + 1):
        for q in range(degb + 1):
            poly[:, p + q] += a[:, p] * b[:, q]
    freq = (freqa - freqb)[:, None] - df
    mom = interval_moments(lo[:, None], hi[:, None], freq, pmax)
    acc = np.zeros(freq.shape, dtype=complex)
    for p in range(pmax + 1):
        acc += poly[:, p, None] * mom[p]
    return acc


def _live_degree(coef):
    for p in range(coef.shape[1] - 1, 0, -1):
        if np.any(coef[:, p] != 0):
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


def _cross_join(starts_a, starts_b):
    """Segmented cross join of two term tables sharing node segmentation,
    given as the segment starts of each.

    Returns (ia, ib, node) index arrays covering, per node, every pair of a
    term from table A and a term from table B, A-major; the tests' brute-
    force reference for _translated_pairs.
    """
    starts_a, starts_b = np.asarray(starts_a), np.asarray(starts_b)
    counts_a = np.diff(starts_a)
    counts_b = np.diff(starts_b)
    node, rank = _ranges(np.zeros(counts_a.size, dtype=np.int64),
                         counts_a * counts_b)
    cb = counts_b[node]
    return starts_a[node] + rank // cb, starts_b[node] + rank % cb, node


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
    starts_a[s]; likewise B.  Each A term takes the B terms of its segment
    with lo in (lo_a - w - nmax step, hi_a + nmax step), w the widest B
    cell, by binary search in B sorted by (segment, lo), the reach widened
    by a few ulps so that rounding in the moved cells drops no row.
    """
    starts_a, starts_b = np.asarray(starts_a), np.asarray(starts_b)
    a0, a1, b0, b1 = starts_a[0], starts_a[-1], starts_b[0], starts_b[-1]
    la, ha, lb, hb = lo_a[a0:a1], hi_a[a0:a1], lo_b[b0:b1], hi_b[b0:b1]
    segs = np.arange(starts_a.size - 1)
    seg_a = segs.repeat(starts_a[1:] - starts_a[:-1])
    # complex numbers compare lexicographically, so seg + i lo sorts and
    # searches as the pair (seg, lo)
    key = segs.repeat(starts_b[1:] - starts_b[:-1]) + 1j * lb
    order = key.argsort(kind="stable")
    key = key[order]
    scale = np.abs(np.concatenate((la, ha, lb, hb))).max(initial=0.0)
    # a reach past every cell finds what an infinite one would, and keeps
    # the search keys finite
    pad = min(nmax * step, 4.0 * scale)
    slack = _ULPS * (scale + pad)
    reach = (hb - lb).max(initial=0.0) + pad + slack
    first = key.searchsorted(seg_a + 1j * (la - reach), side="right")
    stop = key.searchsorted(seg_a + 1j * (ha + (pad + slack)), side="left")
    rep, pos = _ranges(first, np.maximum(stop - first, 0))
    ia, ib = a0 + rep, b0 + order[pos]
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
    # candidates come in lo order; restore ib order within each A term
    if ((ia[1:] == ia[:-1]) & (ib[1:] < ib[:-1])).any():
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
    # complex numbers compare lexicographically, so seg + i x sorts and
    # searches as the pair (seg, x); cell j lies between keys j and j + 1
    klo, khi = seg + 1j * lo, seg + 1j * hi
    extra = [] if cuts is None else [cuts[0] + 1j * cuts[1]]
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


def product_conj_terms(loa, hia, mida, coefa, freqa,
                       lob, hib, midb, coefb, freqb):
    """Terms of a_r(t) * conj(b_r(t)) for paired term arrays, laid out as
    for paired_inner_sweep.  Returns (live, lo, hi, coef, freq) with live
    the indices of the pairs whose cells overlap, one product term each.
    Requires deg(a_r) + deg(b_r) <= MAX_DEGREE for every such pair.
    """
    lo = np.maximum(loa, lob)
    hi = np.minimum(hia, hib)
    live = np.nonzero(hi > lo)[0]
    a, b = coefa[live], coefb[live]
    if np.any(_row_degree(a) + _row_degree(b) > MAX_DEGREE):
        raise WindowStructureError("product would exceed max degree")
    lo, hi = lo[live], hi[live]
    mid = 0.5 * (lo + hi)
    a = _recenter(a, mid - mida[live])
    b = np.conj(_recenter(b, mid - midb[live]))
    coef = np.zeros((lo.size, MAX_DEGREE + 1), dtype=complex)
    coef[:, 0] = a[:, 0] * b[:, 0]
    coef[:, 1] = a[:, 0] * b[:, 1] + a[:, 1] * b[:, 0]
    coef[:, 2] = a[:, 0] * b[:, 2] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 0]
    return live, lo, hi, coef, freqa[live] - freqb[live]


def affine_terms(lo, hi, coef, freq, c):
    """Terms of w(t / c) for real c != 0, one c for all terms or one per
    term; returns (lo, hi, coef, freq)."""
    c = np.asarray(c, dtype=float)
    if np.any(c == 0):
        raise WindowStructureError("affine substitution needs c != 0")
    lo, hi = lo * c, hi * c
    flip = c < 0
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    coef = coef / c[..., None] ** np.arange(MAX_DEGREE + 1)
    return lo, hi, coef, freq / c


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
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def degree(self):
        return _live_degree(self.coef)

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

    def conjugate(self):
        return Window(self.lo, self.hi, np.conj(self.coef), -self.freq)

    def affine_substitute(self, c):
        """w(t / c) for real c != 0.  Stays in the family."""
        return Window(*affine_terms(self.lo, self.hi, self.coef, self.freq,
                                    c))

    def product_conj(self, other):
        """Pointwise product w1(t) * conj(w2(t)) as a window.

        Requires deg(w1) + deg(w2) <= MAX_DEGREE.
        """
        i, j, *_ = _translated_pairs([0, self.n_terms], self.lo, self.hi,
                                     [0, other.n_terms], other.lo, other.hi,
                                     1.0, 0)
        return Window(*product_conj_terms(
            self.lo[i], self.hi[i], self.mid[i], self.coef[i], self.freq[i],
            other.lo[j], other.hi[j], other.mid[j], other.coef[j],
            other.freq[j])[1:])

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
        return complex(np.sum(self.inner_freq_sweep(other, np.zeros(1))))

    def inner_freq_sweep(self, other, df):
        """<w1, exp(2*pi*i*df*t) * w2> for an array of modulations df.

        Returns a complex array with the shape of df.  This is the kernel of
        every Gabor-coefficient sweep: the modulation enters only through the
        frequency difference, so all df values share the overlap structure.
        """
        df = np.asarray(df, dtype=float)
        if self.n_terms == 0 or other.n_terms == 0:
            return np.zeros(df.shape, dtype=complex)
        i, j, *_ = _translated_pairs([0, self.n_terms], self.lo, self.hi,
                                     [0, other.n_terms], other.lo, other.hi,
                                     1.0, 0)
        vals = paired_inner_sweep(
            self.lo[i], self.hi[i], self.mid[i], self.coef[i], self.freq[i],
            other.lo[j], other.hi[j], other.mid[j], other.coef[j],
            other.freq[j], df.ravel())
        return vals.sum(axis=0).reshape(df.shape)

    def norm2(self):
        """Squared L2 norm, exact and nonnegative."""
        return max(self.inner(self).real, 0.0)

    def __call__(self, t):
        """Pointwise values on half-open cells [lo, hi)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.zeros(tt.shape, dtype=complex)
        for j in range(self.n_terms):
            mask = (tt >= self.lo[j]) & (tt < self.hi[j])
            if not mask.any():
                continue
            s = tt[mask] - self.mid[j]
            val = (self.coef[j, 0] + self.coef[j, 1] * s
                   + self.coef[j, 2] * s * s)
            out[mask] += val * np.exp(1j * _TWO_PI * self.freq[j] * tt[mask])
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
