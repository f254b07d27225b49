"""Pointwise evaluation on the group, lattice sampling, the sampling
isometry, series reconstruction, and the interpolation density verdict.

Point evaluation uses the reproducing identity in transform space: the
value of a subspace element at a group point is its inner product against
the group-translated unit field.  The sampling constant is never assumed:
the isometry ratio estimates it empirically, while the density verdict
reports the closed-form target separately.  The reconstruction study takes
the norm of the reconstruction from the group law, for any generator, and
never builds it; reconstruct is the reference it is tested against.

Both read <T_gamma e, T_gamma' e> off the twisted Gram tables kept on e
(_self_table).  A field made by AtomSuite.fields carries its lattice
expansion f = sum_j a_j T_{gamma_j} e.  When that is over e itself, the
samples, ||f||^2 and ||f - r||^2 all come from those tables: ||f||^2 is
read off the samples at the atoms, and f - r is again a combination of
translates of e, so its norm is taken directly instead of as a difference
that cancels.  Fields without an expansion, or with one over another base,
take the field route: their terms are swept against e as a one-atom suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FieldFormatError
from .fieldcheck import (_one_atom, _own_suite, _suite_coefficients,
                         _suite_norms, _suite_union, lattice_coefficients)
from .grids import (FieldSample, SpectralSet, _ascii_lines, _phase_table,
                    _self_table, field_inner, plancherel_measure)
from .group import GroupPoint, LatticeIndex, QuasiLatticeSpec, _check_bounds
from .windows import _TWO_PI

# largest lattice box SampleSet.load_csv allocates, in samples (512 MB)
_MAX_BOX_SAMPLES = 1 << 25


def evaluate_phi(f: FieldSample, e: FieldSample, x: GroupPoint) -> complex:
    """phi(x) = <f, (group translate by x) e> on the common grid.

    Linear in f; for f = e at the identity this returns the quadrature
    mass of the spectral set.
    """
    return field_inner(f, e.heisenberg_translate(x.x1, x.x2, x.x3))


@dataclass
class SampleSet:
    """Samples phi(gamma) over the lattice box |k| <= K, |l| <= L,
    |m| <= M, held as a (2K+1, 2L+1, 2M+1) complex array indexed by
    (k + K, l + L, m + M).  Iteration runs over the box in lexicographic
    order; an empty set has shape (0, 0, 0)."""

    spec: QuasiLatticeSpec
    array: np.ndarray

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=complex)
        shape = self.array.shape
        if not (len(shape) == 3 and (all(n % 2 for n in shape)
                                     or not any(shape))):
            raise DomainError(f"sample array needs three odd sizes, "
                              f"got shape {shape}")

    def __iter__(self):
        K, L, M = (n // 2 for n in self.array.shape)
        for (k, l, m), v in np.ndenumerate(self.array):
            yield LatticeIndex(k - K, l - L, m - M), complex(v)

    def __len__(self):
        return self.array.size

    def __getitem__(self, idx: LatticeIndex) -> complex:
        shape = self.array.shape
        pos = tuple(i + n // 2 for i, n in zip(idx.astuple(), shape))
        if not all(0 <= p < n for p, n in zip(pos, shape)):
            raise KeyError(idx)
        return complex(self.array[pos])

    def values(self):
        return self.array.flatten()

    def energy(self):
        return float(np.sum(np.abs(self.array.ravel()) ** 2))

    def bounds(self):
        if not len(self):
            raise DomainError("empty sample set has no lattice box")
        return tuple(n // 2 for n in self.array.shape)

    def save_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("k,l,m,re,im\n")
            for g, v in self:
                fh.write(f"{g.k},{g.l},{g.m},{v.real:.17g},{v.imag:.17g}\n")

    @classmethod
    def load_csv(cls, path, spec: QuasiLatticeSpec):
        """Read a k,l,m,re,im CSV.  Indices missing from the smallest box
        that holds every row read as zero; a repeated index, a value that
        is not finite and a box of more than _MAX_BOX_SAMPLES samples are
        errors.  A header with no rows gives an empty set."""
        lines = _ascii_lines(path, FieldFormatError)
        if next(lines, (1, ""))[1].strip() != "k,l,m,re,im":
            raise FieldFormatError("bad sample CSV header", 1)
        rows = {}
        box = (0, 0, 0)
        for lineno, line in lines:
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise FieldFormatError("bad sample row", lineno)
            try:
                idx = (int(parts[0]), int(parts[1]), int(parts[2]))
                v = complex(float(parts[3]), float(parts[4]))
            except ValueError as exc:
                raise FieldFormatError(str(exc), lineno) from None
            if not cmath.isfinite(v):
                raise FieldFormatError("sample value must be finite", lineno)
            if idx in rows:
                raise FieldFormatError(f"repeated index {idx}, first on "
                                       f"line {rows[idx][0]}", lineno)
            box = tuple(max(b, abs(i)) for b, i in zip(box, idx))
            if math.prod(2 * b + 1 for b in box) > _MAX_BOX_SAMPLES:
                raise FieldFormatError(
                    f"index {idx} widens the lattice box beyond "
                    f"{_MAX_BOX_SAMPLES} samples", lineno)
            rows[idx] = (lineno, v)
        if not rows:
            return cls(spec, np.zeros((0, 0, 0), dtype=complex))
        arr = np.zeros(tuple(2 * b + 1 for b in box), dtype=complex)
        arr[tuple((np.array(list(rows)) + box).T)] = [
            v for _, v in rows.values()]
        return cls(spec, arr)


def sample_on_lattice(f: FieldSample, e: FieldSample,
                      spec: QuasiLatticeSpec, bounds) -> SampleSet:
    """Evaluate phi at every lattice point of the box by one
    _suite_coefficients sweep: of f's lattice expansion if it is one over
    e, by the group law from one e-vs-e table, else of f's one-atom suite,
    its terms swept against e across the whole box."""
    suite = _own_suite(f.expansion, e, spec)
    if suite is None:
        suite = _one_atom(f, spec)
    return SampleSet(spec, _suite_coefficients(suite, e, spec, *bounds)[0])


def isometry_ratio(samples: SampleSet, norm_sq: float) -> float:
    """sum_gamma |phi(gamma)|^2 / ||phi||^2; converges to the sampling
    constant as the box grows."""
    if not norm_sq > 0:
        raise DomainError("need a positive norm")
    return samples.energy() / norm_sq


def reconstruct(samples: SampleSet, e: FieldSample, c: float) -> FieldSample:
    """(1/c) sum_gamma phi(gamma) T_gamma e, with the phase sum collapsed
    per (node, translation, modulation) so the result stays an exact
    window field of moderate size."""
    if not c > 0:
        raise DomainError("need c > 0")
    spec, grid = samples.spec, e.grid
    if not np.any(samples.array):
        return FieldSample.zero(grid)
    kmax, lmax, mmax = samples.bounds()
    ks, ls = np.arange(-kmax, kmax + 1), np.arange(-lmax, lmax + 1)
    # the phase sum over the central index at every node, (K, N, L)
    stilde = np.matmul(_phase_table(grid.nodes, _TWO_PI, mmax),
                       samples.array.transpose(0, 2, 1))
    # r's terms as (e-term, k, l) arrays, broadcast from e's columns
    node, lo, hi, coef, freq = (x[:, None, None]
                                for x in (e.term_node, *e.terms))
    shift = (spec.alpha * ks)[:, None]
    weight = stilde.transpose(1, 0, 2)[e.term_node]
    weight *= np.exp(-1j * _TWO_PI * freq * shift)
    weight /= c
    freq = freq - grid.nodes[node] * spec.beta * ls
    node, lo, hi, freq = (np.broadcast_to(x, weight.shape).ravel()
                          for x in (node, lo + shift, hi + shift, freq))
    return FieldSample(grid, node, lo, hi, coef * weight[..., None], freq)


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    p3 = 3
    while p3 < best:
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best


def _reconstruction_norm2_fast(samples: SampleSet, e: FieldSample,
                               c: float):
    """||r||^2 for r = (1/c) sum_gamma s_gamma T_gamma e, for any e.

    By the group law <T_{k,l,m} e, T_{k+rho,l+dl,m+dm} e> = Y_k(rho, dl,
    dm), e's twisted Gram table (_self_table), and the -rho part of the
    double sum is the conjugate of the rho part, so

        ||r||^2 = (1/c^2) sum_k sum_{rho >= 0} (2 - delta_{rho 0})
                  Re sum_{dl,dm} Y_k(rho, dl, dm)
                  sum_{l,m} s_k(l, m) conj(s_{k+rho}(l + dl, m + dm)).

    The inner sum is a 2-D correlation of two sample rows, taken by
    Parseval: with fft2 of size P x Q >= (4L + 1) x (4M + 1) and Y's lags
    placed circularly, the rho term is (1/PQ) sum_w Yhat(w) F_k(w)
    conj(F_{k+rho}(w)), F_k the fft2 of row k.  So it takes one fft2 per
    sample row and per table, then elementwise products and np.sum; only
    offsets at which cells of e overlap have a table.
    """
    kmax, lmax, mmax = samples.bounds()
    reach = (kmax, 2 * kmax, 2 * lmax, 2 * mmax)
    rho, Y = _self_table(e, samples.spec, *reach)
    shape = (_fft_size(4 * lmax + 1), _fft_size(4 * mmax + 1))
    # lag d at d mod the fft size
    lags = np.ix_(np.arange(-2 * lmax, 2 * lmax + 1) % shape[0],
                  np.arange(-2 * mmax, 2 * mmax + 1) % shape[1])
    K, total = 2 * kmax + 1, 0.0
    F = np.fft.fft2(samples.array, shape)
    for b in range(K):
        for j in np.flatnonzero((rho >= 0) & (rho < K - b)):
            p = b + int(rho[j])
            Yc = np.zeros(shape, dtype=complex)
            Yc[lags] = Y[b, j]
            total += (2.0 - (p == b)) * np.sum(
                np.fft.fft2(Yc) * F[b] * np.conj(F[p])).real
    return float(total) / (shape[0] * shape[1] * c * c)


def _suite_study(suite, e: FieldSample, spec: QuasiLatticeSpec, bounds,
                 c: float):
    """(samples, ||f||^2, ||f - r||^2) for the field f = sum_j a_j
    T_{gamma_j} e of a one-row suite over e, from e's Gram tables
    (_self_table), asked for at the union U of the box and the atom indices
    (kappa reach U_k, the rest doubled) first, so the samples read them too.

    _suite_coefficients samples f on that union, and ||f||^2 = Re sum_j
    conj(a_j) phi(gamma_j) is read off the samples at the atoms
    (_suite_norms).  f - r = sum_gamma d_gamma T_gamma e with d = a - s/c
    on the union, so ||f - r||^2 is one _reconstruction_norm2_fast call
    with nothing to cancel."""
    _check_bounds(*bounds)
    union, at, box = _suite_union(suite, bounds)
    _self_table(e, spec, union[0], *(2 * u for u in union))
    phi = _suite_coefficients(suite, e, spec, *union)
    samples = SampleSet(spec, phi[0][box])
    d = np.zeros(phi.shape[1:], dtype=complex)
    d[box] = -samples.array / c
    # atoms may repeat an index, so their coefficients add up
    np.add.at(d, at, suite.coeffs[0])
    return samples, float(_suite_norms(suite, phi[(slice(None),) + at])[0]), \
        _reconstruction_norm2_fast(SampleSet(spec, d), e, 1.0)


def reconstruction_study(f: FieldSample, e: FieldSample,
                         spec: QuasiLatticeSpec, bounds, c: float) -> dict:
    """Sample f on the lattice box and report the isometry ratio and the
    relative L2 error of the reconstruction r from those samples.

    r is never built.  A field that carries its lattice expansion over e
    is scored by the group law (_suite_study), with no sweep of its terms
    and no cancellation.  Any other field reads ||f - r||^2 = ||f||^2 -
    2 <f, r> + ||r||^2, with <f, r> = (1/c) sum |phi(gamma)|^2 exactly (the
    samples are r's own coefficients) and ||r||^2 from
    _reconstruction_norm2_fast; that sum cancels about ten digits when the
    error is small."""
    if not (c > 0 and 0 < c * c < math.inf):
        raise DomainError(f"sampling constant c = {c:g}: c and c*c must be "
                          "positive and finite")
    suite = _own_suite(f.expansion, e, spec)
    if suite is not None:
        samples, norm_sq, err_sq = _suite_study(suite, e, spec, bounds, c)
    else:
        samples = sample_on_lattice(f, e, spec, bounds)
        norm_sq = f.norm2()
        err_sq = (norm_sq - 2.0 * samples.energy() / c
                  + _reconstruction_norm2_fast(samples, e, c))
    ratio = isometry_ratio(samples, norm_sq)
    return {"bounds": tuple(bounds), "ratio": ratio,
            "recon_error": math.sqrt(max(err_sq, 0.0) / norm_sq),
            "samples": samples}


@dataclass(frozen=True)
class DensityVerdict:
    """Exact density condition for interpolation plus the side conditions
    a sampling pair forces."""

    mu_E: float
    target: float            # 1 / (alpha * beta)
    c: float                 # theoretical sampling constant, 1 / (alpha*beta)
    interpolation: bool
    ab_leq_one: bool
    E_in_window: bool
    lattice_integer: bool


def interpolation_verdict(E: SpectralSet,
                          spec: QuasiLatticeSpec) -> DensityVerdict:
    """Interpolation iff the weighted measure equals 1/(alpha beta); also
    reports the necessary condition alpha*beta <= 1 and the spectral window
    containment."""
    mu = plancherel_measure(E)
    target = 1.0 / (spec.alpha * spec.beta)
    window = target
    bounds = E.bounds()
    in_window = bounds is None or (bounds[0] >= -window - 1e-12
                                   and bounds[1] <= window + 1e-12)
    interpolation = math.isclose(mu, target, rel_tol=1e-12, abs_tol=0.0)
    return DensityVerdict(mu_E=mu, target=target, c=target,
                          interpolation=interpolation,
                          ab_leq_one=spec.alpha * spec.beta <= 1.0 + 1e-15,
                          E_in_window=in_window,
                          lattice_integer=spec.is_integer)


@dataclass(frozen=True)
class GramCheckReport:
    bounds: tuple
    tol: float
    max_deviation: float
    worst_index: LatticeIndex

    @property
    def passed(self):
        return self.max_deviation <= self.tol


def onb_gram_check(e: FieldSample, spec: QuasiLatticeSpec, bounds,
                   tol: float = 1e-3) -> GramCheckReport:
    """max |<T_gamma e, e> - delta_gamma| over the box; passes iff within
    tol, certifying orthonormal translates at quadrature resolution."""
    kmax, lmax, mmax = bounds
    coeffs = np.conj(lattice_coefficients([e], e, spec, kmax, lmax, mmax)[0])
    coeffs[kmax, lmax, mmax] -= 1.0
    dev = np.abs(coeffs)
    top = dev.max()
    # symmetric entries tie up to rounding, which the BLAS kernel decides:
    # take the first index in C order within a relative 1e-9 of the maximum
    flat = int(np.argmax(dev >= (1.0 - 1e-9) * top))
    ki, li, mi = np.unravel_index(flat, dev.shape)
    worst = LatticeIndex(int(ki - kmax), int(li - lmax), int(mi - mmax))
    return GramCheckReport(bounds=tuple(bounds), tol=tol,
                           max_deviation=float(top), worst_index=worst)
