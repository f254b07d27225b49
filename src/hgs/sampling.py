"""Pointwise evaluation on the group, lattice sampling, the sampling
isometry, series reconstruction, and the interpolation density verdict.

Point evaluation uses the reproducing identity in transform space: the
value of a subspace element at a group point is its inner product against
the group-translated unit field.  The sampling constant is never assumed:
the isometry ratio estimates it empirically, while the density verdict
reports the closed-form target separately.  The reconstruction study takes
the norm of the reconstruction from the group law, for any generator, and
never builds it; reconstruct is the reference it is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FieldFormatError
from .fieldcheck import lattice_coefficients
from .grids import (FieldSample, SpectralSet, _node_table, field_inner,
                    plancherel_measure)
from .group import GroupPoint, LatticeIndex, QuasiLatticeSpec
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
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()

        def text(lineno):
            try:
                return lines[lineno - 1].decode("ascii")
            except UnicodeDecodeError:
                raise FieldFormatError("not ASCII text", lineno) from None

        if not lines or text(1).strip() != "k,l,m,re,im":
            raise FieldFormatError("bad sample CSV header", 1)
        rows = {}
        box = (0, 0, 0)
        for lineno in range(2, len(lines) + 1):
            line = text(lineno)
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
    """Evaluate phi at every lattice point of the box, sharing one
    modulation sweep across the whole box."""
    return SampleSet(spec, lattice_coefficients([f], e, spec, *bounds)[0])


def isometry_ratio(samples: SampleSet, norm_sq: float) -> float:
    """sum_gamma |phi(gamma)|^2 / ||phi||^2; converges to the sampling
    constant as the box grows."""
    if not norm_sq > 0:
        raise DomainError("need a positive norm")
    return samples.energy() / norm_sq


def _sample_array(samples: SampleSet, grid):
    """The samples' translation and modulation indices and their phase sum
    over the central index at every grid node, (K, N, L): row k is an
    (N, L) array contiguous along l.  Returns (ks, ls, stilde)."""
    kmax, lmax, mmax = samples.bounds()
    ks = np.arange(-kmax, kmax + 1)
    ls = np.arange(-lmax, lmax + 1)
    ms = np.arange(-mmax, mmax + 1)
    phases = np.exp(1j * _TWO_PI * np.outer(grid.nodes, ms))
    return ks, ls, np.matmul(phases, samples.array.transpose(0, 2, 1))


def reconstruct(samples: SampleSet, e: FieldSample, c: float) -> FieldSample:
    """(1/c) sum_gamma phi(gamma) T_gamma e, with the phase sum collapsed
    per (node, translation, modulation) so the result stays an exact
    window field of moderate size."""
    if not c > 0:
        raise DomainError("need c > 0")
    spec = samples.spec
    grid = e.grid
    if not np.any(samples.array):
        return FieldSample.zero(grid)
    ks, ls, stilde = _sample_array(samples, grid)
    T = e.n_terms
    K, L = ks.size, ls.size
    # term index layout: (e-term, k, l) blocks per source term
    node = np.repeat(e.term_node, K * L)
    shift = np.tile(np.repeat(spec.alpha * ks, L), T)
    lo = np.repeat(e.term_lo, K * L) + shift
    hi = np.repeat(e.term_hi, K * L) + shift
    base_freq = np.repeat(e.term_freq, K * L)
    lam = grid.nodes[node]
    freq = base_freq - lam * spec.beta * np.tile(np.tile(ls, K), T)
    weight = stilde[np.tile(np.repeat(np.arange(K), L), T), node,
                    np.tile(np.tile(np.arange(L), K), T)]
    weight = weight * np.exp(-1j * _TWO_PI * base_freq * shift) / c
    coef = np.repeat(e.term_coef, K * L, axis=0) * weight[:, None]
    return FieldSample(grid, node, lo, hi, coef, freq)


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

    By the group law two translates of e pair through their offset (kappa,
    d) in translation and modulation and a cocycle phase: with H =
    _node_table(e, e) over the doubled box and S from _sample_array,

        ||r||^2 = (1/c^2) sum_n w_n sum_kappa sum_d conj(H_n(kappa, d))
                  sum_k sum_l S_{k+kappa}(l+d) conj(S_k(l))
                  e^{-2 pi i lam_n alpha beta k d}.

    The cocycle factor is u_k(l+d) conj(u_k(l)), u_k(l) = e^{-2 pi i lam_n
    alpha beta k l}, so it folds into the rows: row k becomes P_k = S_k u_k
    and its partner S_{k+kappa} u_k (= P_{k+kappa} e^{2 pi i lam_n alpha
    beta kappa l}).  The lag sum is then a correlation over l, taken by
    Parseval in frequency space: for an FFT length M >= 2L - 1 it is (1/M)
    sum_m conj(Hhat_m) sum_k F(S_{k+kappa} u_k)_m conj(F(P_k)_m), with
    Hhat the FFT of H's lags placed circularly; at kappa = 0 the inner sum
    is sum_k |F(P_k)|^2.  Only kappa at which cells of e overlap
    contribute, and the -kappa part is the conjugate of the kappa part, so
    kappa runs over kappa >= 0 with kappa > 0 counted twice.  The rows
    stream: one row spectrum, and one partner spectrum, is held at a time.
    """
    grid, spec = e.grid, samples.spec
    kmax, lmax, _ = samples.bounds()
    L = 2 * lmax + 1
    M = _fft_size(2 * L - 1)
    live_k, H = _node_table(e, e, spec, 2 * kmax, 2 * lmax)
    kappas, H = live_k[live_k >= 2 * kmax] - 2 * kmax, H[live_k >= 2 * kmax]
    # Hhat with lag d at d mod M; sum_n w_n / M enters the weights below
    Hc = np.zeros(H.shape[:2] + (M,), dtype=complex)
    Hc[..., :L] = H[..., L - 1:]
    Hc[..., M - L + 1:] = H[..., :L - 1]
    del H
    Hhat = np.fft.fft(Hc, axis=-1)
    del Hc
    wts = grid.weights[:, None] / M
    # at kappa = 0 the row sum |F|^2 is real, so only Re(Hhat) enters
    W0 = Hhat[kappas == 0].real.sum(axis=0) * wts
    W = 2.0 * np.conj(Hhat[kappas > 0]) * wts
    kappas = kappas[kappas > 0]
    del Hhat
    ks, ls, S = _sample_array(samples, grid)
    # u_k(l) from one cosine and one sine per node and distinct |k l|
    kl = np.outer(ks, ls)
    q, inv = np.unique(np.abs(kl), return_inverse=True)
    angle = (_TWO_PI * spec.alpha * spec.beta) * np.outer(grid.nodes, q)
    cos, sin = np.cos(angle), np.sin(angle)
    del angle
    total = 0.0
    for b in range(ks.size):
        u = np.empty(S.shape[1:], dtype=complex)
        u.real = cos[:, inv[b]]
        u.imag = sin[:, inv[b]] * -np.sign(kl[b])
        S[b] *= u          # rows above b stay unfolded for their partners
        F = np.fft.fft(S[b], n=M, axis=-1)
        for kappa, Wj in zip(kappas, W):
            if b + kappa < ks.size:
                Q = np.fft.fft(S[b + kappa] * u, n=M, axis=-1)
                Q *= Wj
                total += np.vdot(F, Q).real
        # |F|^2 in place: square F's real view, sum each pair in the dot
        Fv = F.view(float)
        Fv *= Fv
        total += (W0.ravel() @ Fv.reshape(-1, 2)).sum()
        del u, F, Fv     # one row's arrays at a time
    return float(total) / (c * c)


def reconstruction_study(f: FieldSample, e: FieldSample,
                         spec: QuasiLatticeSpec, bounds, c: float) -> dict:
    """Sample f on the lattice box and report the isometry ratio and the
    relative L2 error of the reconstruction r from those samples.

    r is never built: ||f - r||^2 = ||f||^2 - 2 <f, r> + ||r||^2, with
    <f, r> = (1/c) sum |phi(gamma)|^2 exactly (the samples are r's own
    coefficients) and ||r||^2 from _reconstruction_norm2_fast."""
    if not (c > 0 and 0 < c * c < math.inf):
        raise DomainError(f"sampling constant c = {c:g}: c and c*c must be "
                          "positive and finite")
    samples = sample_on_lattice(f, e, spec, bounds)
    norm_sq = f.norm2()
    ratio = isometry_ratio(samples, norm_sq)
    err_sq = max(norm_sq - 2.0 * samples.energy() / c
                 + _reconstruction_norm2_fast(samples, e, c), 0.0)
    return {"bounds": tuple(bounds), "ratio": ratio,
            "recon_error": math.sqrt(err_sq / norm_sq),
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
    flat = int(np.argmax(dev))
    ki, li, mi = np.unravel_index(flat, dev.shape)
    worst = LatticeIndex(int(ki - kmax), int(li - lmax), int(mi - mmax))
    return GramCheckReport(bounds=tuple(bounds), tol=tol,
                           max_deviation=float(dev.max()), worst_index=worst)
