"""Pointwise evaluation on the group, lattice sampling, the sampling
isometry, series reconstruction, and the interpolation density verdict.

Point evaluation uses the reproducing identity in transform space: the
value of a subspace element at a group point is its inner product against
the group-translated unit field.  The sampling constant is never assumed:
the isometry ratio estimates it empirically, while the density verdict
reports the closed-form target separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FieldFormatError
from .fieldcheck import lattice_coefficients
from .grids import FieldSample, SpectralSet, field_inner, plancherel_measure
from .group import GroupPoint, LatticeIndex, QuasiLatticeSpec
from .windows import interval_moments

_TWO_PI = 2.0 * math.pi


def evaluate_phi(f: FieldSample, e: FieldSample, x: GroupPoint) -> complex:
    """phi(x) = <f, (group translate by x) e> on the common grid.

    Linear in f; for f = e at the identity this returns the quadrature
    mass of the spectral set.
    """
    return field_inner(f, e.heisenberg_translate(x.x1, x.x2, x.x3))


@dataclass
class SampleSet:
    """Samples phi(gamma) over a lattice box in deterministic
    (lexicographic) order."""

    spec: QuasiLatticeSpec
    entries: dict

    def __iter__(self):
        return iter(self.entries.items())

    def __len__(self):
        return len(self.entries)

    def values(self):
        return np.array(list(self.entries.values()), dtype=complex)

    def energy(self):
        return float(np.sum(np.abs(self.values()) ** 2))

    def bounds(self):
        ks = [g.k for g in self.entries]
        ls = [g.l for g in self.entries]
        ms = [g.m for g in self.entries]
        return max(map(abs, ks)), max(map(abs, ls)), max(map(abs, ms))

    def save_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("k,l,m,re,im\n")
            for g, v in self.entries.items():
                fh.write(f"{g.k},{g.l},{g.m},{v.real:.17g},{v.imag:.17g}\n")

    @classmethod
    def load_csv(cls, path, spec: QuasiLatticeSpec):
        entries = {}
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != "k,l,m,re,im":
                raise FieldFormatError("bad sample CSV header", 1)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != 5:
                    raise FieldFormatError("bad sample row", lineno)
                try:
                    k, l, m = int(parts[0]), int(parts[1]), int(parts[2])
                    v = complex(float(parts[3]), float(parts[4]))
                except ValueError as exc:
                    raise FieldFormatError(str(exc), lineno) from None
                entries[LatticeIndex(k, l, m)] = v
        return cls(spec=spec, entries=entries)


def sample_on_lattice(f: FieldSample, e: FieldSample,
                      spec: QuasiLatticeSpec, bounds) -> SampleSet:
    """Evaluate phi at every lattice point of the box, sharing one
    modulation sweep across the whole box."""
    kmax, lmax, mmax = bounds
    coeffs = lattice_coefficients([f], e, spec, kmax, lmax, mmax)[0]
    entries = {}
    for ki, k in enumerate(range(-kmax, kmax + 1)):
        for li, l in enumerate(range(-lmax, lmax + 1)):
            for mi, m in enumerate(range(-mmax, mmax + 1)):
                entries[LatticeIndex(k, l, m)] = complex(coeffs[ki, li, mi])
    return SampleSet(spec=spec, entries=entries)


def isometry_ratio(samples: SampleSet, norm_sq: float) -> float:
    """sum_gamma |phi(gamma)|^2 / ||phi||^2; converges to the sampling
    constant as the box grows."""
    if not norm_sq > 0:
        raise DomainError("need a positive norm")
    return samples.energy() / norm_sq


def _sample_array(samples: SampleSet, grid):
    """The samples as a dense (K, L, M) array over their lattice box, and
    its phase sum over the central index at every grid node, (K, L, N).
    Returns (ks, ls, arr, stilde)."""
    kmax, lmax, mmax = samples.bounds()
    ks = np.arange(-kmax, kmax + 1)
    ls = np.arange(-lmax, lmax + 1)
    ms = np.arange(-mmax, mmax + 1)
    arr = np.zeros((ks.size, ls.size, ms.size), dtype=complex)
    for g, v in samples.entries.items():
        arr[g.k + kmax, g.l + lmax, g.m + mmax] = v
    phases = np.exp(1j * _TWO_PI * np.outer(grid.nodes, ms))
    return ks, ls, arr, np.tensordot(arr, phases, axes=([2], [1]))


def reconstruct(samples: SampleSet, e: FieldSample, c: float) -> FieldSample:
    """(1/c) sum_gamma phi(gamma) T_gamma e, with the phase sum collapsed
    per (node, translation, modulation) so the result stays an exact
    window field of moderate size."""
    if not c > 0:
        raise DomainError("need c > 0")
    spec = samples.spec
    grid = e.grid
    ks, ls, arr, stilde = _sample_array(samples, grid)
    if not np.any(arr):
        return FieldSample.zero(grid)
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
    weight = stilde[np.tile(np.repeat(np.arange(K), L), T),
                    np.tile(np.tile(np.arange(L), K), T),
                    node]
    weight = weight * np.exp(-1j * _TWO_PI * base_freq * shift) / c
    coef = np.repeat(e.term_coef, K * L, axis=0) * weight[:, None]
    return FieldSample(grid, node, lo, hi, coef, freq)


def _reconstruction_norm2_fast(samples: SampleSet, e: FieldSample,
                               c: float):
    """||r||^2 for r = (1/c) sum_gamma s_gamma T_gamma e when every slice
    of e is a single constant-coefficient term no wider than the
    translation step (so distinct shifts never overlap).

    Same-shift term pairs differ only in their modulation index, so the
    double sum over modulations collapses to lag autocorrelations of the
    phase-summed samples against one overlap moment per lag.  Returns None
    when the structure does not apply.
    """
    grid = e.grid
    spec = samples.spec
    counts = np.diff(e._starts)
    if not np.all(counts == 1):
        return None
    if e.term_coef[:, 1:].any():
        return None
    widths = e.term_hi - e.term_lo
    if np.any(widths > spec.alpha * (1.0 + 1e-9)):
        return None
    ks, ls, _, stilde = _sample_array(samples, grid)
    L = ls.size
    M = 1
    while M < 2 * L:
        M *= 2
    ds = np.arange(-(L - 1), L)
    # overlap moment per lag on the unshifted interval, then the shift
    # phase sums the translations
    lam = grid.nodes
    dfreq = -spec.beta * lam[None, :] * ds[:, None]          # (D, N)
    T0 = interval_moments(e.term_lo[None, :], e.term_hi[None, :],
                          dfreq, 0)[0]                       # (D, N)
    # one translation at a time keeps the scratch at O(M N)
    Z = np.zeros(dfreq.shape, dtype=complex)
    for k, st in zip(ks, stilde):
        F = np.fft.fft(st, n=M, axis=0)
        corr = np.fft.ifft(F * np.conj(F), axis=0)  # (M, N), lag d at [d]
        # shifting the interval by alpha*k multiplies the moment at
        # frequency dfreq by exp(2 pi i dfreq alpha k)
        Z += np.exp(1j * _TWO_PI * (spec.alpha * k * dfreq)) * corr[ds]
    dens = np.abs(e.term_coef[:, 0]) ** 2  # one term per node, node order
    total = np.einsum("n,dn,dn->", grid.weights * dens, T0, Z)
    return float(total.real) / (c * c)


def reconstruction_study(f: FieldSample, e: FieldSample,
                         spec: QuasiLatticeSpec, bounds, c: float) -> dict:
    """Sample f on the lattice box, reconstruct, and report the isometry
    ratio and the relative L2 reconstruction error.

    Uses the exact identity <f, r> = (1/c) sum |phi(gamma)|^2 (r is built
    from those very coefficients) and a collapsed form of ||r||^2, so the
    cost stays linear in the box size."""
    samples = sample_on_lattice(f, e, spec, bounds)
    norm_sq = f.norm2()
    ratio = isometry_ratio(samples, norm_sq)
    energy = samples.energy()
    r_norm2 = _reconstruction_norm2_fast(samples, e, c)
    if r_norm2 is None:
        r = reconstruct(samples, e, c)
        err_sq = max((f - r).norm2(), 0.0)
    else:
        err_sq = max(norm_sq - 2.0 * energy / c + r_norm2, 0.0)
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
