"""Seeded synthesis of test fields and test functions.

Verification needs test inputs whose truncation behavior is analyzable:
combinations of lattice translates of a reference field have exactly
sparse coefficients against an orthonormal translate system, and
piecewise-linear slices keep every inner product in closed form.  All
generators are deterministic in their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import FieldSample, LambdaGrid, field_sum
from .group import LatticeIndex, QuasiLatticeSpec
from .windows import Window

DEFAULT_SEED = 0x5EED
_SLICE_MARGIN = 1.5  # how far two_slice_field's slices reach past g's


@dataclass(frozen=True)
class AtomSuite:
    """A shared set of lattice-translate atoms with per-function coefficient
    rows: function s is sum_j coeffs[s, j] * T_{indices[j]} base."""

    base: FieldSample
    spec: QuasiLatticeSpec
    indices: tuple
    coeffs: np.ndarray

    @property
    def n_functions(self):
        return self.coeffs.shape[0]

    def atoms(self):
        a, b = self.spec.alpha, self.spec.beta
        return [self.base.heisenberg_translate(a * g.k, b * g.l, float(g.m))
                for g in self.indices]

    def fields(self):
        atoms = self.atoms()
        return [field_sum(atoms, self.coeffs[s])
                for s in range(self.n_functions)]


def atom_suite(base: FieldSample, spec: QuasiLatticeSpec, n_functions: int,
               n_atoms: int, box=(2, 8, 4), seed: int = DEFAULT_SEED,
               extra_indices=()) -> AtomSuite:
    """Sample distinct atom indices inside the box, plus any forced extras,
    and draw unit-norm coefficient rows."""
    rng = np.random.default_rng(seed)
    # flat positions in the box, k-major then l then m
    shape = tuple(max(2 * b + 1, 0) for b in box)
    if n_atoms > math.prod(shape):
        raise DomainError("box too small for the requested atom count")
    picks = rng.choice(math.prod(shape), size=n_atoms, replace=False)
    indices = [LatticeIndex(*(int(i) - b for i, b in
                              zip(np.unravel_index(p, shape), box)))
               for p in sorted(picks)]
    indices.extend(LatticeIndex(*idx) for idx in extra_indices)
    n = len(indices)
    coeffs = rng.normal(size=(n_functions, n)) \
        + 1j * rng.normal(size=(n_functions, n))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return AtomSuite(base=base, spec=spec, indices=tuple(indices),
                     coeffs=coeffs)


def random_pl_window(rng, interval, n_breaks: int = 8) -> Window:
    """Seeded continuous piecewise-linear window on the interval, zero at
    its ends."""
    a, b = interval
    inner = np.sort(rng.uniform(a, b, max(0, n_breaks - 2)))
    breaks = np.concatenate([[a], inner, [b]])
    keep = np.concatenate([[True], np.diff(breaks) > 1e-9])
    breaks = breaks[keep]
    vals = rng.normal(size=breaks.size) + 1j * rng.normal(size=breaks.size)
    vals[0] = vals[-1] = 0.0
    return Window.piecewise_linear(breaks, vals)


def two_slice_field(g: FieldSample, lam: float, seed: int) -> FieldSample:
    """Field with seeded piecewise-linear slices at lam and lam - 1 only,
    each spanning the corresponding slice support of g plus a margin.

    Used to exercise the two-slice orthogonality condition at arbitrary
    spectral points.
    """
    rng = np.random.default_rng(seed)
    nodes = np.array([lam - 1.0, lam])
    grid = LambdaGrid(nodes=nodes, weights=np.ones(2), lambda_min=1e-12,
                      spectral_set=g.grid.spectral_set, rule="twoslice")
    slices = g.slices_at(nodes)
    windows = []
    for k in range(nodes.size):
        sup = slices.slice(k).support()
        if sup is None:
            sup = (0.0, 1.0)
        windows.append(random_pl_window(
            rng, (sup[0] - _SLICE_MARGIN, sup[1] + _SLICE_MARGIN), n_breaks=9))
    return FieldSample.from_windows(grid, windows)


def random_pl_field(grid: LambdaGrid, seed: int, interval=(-2.0, 2.0),
                    n_breaks: int = 6) -> FieldSample:
    """Field with independent seeded piecewise-linear slices on a fixed
    time interval; generic nonzero input for negative controls."""
    rng = np.random.default_rng(seed)
    windows = [random_pl_window(rng, interval, n_breaks)
               for _ in range(grid.n)]
    return FieldSample.from_windows(grid, windows)
