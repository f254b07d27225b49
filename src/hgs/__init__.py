"""Gabor fields, sampling and interpolation for multiplicity-free
left-invariant subspaces on the Heisenberg group."""

from .canonical import (IntervalPair, SincIntervals, canonical_field,
                        canonical_window, intervals_Ik, sinc_intervals,
                        tiling_check)
from .fieldcheck import (GaborFieldReport, ThetaReport,
                         coefficient_cross_orthogonality,
                         gabor_field_verdict, gram_entry,
                         jittered_unit_grid, orthogonality_residual,
                         orthogonality_residuals, parseval_residual, theta,
                         theta_delta_report, translate_field)
from .gabor import (NormConditionReport, frame_bounds_empirical,
                    norm_condition_check, painless_residual)
from .grids import (FieldSample, LambdaGrid, SpectralSet, TimeGrid,
                    field_inner, field_load, field_save, field_sum,
                    gauss_lambda_grid, lambda_grid, plancherel_measure)
from .group import (GroupPoint, LatticeIndex, QuasiLatticeSpec, group_inv,
                    group_mul, schrodinger_apply)
from .sampling import (DensityVerdict, GramCheckReport, SampleSet,
                       evaluate_phi, interpolation_verdict, isometry_ratio,
                       onb_gram_check, reconstruct, reconstruction_study,
                       sample_on_lattice)
from .sinc import (G_xy, S0_closed, S1_closed, S_quadrature, SincValue,
                   seeded_strip_points, sinc_compare)
from .testfields import AtomSuite, atom_suite, two_slice_field
from .windows import Window

__all__ = [
    "AtomSuite", "DensityVerdict", "FieldSample", "G_xy",
    "GaborFieldReport", "GramCheckReport", "GroupPoint", "IntervalPair",
    "LambdaGrid", "LatticeIndex", "NormConditionReport", "QuasiLatticeSpec",
    "S0_closed", "S1_closed", "S_quadrature", "SampleSet", "SincIntervals",
    "SincValue", "SpectralSet", "ThetaReport", "TimeGrid", "Window",
    "atom_suite", "canonical_field", "canonical_window",
    "coefficient_cross_orthogonality", "evaluate_phi", "field_inner",
    "field_load", "field_save", "field_sum", "frame_bounds_empirical",
    "gabor_field_verdict", "gauss_lambda_grid", "gram_entry",
    "group_inv", "group_mul", "interpolation_verdict", "intervals_Ik",
    "isometry_ratio", "jittered_unit_grid", "lambda_grid",
    "norm_condition_check", "onb_gram_check",
    "orthogonality_residual", "orthogonality_residuals",
    "painless_residual", "parseval_residual",
    "plancherel_measure", "reconstruct", "reconstruction_study",
    "sample_on_lattice", "schrodinger_apply", "seeded_strip_points",
    "sinc_compare", "sinc_intervals", "theta", "theta_delta_report",
    "tiling_check", "translate_field", "two_slice_field",
]

__version__ = "0.1.0"
