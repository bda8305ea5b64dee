"""Regularized Shannon sampling with localized sampling.

Reconstruct bandlimited functions from 2m equispaced samples per point by
multiplying the sinc kernel with a decaying window (rectangular, Gaussian,
B-spline or sinh-type).  The package provides the windows and their closed
form Fourier transforms, the reconstruction operator, proven uniform error
and noise-robustness bounds, and an experiment harness that measures errors
against those bounds on the standard parameter grids.
"""

from .windows import SamplingConfig, WindowKind, WindowSpec, default_params
from .kernel import KernelEval, ft_psi, ft_window, psi, sinc, tail_bound
from .reconstruct import (
    SampleSet,
    TestFunction,
    TestFunctionKind,
    perturb,
    reconstruct_at,
    reconstruct_grid,
    sample,
)
from .bounds import (
    BoundReport,
    bspline_bound,
    compute_report,
    e1_alias_aware,
    e1_numeric,
    e2_numeric,
    eta,
    gauss_bound,
    noise_amplification,
    rect_bound,
    robustness_bound,
    sinh_bound,
)
from .harness import ExperimentPlan, emit_csv, load_plans, load_preset, run_plan

__all__ = [
    "SamplingConfig",
    "WindowKind",
    "WindowSpec",
    "default_params",
    "KernelEval",
    "ft_psi",
    "ft_window",
    "psi",
    "sinc",
    "tail_bound",
    "SampleSet",
    "TestFunction",
    "TestFunctionKind",
    "perturb",
    "reconstruct_at",
    "reconstruct_grid",
    "sample",
    "BoundReport",
    "bspline_bound",
    "compute_report",
    "e1_alias_aware",
    "e1_numeric",
    "e2_numeric",
    "eta",
    "gauss_bound",
    "noise_amplification",
    "rect_bound",
    "robustness_bound",
    "sinh_bound",
    "ExperimentPlan",
    "emit_csv",
    "load_plans",
    "load_preset",
    "run_plan",
]

__version__ = "0.1.0"
