"""Monte Carlo toolkit for the lattice parabolic Anderson model driven by
fractional Brownian noise: field samplers, walk statistics, covariance
kernels, Feynman-Kac estimators, a mollified PDE cross-check, and the
validation experiment campaigns."""

__version__ = "0.1.0"

from .fbm import (EpsilonDerivative, HurstField, HurstParameter, TimeGrid,
                  ZeroField, covariance, increment_covariance,
                  sample_at_times, sample_grid_paths)
from .walk import (RoughStats, WalkConfig, WalkPath, reverse_view,
                   rough_stats, sample_walk)
from .kernels import (InnerProductInput, KernelEval, SegmentKernelInput,
                      eps_autocov, f_eps, h_eps, inner_geX_ge, inner_gX_ge,
                      path_increment_variance, prop41_variance, rho, s2, s3,
                      smooth_integral_variance)
from .fk import (ClampError, EstimateResult, GridFunctionalEvaluator,
                 InitialCondition, WalkBatch, estimate_quenched,
                 estimate_annealed_moment, rough_functional_exact)
from .pde import (BoxDomain, SolverConfig, default_radius, richardson_check,
                  solve_mollified)
from .experiments import (EXPERIMENTS, ExperimentReport, RateFit, SweepSpec,
                          fit_loglog, write_report)

__all__ = [
    "__version__",
    "BoxDomain", "ClampError", "EXPERIMENTS", "EpsilonDerivative",
    "EstimateResult", "ExperimentReport",
    "GridFunctionalEvaluator", "HurstField", "HurstParameter",
    "InitialCondition", "InnerProductInput", "KernelEval",
    "RateFit", "RoughStats", "SegmentKernelInput", "SolverConfig",
    "SweepSpec", "TimeGrid", "WalkBatch", "WalkConfig", "WalkPath",
    "ZeroField",
    "covariance", "default_radius", "eps_autocov",
    "estimate_annealed_moment", "estimate_quenched", "f_eps", "fit_loglog",
    "h_eps", "increment_covariance", "inner_gX_ge", "inner_geX_ge",
    "path_increment_variance", "prop41_variance", "reverse_view", "rho",
    "richardson_check", "rough_functional_exact", "rough_stats", "s2", "s3",
    "sample_at_times", "sample_grid_paths", "sample_walk",
    "smooth_integral_variance", "solve_mollified", "write_report",
]
