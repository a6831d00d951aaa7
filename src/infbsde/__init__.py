"""Monte Carlo solvers for Markovian infinite-horizon BSDE systems.

The solution pair of such a system solves a semi-linear elliptic PDE; all
schemes here iterate or directly solve a fixed-point map built from
randomized-horizon Feynman-Kac representations of the value and of its
diffusion-weighted gradient.
"""
from .analysis import (CEstimate, InvalidP, QuadratureFailure,
                       brownian_c_infinity, brownian_cp_constants,
                       contraction_report, estimate_c_constants,
                       gaussian_radial_moment, kappa_infinity, kappa_p,
                       lipschitz_shift, simplified_contraction_check)
from .fixedpoint import (NonFiniteValue, PhiEstimate, estimate_phi,
                         poly_weight, r_sample_batch, truncate_growth)
from .grid import (Grid, GridFunction, GridMismatch, interpolate,
                   node_errors, sup_diff, truncated_nodes, write_grid_csv)
from .model import (AnalyticSolution, Coefficients, GeneratorSpec,
                    InconsistentDerivatives, NonPositiveRate, Problem,
                    PROBLEM_CONSTANTS, PROBLEM_NAMES, RunConfig, SchemeParams,
                    SdeSpec, UnknownProblem, bind_driver, brownian_sde,
                    manufacture_problem, monotonicity_margin, problem_by_name,
                    tanh_sigma_sde)
from .neural import AdamState, Mlp, adam_step, load_checkpoint, save_checkpoint
from .nn_schemes import (DirectConfig, MissingDriverDerivatives, NnConfig,
                         NnPicardConfig, NnSolveResult, TraceRow,
                         contraction_nn_solve, direct_nn_solve)
from .picard_grid import (FitUnderdetermined, FreshDraws, FrozenDraws,
                          GridRunConfig, GridSolveConfig, GridSolveResult,
                          IterationReport, RateStudyConfig, RateStudyResult,
                          fit_rate_slope, picard_step, rate_study, solve)
from .simulate import (DegenerateDiffusion, FkBatch, RngStream,
                       sample_fk_batch, sample_mu0)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
