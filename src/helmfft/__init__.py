"""Direct FFT-diagonalization solvers for 27-point compact stencils.

The package solves the block-structured linear systems arising from compact
second/fourth/sixth-order approximations of the 3D wave (Helmholtz) equation
with a z-dependent coefficient, and a fourth-order compact approximation of
the convection-diffusion equation, on rectangular boxes with Dirichlet data.
Any other 27-point stencil whose weights have the same form, as a
coefficient table, is solved the same way (solve_stencil).

The solve is direct: a 2D sine transform decouples the horizontal planes,
batched Thomas sweeps handle the resulting tridiagonal systems along z, and
an inverse transform finishes. Sequential, multi-threaded, and partitioned
(message-passing style) execution modes produce identical answers.
"""

from .errors import (ExchangeError, InvalidPartitionError, NonFiniteInputError,
                     SingularSystemError, UnsupportedSchemeError)
from .grid import (CoefficientProfile, Domain, Grid3D, constant_profile,
                   make_grid, sample_profile)
from .stencil import SchemeKind, coefficient_table
from .assembly import (BoundaryData, Field3D, SourceSpec, apply_stencil,
                       build_rhs, fold_dirichlet, residual_l2)
from .spectral import TransformPlan, dst2d, make_plan, transform_stack
from .solver import (ExchangePlan, Partitioned, PhaseTimings, Sequential, SharedWorkers,
                     SolverConfig, exchange_forward, exchange_inverse, make_exchange_plan,
                     plan_partition, solve_direct, solve_discrete, solve_stencil,
                     solve_with_timings)
from .problems import (ProblemSpec, convdiff_problem, error_metrics,
                       helmholtz_problem)
from .harness import (MetricsRow, emit_table, run_convergence, run_scaling)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
