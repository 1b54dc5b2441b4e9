"""Pseudospectral solvers for periodic reaction-diffusion systems.

The package integrates semilinear systems u_t = d lap(u) + F(u) on
periodic 1D/2D boxes by Fourier collocation: diffusion is applied
exactly through the diagonal spectral symbol, only the reaction is
stepped explicitly.  Fixed-step integrating-factor RK4, an embedded
Cash-Karp 4(5) adaptive variant, two ETD schemes and a dense-matrix ADI
cost/accuracy baseline share one run loop.  A small
model registry carries the benchmark systems, and postprocessing
covers spectral upsampling, front tracking, and pulse counting.
"""

from .grid import (
    GridSpec,
    State,
    dealias_mask,
    forward,
    inverse_real,
    make_grid,
    state_from_physical,
)
from .models import (
    MODELS,
    ModelSpec,
    cubic_root_u_minus,
    default_grid,
    default_timestep,
    get_model,
    initial_condition,
)
from .steppers import (
    SCHEMES,
    BlowUpError,
    RunSummary,
    StepControl,
    StepSizeError,
    integrate,
    linear_symbol,
    phi,
)
from .adi import DiffMatrix, adi_integrate, adi_step, build_diff_matrix
from .postprocess import (
    FrontTrace,
    fourier_upsample_1d,
    fourier_upsample_2d,
    front_position,
    front_speed,
    max_abs_error,
    pulse_count,
    trace_front,
)
from .runio import (
    ConfigError,
    RunConfig,
    RunWriter,
    iter_snapshots,
    load_config,
    load_snapshot,
)
from .harness import ConvergenceStudy, convergence_study

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "State", "make_grid", "forward", "inverse_real",
    "dealias_mask", "state_from_physical",
    "MODELS", "ModelSpec", "get_model", "default_grid", "default_timestep",
    "initial_condition", "cubic_root_u_minus",
    "SCHEMES", "integrate", "StepControl", "RunSummary",
    "BlowUpError", "StepSizeError", "phi", "linear_symbol",
    "DiffMatrix", "build_diff_matrix", "adi_step", "adi_integrate",
    "FrontTrace", "fourier_upsample_1d", "fourier_upsample_2d",
    "front_position", "trace_front", "front_speed", "pulse_count",
    "max_abs_error",
    "RunConfig", "RunWriter", "ConfigError", "load_config", "load_snapshot",
    "iter_snapshots",
    "ConvergenceStudy", "convergence_study",
    "__version__",
]
