"""Numerical dynamics engine for a discrete-time two-species competition map.

Iterates orbits, finds and classifies fixed points, computes Lyapunov
exponent pairs, runs bifurcation sweeps and (c2, c3) chaos grids, and
emits CSV data plus SVG plots via the `ecokmap` CLI.
"""

from ._kernels import backend
from .config import Budgets, ConfigError, GridBlock, RunConfig, SweepBlock, parse_config, serialize_config
from .dynamics import (
    Jacobian2,
    ModelParams,
    NonFiniteStepError,
    State,
    eigenvalues_2x2,
    jacobian,
    step,
)
from .equilibria import (
    Classification,
    Family,
    FixedPoint,
    StabilityReport,
    fixed_points,
    stability_report,
)
from .lyapunov import EscapedTooEarly, LyapunovResult, lambda_series, lyapunov_spectrum
from .orbit import Aperiodic, Escaped, OrbitRecord, Settled, detect_period, iterate
from .sweep import (
    ChaosGridResult,
    ChaosGridSpec,
    GridCell,
    SweepPoint,
    SweepResult,
    SweepSpec,
    bifurcation_sweep,
    chaos_grid,
    grid_values,
)

__version__ = "0.1.0"


__all__ = [
    "backend",
    "ModelParams",
    "State",
    "Jacobian2",
    "NonFiniteStepError",
    "step",
    "jacobian",
    "eigenvalues_2x2",
    "FixedPoint",
    "Family",
    "Classification",
    "StabilityReport",
    "fixed_points",
    "stability_report",
    "OrbitRecord",
    "Settled",
    "Aperiodic",
    "Escaped",
    "iterate",
    "detect_period",
    "LyapunovResult",
    "EscapedTooEarly",
    "lyapunov_spectrum",
    "lambda_series",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "ChaosGridSpec",
    "GridCell",
    "ChaosGridResult",
    "bifurcation_sweep",
    "chaos_grid",
    "grid_values",
    "RunConfig",
    "Budgets",
    "SweepBlock",
    "GridBlock",
    "ConfigError",
    "parse_config",
    "serialize_config",
]
