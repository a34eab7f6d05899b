"""Numerical dynamics engine for a discrete-time two-species competition map.

Iterates orbits, finds and classifies fixed points, computes Lyapunov
exponent pairs, runs bifurcation sweeps and (c2, c3) chaos grids, and
emits CSV data plus SVG plots via the `ecokmap` CLI.

The public names below load on first access (PEP 562), each from its
submodule, so `import ecokmap` alone loads no numpy and a CLI command
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in __all__ order.
_SUBMODULE = {
    "backend": "_kernels",
    "ModelParams": "dynamics",
    "State": "dynamics",
    "Jacobian2": "dynamics",
    "NonFiniteStepError": "dynamics",
    "step": "dynamics",
    "jacobian": "dynamics",
    "eigenvalues_2x2": "dynamics",
    "FixedPoint": "equilibria",
    "Family": "equilibria",
    "Classification": "equilibria",
    "StabilityReport": "equilibria",
    "fixed_points": "equilibria",
    "stability_report": "equilibria",
    "OrbitRecord": "orbit",
    "Settled": "orbit",
    "Aperiodic": "orbit",
    "Escaped": "orbit",
    "iterate": "orbit",
    "detect_period": "orbit",
    "LyapunovResult": "lyapunov",
    "EscapedTooEarly": "dynamics",
    "lyapunov_spectrum": "lyapunov",
    "lambda_series": "lyapunov",
    "SweepSpec": "sweep",
    "SweepPoint": "sweep",
    "SweepResult": "sweep",
    "ChaosGridSpec": "sweep",
    "GridCell": "sweep",
    "ChaosGridResult": "sweep",
    "bifurcation_sweep": "sweep",
    "chaos_grid": "sweep",
    "grid_values": "sweep",
    "RunConfig": "config",
    "Budgets": "config",
    "SweepBlock": "config",
    "GridBlock": "config",
    "ConfigError": "config",
    "parse_config": "config",
    "serialize_config": "config",
}
__all__ = list(_SUBMODULE)


def _lazy_getattr(namespace: dict, submodule_of: dict):
    """A module __getattr__ (PEP 562) that loads each name in submodule_of
    from its ecokmap submodule on first access and keeps it in namespace,
    the module's globals, so later lookups are plain attribute reads."""

    def __getattr__(name):
        try:
            submodule = submodule_of[name]
        except KeyError:
            module = namespace["__name__"]
            raise AttributeError(f"module {module!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _SUBMODULE)


def __dir__():
    return sorted({*globals(), *__all__})
