"""Run configuration: a strict JSON document with nested blocks.

JSON is the pinned notation: stdlib parsing with line/column positions on
syntax errors, and float serialization via repr gives exact round-trips.
Unknown keys are rejected so typos cannot silently fall back to defaults.
r2 is the one required key — it is the control parameter of every
experiment and deliberately has no default.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .dynamics import (
    DEFAULT_RECORD,
    DEFAULT_STEPS,
    DEFAULT_TRANSIENT,
    SWEEP_STEPS,
    SWEEPABLE_PARAMETERS,
    ModelParams,
    State,
)

__all__ = [
    "ConfigError",
    "Budgets",
    "SweepBlock",
    "GridBlock",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "DEFAULTS",
]

# Defaults for the model block; r2 is required and absent on purpose.
DEFAULTS = {
    "r1": 3.0,
    "c1": 1.8,
    "c2": 0.1,
    "c3": 0.6,
    "c4": 2.5,
    "x0": 0.2,
    "y0": 0.1,
}


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


@dataclass(frozen=True)
class Budgets:
    transient: int = DEFAULT_TRANSIENT
    record: int = DEFAULT_RECORD
    lyap: int = DEFAULT_STEPS


@dataclass(frozen=True)
class SweepBlock:
    parameter: str = "r2"
    lo: float = 2.8
    hi: float = 4.0
    points: int = 241
    lyap: int = SWEEP_STEPS


@dataclass(frozen=True)
class GridBlock:
    c2_lo: float = 0.1
    c2_hi: float = 0.9
    c2_points: int = 17
    c3_lo: float = 0.1
    c3_hi: float = 0.9
    c3_points: int = 17
    # None means "use the model's r2".
    r2_values: tuple[float, ...] | None = None
    lyap: int = SWEEP_STEPS


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    initial: State
    budgets: Budgets
    sweep: SweepBlock
    grid: GridBlock
    out_dir: str = "out"


_INT_KEYS = {"transient", "record", "lyap", "points", "c2_points", "c3_points"}
_SECTION_FIELDS = {
    "budgets": Budgets,
    "sweep": SweepBlock,
    "grid": GridBlock,
}


def _as_float(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{_qual(section, key)}' must be a number, got {value!r}")
    return float(value)


def _as_int(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{_qual(section, key)}' must be an integer, got {value!r}")
    return value


def _qual(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _parse_section(name: str, cls, data: dict):
    known = {f.name for f in fields(cls)}
    values = {}
    for key, raw in data.items():
        if key not in known:
            raise ConfigError(f"unknown key '{_qual(name, key)}'")
        if key in _INT_KEYS:
            values[key] = _as_int(name, key, raw)
        elif key == "parameter":
            if not isinstance(raw, str):
                raise ConfigError(f"key 'sweep.parameter' must be a string, got {raw!r}")
            values[key] = raw
        elif key == "r2_values":
            if not isinstance(raw, list) or not raw:
                raise ConfigError("key 'grid.r2_values' must be a non-empty list of numbers")
            values[key] = tuple(_as_float(name, key, v) for v in raw)
        else:
            values[key] = _as_float(name, key, raw)
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"invalid section '{name}': {e}") from e


_TOP_MODEL_KEYS = ("r1", "r2", "c1", "c2", "c3", "c4")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document.

    Syntax errors carry the line/column from the JSON decoder; validation
    errors name the offending key and the violated constraint.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top level of the config must be an object")

    known_top = set(_TOP_MODEL_KEYS) | {"initial", "out_dir"} | set(_SECTION_FIELDS)
    for key in doc:
        if key not in known_top:
            raise ConfigError(f"unknown key '{key}'")

    if "r2" not in doc:
        raise ConfigError("key 'r2' is required: it is the control parameter and has no default")

    model = {k: DEFAULTS[k] for k in _TOP_MODEL_KEYS if k != "r2"}
    for k in _TOP_MODEL_KEYS:
        if k in doc:
            model[k] = _as_float("", k, doc[k])
    try:
        params = ModelParams(**model)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    init_doc = doc.get("initial", {})
    if not isinstance(init_doc, dict):
        raise ConfigError("section 'initial' must be an object")
    for key in init_doc:
        if key not in ("x", "y"):
            raise ConfigError(f"unknown key 'initial.{key}'")
    x0 = _as_float("initial", "x", init_doc.get("x", DEFAULTS["x0"]))
    y0 = _as_float("initial", "y", init_doc.get("y", DEFAULTS["y0"]))
    try:
        initial = State(x0, y0)
    except ValueError as e:
        raise ConfigError(f"invalid section 'initial': {e}") from e

    sections = {}
    for name, cls in _SECTION_FIELDS.items():
        block = doc.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(f"section '{name}' must be an object")
        sections[name] = _parse_section(name, cls, block)

    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"key 'out_dir' must be a string, got {out_dir!r}")

    cfg = RunConfig(
        params=params,
        initial=initial,
        budgets=sections["budgets"],
        sweep=sections["sweep"],
        grid=sections["grid"],
        out_dir=out_dir,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    b = cfg.budgets
    if b.transient < 0:
        raise ConfigError(f"key 'budgets.transient' must be >= 0, got {b.transient}")
    if b.record < 1:
        raise ConfigError(f"key 'budgets.record' must be >= 1, got {b.record}")
    if b.lyap < 1:
        raise ConfigError(f"key 'budgets.lyap' must be >= 1, got {b.lyap}")
    s = cfg.sweep
    if s.parameter not in SWEEPABLE_PARAMETERS:
        raise ConfigError(
            f"key 'sweep.parameter' must be one of {', '.join(SWEEPABLE_PARAMETERS)}, "
            f"got {s.parameter!r}"
        )
    _check_grid_block("sweep", s.lo, s.hi, s.points, s.lyap)
    g = cfg.grid
    _check_grid_block("grid (c2 axis)", g.c2_lo, g.c2_hi, g.c2_points, g.lyap)
    _check_grid_block("grid (c3 axis)", g.c3_lo, g.c3_hi, g.c3_points, g.lyap)


def _check_grid_block(name: str, lo: float, hi: float, points: int, lyap: int):
    if not lo < hi:
        raise ConfigError(f"section '{name}': need lo < hi, got {lo!r} >= {hi!r}")
    if points < 2:
        raise ConfigError(f"section '{name}': points must be >= 2, got {points}")
    if lyap < 1:
        raise ConfigError(f"section '{name}': lyap must be >= 1, got {lyap}")


def serialize_config(cfg: RunConfig) -> str:
    """Write a config back to the JSON notation; parse_config inverts this
    exactly (floats serialize via repr, which round-trips)."""
    doc = {
        **{k: getattr(cfg.params, k) for k in _TOP_MODEL_KEYS},
        "initial": {"x": cfg.initial.x, "y": cfg.initial.y},
        "budgets": asdict(cfg.budgets),
        "sweep": asdict(cfg.sweep),
        "grid": asdict(cfg.grid),
        "out_dir": cfg.out_dir,
    }
    if doc["grid"]["r2_values"] is None:
        del doc["grid"]["r2_values"]
    else:
        doc["grid"]["r2_values"] = list(doc["grid"]["r2_values"])
    return json.dumps(doc, indent=2) + "\n"
