"""Run configuration: a strict JSON document with nested blocks.

JSON is the pinned notation: stdlib parsing with line/column positions on
syntax errors, and float serialization via repr gives exact round-trips.
Unknown keys are rejected so typos cannot silently fall back to defaults,
and a key repeated within one object is rejected so that neither of its
values is silently dropped.
r2 is the one required key — it is the control parameter of every
experiment and deliberately has no default.

Each of the five blocks (the top-level model keys, initial, budgets,
sweep, grid) goes through one reader, _parse_block, which checks keys and
JSON types against the fields of the block's type; the range rules are
the type's own, written with the checks of dynamics, so a block built
directly obeys the same rules; _parse_block names the key from the field
each message starts with.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .dynamics import (
    DEFAULT_RECORD,
    DEFAULT_STEPS,
    DEFAULT_TRANSIENT,
    MIN_STEPS,
    SWEEP_STEPS,
    DOMAIN,
    ModelParams,
    State,
    check_at_least,
    check_axis,
    check_floats,
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

    def __post_init__(self):
        check_at_least(self, transient=0, record=1, lyap=MIN_STEPS)


@dataclass(frozen=True)
class SweepBlock:
    parameter: str = "r2"
    lo: float = 2.8
    hi: float = 4.0
    points: int = 241
    lyap: int = SWEEP_STEPS

    def __post_init__(self):
        check_axis(self, self.parameter, "lo", "hi")
        check_at_least(self, points=2, lyap=MIN_STEPS)


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

    def __post_init__(self):
        check_axis(self, "c2", "c2_lo", "c2_hi")
        check_axis(self, "c3", "c3_lo", "c3_hi")
        check_at_least(self, c2_points=2, c3_points=2, lyap=MIN_STEPS)
        if self.r2_values is not None:
            check_floats(self, DOMAIN["r2"], "r2_values")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    initial: State
    budgets: Budgets
    sweep: SweepBlock
    grid: GridBlock
    out_dir: str = "out"


_SECTIONS = {"budgets": Budgets, "sweep": SweepBlock, "grid": GridBlock}
_KINDS = {"int": "an integer", "float": "a number", "str": "a string"}


class _Repeats(dict):
    """A JSON object in which the key `repeated` appears more than once; it
    holds the last value of each key, as json.loads would."""

    repeated: str


def _object(pairs):
    """json.loads' object_pairs_hook: the object as a dict, a _Repeats if a
    key appears in it twice."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    for key, _ in pairs:
        if key in seen:
            break
        seen.add(key)
    obj = _Repeats(obj)
    obj.repeated = key
    return obj


def _refuse_repeats(prefix: str, data) -> None:
    if isinstance(data, _Repeats):
        raise ConfigError(f"key '{prefix}{data.repeated}' appears more than once")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(key: str, value) -> float:
    try:
        return float(value)
    except OverflowError:
        # An integer past float range; its repr can run to thousands of digits.
        raise ConfigError(f"key '{key}' holds an integer too large for a float") from None


def _convert(key: str, kind: str, value):
    """value as a field of the declared type kind (a string, since
    annotations are postponed); ConfigError naming key if it is not one."""
    if kind == "float" and _is_number(value):
        return _float(key, value)
    if kind == "int" and _is_number(value) and isinstance(value, int):
        return value
    if kind == "str" and isinstance(value, str):
        return value
    if kind.startswith("tuple") and isinstance(value, list) and all(map(_is_number, value)):
        return tuple(_float(key, v) for v in value)
    described = _KINDS.get(kind, "a list of numbers")
    raise ConfigError(f"key '{key}' must be {described}, got {value!r}")


def _parse_block(section: str, cls, data, defaults: dict):
    """Build cls from the JSON object data, over defaults.

    Unknown keys and values of the wrong JSON type are refused here; the
    range rules are cls's own, and a ValueError from cls starts with the
    name of the field at fault, which becomes the key.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object")
    kinds = {f.name: f.type for f in fields(cls)}
    prefix = f"{section}." if section else ""
    _refuse_repeats(prefix, data)
    values = dict(defaults)
    for key, raw in data.items():
        qual = prefix + key
        if key not in kinds:
            raise ConfigError(f"unknown key '{qual}'")
        values[key] = _convert(qual, kinds[key], raw)
    try:
        return cls(**values)
    except ValueError as e:
        name, _, rest = str(e).partition(" ")
        raise ConfigError(f"key '{prefix}{name}' {rest}") from e


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document.

    Syntax errors carry the line/column from the JSON decoder; validation
    errors name the offending key and the violated constraint.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:
        # An integer literal past the interpreter's int-conversion digit limit.
        raise ConfigError(f"parse error: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top level of the config must be an object")
    _refuse_repeats("", doc)
    if "r2" not in doc:
        raise ConfigError("key 'r2' is required: it is the control parameter and has no default")

    model = {k: v for k, v in doc.items() if k not in ("initial", "out_dir", *_SECTIONS)}
    model_defaults = {k: v for k, v in DEFAULTS.items() if k not in ("x0", "y0")}
    initial = {"x": DEFAULTS["x0"], "y": DEFAULTS["y0"]}
    return RunConfig(
        params=_parse_block("", ModelParams, model, model_defaults),
        initial=_parse_block("initial", State, doc.get("initial", {}), initial),
        **{n: _parse_block(n, cls, doc.get(n, {}), {}) for n, cls in _SECTIONS.items()},
        out_dir=_convert("out_dir", "str", doc.get("out_dir", "out")),
    )


def serialize_config(cfg: RunConfig) -> str:
    """Write a config back to the JSON notation; parse_config inverts this
    exactly (floats serialize via repr, which round-trips)."""
    doc = {
        **asdict(cfg.params),
        "initial": asdict(cfg.initial),
        "budgets": asdict(cfg.budgets),
        "sweep": asdict(cfg.sweep),
        "grid": asdict(cfg.grid),
        "out_dir": cfg.out_dir,
    }
    if doc["grid"]["r2_values"] is None:
        del doc["grid"]["r2_values"]
    return json.dumps(doc, indent=2) + "\n"
