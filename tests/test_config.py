"""Config document parsing, validation and exact round-trips."""
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ecokmap.config import (
    Budgets,
    ConfigError,
    GridBlock,
    RunConfig,
    SweepBlock,
    parse_config,
    serialize_config,
)
from ecokmap.dynamics import MIN_STEPS, ModelParams, State


class TestDefaults:
    def test_minimal_config_fills_reference_defaults(self):
        cfg = parse_config('{"r2": 3.5}')
        assert cfg.params == ModelParams(3.0, 3.5, 1.8, 0.1, 0.6, 2.5)
        assert cfg.initial == State(0.2, 0.1)
        assert cfg.budgets.transient == 400
        assert cfg.budgets.record == 100
        assert cfg.sweep == SweepBlock()
        assert cfg.grid == GridBlock()
        assert cfg.out_dir == "out"

    def test_r2_is_required(self):
        with pytest.raises(ConfigError, match="r2"):
            parse_config("{}")

    def test_overrides_apply(self):
        cfg = parse_config(
            '{"r2": 3.0, "c2": 0.6, "initial": {"x": 0.1}, '
            '"budgets": {"transient": 500}, "sweep": {"points": 50}}'
        )
        assert cfg.params.c2 == 0.6
        assert cfg.initial == State(0.1, 0.1)
        assert cfg.budgets.transient == 500
        assert cfg.sweep.points == 50


# A 400-digit integer: valid JSON, but past the range of a float.
HUGE = 10**400


class TestValidation:
    def test_growth_rate_out_of_domain_names_bound(self):
        with pytest.raises(ConfigError, match=r"key 'r2' must be in \[0, 4\]"):
            parse_config('{"r2": 5.0}')

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'r5'"):
            parse_config('{"r2": 3.0, "r5": 1.0}')

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="sweep.pints"):
            parse_config('{"r2": 3.0, "sweep": {"pints": 100}}')

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="budgets.transient"):
            parse_config('{"r2": 3.0, "budgets": {"transient": 10.5}}')
        with pytest.raises(ConfigError, match="'c1'"):
            parse_config('{"r2": 3.0, "c1": "big"}')

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigError, match="c3"):
            parse_config('{"r2": 3.0, "c3": -0.1}')

    def test_sweep_parameter_name_checked(self):
        with pytest.raises(ConfigError, match="sweep.parameter"):
            parse_config('{"r2": 3.0, "sweep": {"parameter": "bogus"}}')

    def test_sweep_bounds_checked(self):
        with pytest.raises(ConfigError, match="key 'sweep.lo' must be < hi"):
            parse_config('{"r2": 3.0, "sweep": {"lo": 4.0, "hi": 2.8}}')

    def test_nonfinite_initial_state_names_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config('{"r2": 3.0, "initial": {"x": NaN}}')
        assert str(info.value) == "key 'initial.x' must be finite, got nan"

    def test_grid_r2_values_checked(self):
        with pytest.raises(ConfigError, match="r2_values"):
            parse_config('{"r2": 3.0, "grid": {"r2_values": []}}')

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"c1": HUGE}, "c1"),
            ({"sweep": {"lo": HUGE}}, "sweep.lo"),
            ({"grid": {"r2_values": [3.9, HUGE]}}, "grid.r2_values"),
        ],
        ids=["c1", "sweep.lo", "grid.r2_values"],
    )
    def test_integer_past_float_range_names_key(self, doc, key):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"r2": 3.9, **doc}))
        assert str(info.value) == f"key '{key}' holds an integer too large for a float"

    def test_integer_literal_past_digit_limit_is_config_error(self):
        with pytest.raises(ConfigError, match="parse error"):
            parse_config('{"r2": 3.9, "c1": ' + "9" * 5000 + "}")

    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ConfigError, match=r"line 2, column"):
            parse_config('{"r2": 3.0,\n  "c1": }')


# Documents with a key repeated within one object, each with the key named;
# json.loads alone would keep the last value and drop the others.
REPEATED = [
    ('{"r2": 3.9, "c2": 0.1, "c2": 0.6, "sweep": {"lo": 3.0}, "sweep": {"points": 5}}', "c2"),
    ('{"r2": 3.9, "r2": 3.5}', "r2"),
    ('{"r2": 3.9, "sweep": {"lo": 3.0}, "sweep": {"points": 5}}', "sweep"),
    ('{"r2": 3.9, "sweep": {"lo": 3.0, "hi": 4.0, "lo": 2.9}}', "sweep.lo"),
    ('{"r2": 3.9, "initial": {"x": 0.1, "x": 0.1}}', "initial.x"),
    ('{"r2": 3.9, "budgets": {"record": 5, "record": 6}}', "budgets.record"),
    ('{"r2": 3.9, "grid": {"r2_values": [3.9], "r2_values": [3.8]}}', "grid.r2_values"),
]


class TestRepeatedKeys:
    @pytest.mark.parametrize("text, key", REPEATED, ids=[key for _, key in REPEATED])
    def test_repeated_key_is_named(self, text, key):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"key '{key}' appears more than once"

    def test_same_key_in_different_blocks_is_not_repeated(self):
        cfg = parse_config('{"r2": 3.9, "sweep": {"lyap": 500}, "grid": {"lyap": 600}}')
        assert (cfg.sweep.lyap, cfg.grid.lyap) == (500, 600)


# The smallest count refused: the compiled loop's step counters are int64.
CAP = 2**63


def rule_ids(rules):
    """section.key for a key's first row, section.key=<bad value> for the rest."""
    ids = [f"{r[1]}.{r[2]}" for r in rules]
    return [i if ids.index(i) == n else f"{i}={r[3]}" for n, (i, r) in enumerate(zip(ids, rules))]


class TestBlockRules:
    """Each range rule lives in its block's type: building the block
    directly and parsing a document both refuse a value past the bound,
    and accept the value at it."""

    RULES = [
        (Budgets, "budgets", "transient", -1, 0, "key 'budgets.transient' must be >= 0"),
        (Budgets, "budgets", "record", 0, 1, "key 'budgets.record' must be >= 1"),
        (Budgets, "budgets", "lyap", 99, 100, "key 'budgets.lyap' must be >= 100"),
        (Budgets, "budgets", "record", CAP, CAP - 1, "key 'budgets.record' must be <= 2**63 - 1"),
        (SweepBlock, "sweep", "parameter", "bogus", "c4", "key 'sweep.parameter' must be"),
        (SweepBlock, "sweep", "lo", 4.0, 3.9, "key 'sweep.lo' must be < hi"),
        (SweepBlock, "sweep", "lo", -math.inf, 0.0, "key 'sweep.lo' must be in [0, 4] for r2"),
        (SweepBlock, "sweep", "hi", 5.0, 4.0, "key 'sweep.hi' must be in [0, 4] for r2"),
        (SweepBlock, "sweep", "points", 1, 2, "key 'sweep.points' must be >= 2"),
        (SweepBlock, "sweep", "points", CAP, CAP - 1, "key 'sweep.points' must be <= 2**63 - 1"),
        (SweepBlock, "sweep", "lyap", 99, 100, "key 'sweep.lyap' must be >= 100"),
        (GridBlock, "grid", "c2_lo", 0.9, 0.8, "key 'grid.c2_lo' must be < c2_hi"),
        (GridBlock, "grid", "c2_lo", -1.0, 0.0, "key 'grid.c2_lo' must be finite and >= 0 for c2"),
        (GridBlock, "grid", "c3_hi", 0.1, 0.2, "key 'grid.c3_lo' must be < c3_hi"),
        (GridBlock, "grid", "c2_points", 1, 2, "key 'grid.c2_points' must be >= 2"),
        (GridBlock, "grid", "c2_points", CAP, CAP - 1, "key 'grid.c2_points' must be <= 2**63 - 1"),
        (GridBlock, "grid", "c3_points", 1, 2, "key 'grid.c3_points' must be >= 2"),
        (GridBlock, "grid", "lyap", 99, 100, "key 'grid.lyap' must be >= 100"),
        (GridBlock, "grid", "r2_values", (), (3.9,), "key 'grid.r2_values' must not be empty"),
        (GridBlock, "grid", "r2_values", (5.0,), (4.0,), "key 'grid.r2_values' must be in [0, 4]"),
    ]

    @pytest.mark.parametrize("cls, section, key, bad, ok, names", RULES, ids=rule_ids(RULES))
    def test_rule_holds_for_built_and_parsed_blocks(self, cls, section, key, bad, ok, names):
        with pytest.raises(ValueError):
            cls(**{key: bad})
        with pytest.raises(ConfigError, match=re.escape(names)):
            parse_config(json.dumps({"r2": 3.0, section: {key: bad}}))
        assert getattr(parse_config(json.dumps({"r2": 3.0, section: {key: ok}})), section) == cls(
            **{key: ok}
        )


def readme_config_example() -> str:
    """The JSON example under README's "Config format" heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_example_parses_and_round_trips():
    text = readme_config_example()
    cfg = parse_config(text)
    assert json.loads(serialize_config(cfg)) == json.loads(text)
    assert parse_config(serialize_config(cfg)) == cfg


finite = st.floats(min_value=0.0, max_value=4.0)
coeff = st.floats(min_value=0.0, max_value=5.0)
pos_int = st.integers(min_value=1, max_value=10_000)
lyap_steps = st.integers(min_value=MIN_STEPS, max_value=10_000)


@st.composite
def run_configs(draw):
    params = ModelParams(
        r1=draw(finite), r2=draw(finite),
        c1=draw(coeff), c2=draw(coeff), c3=draw(coeff), c4=draw(coeff),
    )
    budgets = Budgets(
        transient=draw(st.integers(min_value=0, max_value=10_000)),
        record=draw(pos_int),
        lyap=draw(lyap_steps),
    )
    lo = draw(st.floats(min_value=0.0, max_value=1.9))
    sweep = SweepBlock(
        parameter=draw(st.sampled_from(["r1", "r2", "c1", "c2", "c3", "c4"])),
        lo=lo,
        hi=draw(st.floats(min_value=lo + 0.1, max_value=4.0)),
        points=draw(st.integers(min_value=2, max_value=500)),
        lyap=draw(lyap_steps),
    )
    grid = GridBlock(
        c2_lo=0.0, c2_hi=draw(st.floats(min_value=0.1, max_value=2.0)),
        c2_points=draw(st.integers(min_value=2, max_value=40)),
        c3_lo=0.0, c3_hi=draw(st.floats(min_value=0.1, max_value=2.0)),
        c3_points=draw(st.integers(min_value=2, max_value=40)),
        r2_values=draw(
            st.one_of(
                st.none(),
                st.tuples(*[st.floats(min_value=0.0, max_value=4.0)] * draw(st.integers(1, 3))),
            )
        ),
        lyap=draw(lyap_steps),
    )
    x0 = draw(st.floats(min_value=-2.0, max_value=2.0))
    y0 = draw(st.floats(min_value=-2.0, max_value=2.0))
    return RunConfig(
        params=params,
        initial=State(x0, y0),
        budgets=budgets,
        sweep=sweep,
        grid=grid,
        out_dir=draw(st.sampled_from(["out", "results", "tmp-out"])),
    )


class TestRoundTrip:
    def test_example_round_trip(self):
        cfg = parse_config('{"r2": 3.93, "c2": 0.6, "c3": 0.6, "sweep": {"points": 41}}')
        assert parse_config(serialize_config(cfg)) == cfg

    @given(run_configs())
    @settings(max_examples=100)
    def test_serialize_parse_is_identity(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_form_is_valid_json_with_all_keys(self):
        cfg = parse_config('{"r2": 3.5}')
        doc = json.loads(serialize_config(cfg))
        assert doc["r2"] == 3.5
        assert set(doc) == {
            "r1", "r2", "c1", "c2", "c3", "c4", "initial", "budgets", "sweep", "grid", "out_dir",
        }
