"""CLI behavior: outputs, schemas, flag overrides, exit codes."""
import json
import math
import re

import pytest

from ecokmap import _kernels
from ecokmap.cli import main
from ecokmap.csvio import read_csv
from ecokmap.svgplot import count_data_elements

BASE = {"r2": 3.5, "budgets": {"transient": 200, "record": 50, "lyap": 2000}}
# The largest step budget a flag accepts.
MAX = str(2**63 - 1)

# Documents that the config refuses at parse time, each with the key at fault.
REFUSED = [
    ({"sweep": {"lo": -math.inf}}, "sweep.lo"),
    ({"sweep": {"hi": 5}}, "sweep.hi"),
    ({"grid": {"c2_lo": -1}}, "grid.c2_lo"),
    ({"grid": {"r2_values": [5]}}, "grid.r2_values"),
    ({"budgets": {"record": 10**30}}, "budgets.record"),
    ({"sweep": {"points": 10**30}}, "sweep.points"),
    ({"grid": {"c2_points": 10**30}}, "grid.c2_points"),
    ({"initial": {"x": math.nan}}, "initial.x"),
]


@pytest.fixture
def config_path(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_orbit_csv_with_global_indices(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("simulate", "--config", config_path(BASE), "--out", str(out)) == 0
        header, rows = read_csv(out / "orbit.csv")
        assert header == ["n", "x", "y"]
        assert len(rows) == 50
        assert int(rows[0][0]) == 201
        assert int(rows[-1][0]) == 250

    def test_plot_point_count_matches_csv(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(
            "simulate", "--config", config_path(BASE), "--out", str(out), "--plot"
        ) == 0
        _, rows = read_csv(out / "orbit.csv")
        svg = (out / "orbit.svg").read_text()
        assert count_data_elements(svg) == len(rows)

    def test_steps_and_transient_flags_override(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(
            "simulate", "--config", config_path(BASE), "--out", str(out),
            "--steps", "7", "--transient", "3",
        ) == 0
        _, rows = read_csv(out / "orbit.csv")
        assert len(rows) == 7
        assert int(rows[0][0]) == 4


class TestFixedPoints:
    def test_report_for_decoupled_low_growth(self, config_path, tmp_path):
        out = tmp_path / "o"
        doc = {"r1": 0.5, "r2": 0.5, "c2": 0.0, "c3": 0.0}
        assert run("fixed-points", "--config", config_path(doc), "--out", str(out)) == 0
        text = (out / "fixed_points.txt").read_text()
        assert "origin" in text
        origin_line = next(line for line in text.splitlines() if line.startswith("origin"))
        assert "attracting" in origin_line
        assert "row 1: true" in origin_line

    @pytest.mark.parametrize(
        "doc, family",
        [
            ({"r2": 3.0, "c1": 5e-324}, "boundary_x"),  # x* overflows
            ({"r2": 3.0, "c4": 5e-324}, "boundary_y"),  # y* overflows
            ({"r2": 3.0, "c1": 2e-308, "c2": 10}, "boundary_x"),  # a12 overflows
        ],
        ids=["x-star", "y-star", "a12"],
    )
    def test_overflowing_point_is_3_not_a_config_error(
        self, config_path, tmp_path, capsys, doc, family
    ):
        # A valid config whose closed-form point overflows is a runtime
        # failure, as where the residual's step overflows (c1 = 1e-308).
        out = tmp_path / "o"
        assert run("fixed-points", "--config", config_path(doc), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ecokmap: {family} fixed point at (") and err.count("\n") == 1
        assert "invalid configuration" not in err
        assert not out.exists()


class TestBifurcate:
    def test_csv_schema_and_row_count(self, config_path, tmp_path):
        out = tmp_path / "o"
        doc = dict(BASE, sweep={"points": 9, "lyap": 1500})
        assert run(
            "bifurcate", "--config", config_path(doc), "--out", str(out), "--plot"
        ) == 0
        header, rows = read_csv(out / "bifurcation.csv")
        assert header == ["param", "n", "x", "y", "period", "lambda1"]
        assert len(rows) == 9 * 50
        assert count_data_elements((out / "bifurcation.svg").read_text()) == len(rows)
        params = sorted({float(r[0]) for r in rows})
        assert params[0] == 2.8 and params[-1] == 4.0

    def test_grid_flag_overrides_point_count(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(
            "bifurcate", "--config", config_path(BASE), "--out", str(out),
            "--grid", "5", "--steps", "10",
        ) == 0
        _, rows = read_csv(out / "bifurcation.csv")
        assert len(rows) == 5 * 10


class TestLyapunov:
    def test_csv_schema_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(
            "lyapunov", "--config", config_path(BASE), "--out", str(out), "--plot"
        ) == 0
        header, rows = read_csv(out / "lyapunov.csv")
        assert header == ["n", "lambda1", "lambda2"]
        assert int(rows[-1][0]) == 2000
        assert count_data_elements((out / "lyapunov.svg").read_text()) == len(rows)
        assert float(rows[-1][1]) >= float(rows[-1][2])
        assert "lambda1=" in capsys.readouterr().out


class TestChaosGrid:
    def test_csv_schema_and_heatmap(self, config_path, tmp_path):
        out = tmp_path / "o"
        doc = dict(
            BASE,
            grid={
                "c2_lo": 0.1, "c2_hi": 0.7, "c2_points": 3,
                "c3_lo": 0.1, "c3_hi": 0.7, "c3_points": 3,
                "r2_values": [3.9],
                "lyap": 1500,
            },
        )
        assert run(
            "chaos-grid", "--config", config_path(doc), "--out", str(out), "--plot"
        ) == 0
        header, rows = read_csv(out / "chaos_grid.csv")
        assert header == ["c2", "c3", "r2", "lambda1", "label"]
        assert len(rows) == 9
        assert all(r[4].startswith(("period-", "aperiodic", "escaped")) for r in rows)
        assert count_data_elements((out / "chaos_grid.svg").read_text()) == 9

    def test_repeated_r2_gets_one_plane_per_map(self, config_path, tmp_path):
        out = tmp_path / "o"
        grid = {"c2_points": 3, "c3_points": 3, "r2_values": [3.9, 3.9], "lyap": 1000}
        doc = dict(BASE, grid=grid)
        assert run("chaos-grid", "--config", config_path(doc), "--out", str(out), "--plot") == 0
        _, rows = read_csv(out / "chaos_grid.csv")
        assert len(rows) == 18
        for name in ("chaos_grid_1.svg", "chaos_grid_2.svg"):
            assert count_data_elements((out / name).read_text()) == 3 * 3

    def test_defaults_to_model_r2(self, config_path, tmp_path):
        out = tmp_path / "o"
        doc = dict(BASE, grid={"c2_points": 2, "c3_points": 2, "lyap": 1000})
        assert run("chaos-grid", "--config", config_path(doc), "--out", str(out)) == 0
        _, rows = read_csv(out / "chaos_grid.csv")
        assert {float(r[2]) for r in rows} == {3.5}


class TestPhase:
    def test_default_window_is_501_to_600(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run("phase", "--config", config_path(BASE), "--out", str(out), "--plot") == 0
        _, rows = read_csv(out / "phase.csv")
        assert int(rows[0][0]) == 501
        assert int(rows[-1][0]) == 600
        assert count_data_elements((out / "phase.svg").read_text()) == len(rows)

    def test_settled_regime_gives_tiny_tail_variance(self, config_path, tmp_path):
        out = tmp_path / "o"
        doc = {"r2": 2.0}  # attracting interior point regime
        assert run(
            "phase", "--config", config_path(doc), "--out", str(out), "--transient", "2000"
        ) == 0
        _, rows = read_csv(out / "phase.csv")
        xs = [float(r[1]) for r in rows]
        ys = [float(r[2]) for r in rows]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        assert sum((v - mx) ** 2 for v in xs) / len(xs) < 1e-10
        assert sum((v - my) ** 2 for v in ys) / len(ys) < 1e-10


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run("bogus-command") == 1
        assert run("simulate") == 1  # missing --config

    def test_validation_error_is_2(self, config_path, capsys):
        assert run("simulate", "--config", config_path({"r2": 5.0})) == 2
        assert "r2" in capsys.readouterr().err
        assert run("simulate", "--config", config_path({})) == 2

    def test_runtime_error_is_3(self, config_path, tmp_path, capsys):
        # orbit escapes after ~52 steps: too few for a Lyapunov estimate
        doc = {
            "r1": 2.0, "r2": 1.5, "c1": 1.0, "c2": 0.0, "c3": 4.0, "c4": 0.0,
            "initial": {"x": 0.5, "y": 0.001},
            "budgets": {"transient": 0, "lyap": 2000},
        }
        assert run(
            "lyapunov", "--config", config_path(doc), "--out", str(tmp_path / "o")
        ) == 3
        assert "escaped" in capsys.readouterr().err

    def test_integer_past_float_range_is_2(self, config_path, capsys):
        assert run("fixed-points", "--config", config_path({"r2": 3.9, "c1": 10**400})) == 2
        err = capsys.readouterr().err
        assert err == (
            "ecokmap: invalid configuration: key 'c1' holds an integer too large for a float\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "fixed-points", "bifurcate", "chaos-grid"])
    @pytest.mark.parametrize("doc, key", REFUSED, ids=[key for _, key in REFUSED])
    def test_refused_key_is_named_under_every_command(
        self, config_path, tmp_path, capsys, command, doc, key
    ):
        out = tmp_path / "o"
        assert run(command, "--config", config_path({**BASE, **doc}), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"key '{key}'" in err and "Traceback" not in err
        assert not re.search(r"\d{19}", err)  # a huge integer's digits are left out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["simulate", "fixed-points", "bifurcate", "lyapunov", "chaos-grid", "phase"]
    )
    def test_repeated_key_is_2_under_every_command(self, tmp_path, capsys, command):
        path, out = tmp_path / "config.json", tmp_path / "o"
        path.write_text('{"r2": 3.9, "sweep": {"lo": 3.0}, "sweep": {"points": 5}}')
        assert run(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "ecokmap: invalid configuration: key 'sweep' appears more than once\n"
        assert not out.exists()

    def test_missing_config_file_is_3(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "nope.json")) == 3

    @pytest.mark.parametrize(
        "command, engine_name",
        [("simulate", "iterate"), ("phase", "iterate"), ("lyapunov", "lyapunov_spectrum")],
    )
    @pytest.mark.parametrize(
        "error",
        [MemoryError("Unable to allocate 149. GiB for an array"), MemoryError()],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_3(
        self, config_path, tmp_path, capsys, monkeypatch, command, engine_name, error
    ):
        # A budget too large to allocate; never tested with a real huge
        # allocation, which an overcommitting kernel may grant.
        import ecokmap.cli

        def allocate(*args, **kwargs):
            raise error

        monkeypatch.setattr(ecokmap.cli, engine_name, allocate)
        assert run(command, "--config", config_path(BASE), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("ecokmap: out of memory")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(error) in err

    @pytest.mark.parametrize(
        "command, budgets, flags, budget",
        [
            ("simulate", {}, ["--steps", str(2**62)], "n_total - n_transient"),
            ("bifurcate", {"record": 2**62}, [], "n_record"),
            ("lyapunov", {}, ["--steps", str(2**62)], "n_iter"),
        ],
    )
    def test_count_too_large_to_size_is_3(
        self, config_path, tmp_path, capsys, command, budgets, flags, budget
    ):
        # Below the 2**63 - 1 cap, but numpy refuses the buffer's shape
        # ("array is too big") before allocating anything.
        doc = dict(BASE, budgets=dict(BASE["budgets"], **budgets))
        out = tmp_path / "o"
        assert run(command, "--config", config_path(doc), "--out", str(out), *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ecokmap: out of memory: {budget} = {2**62}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, flags, budget",
        [
            ("bifurcate", {}, ["--grid", str(2**62)], "n_points"),
            ("bifurcate", {"sweep": {"points": 2**62}}, [], "n_points"),
            ("chaos-grid", {}, ["--grid", str(2**62)], "c2_points"),
            ("chaos-grid", {"grid": {"c2_points": 2**62}}, [], "c2_points"),
            ("chaos-grid", {"grid": {"c3_points": 2**62}}, [], "c3_points"),
        ],
    )
    def test_grid_count_too_large_to_size_is_3(
        self, config_path, tmp_path, capsys, command, section, flags, budget
    ):
        # numpy refuses the grid axis of 2**62 points before allocating
        # anything.  A count it could allocate is not tried: the list of
        # that many points would fill memory first.
        out = tmp_path / "o"
        assert run(command, "--config", config_path(dict(BASE, **section)), "--out", str(out),
                   *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ecokmap: out of memory: {budget} = {2**62}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "phase", "bifurcate", "chaos-grid"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_seed_tolerance_is_2(self, config_path, tmp_path, capsys, command, tol):
        assert run(
            command, "--config", config_path(BASE), "--out", str(tmp_path / "o"),
            "--seed-tolerance", tol,
        ) == 2
        err = capsys.readouterr().err
        assert err == f"ecokmap: --seed-tolerance must be finite and >= 0, got {float(tol)!r}\n"

    @pytest.mark.parametrize("command", ["lyapunov", "fixed-points"])
    @pytest.mark.parametrize("tol", ["-1", "1e-6"])
    def test_seed_tolerance_without_period_detection_is_1(
        self, config_path, tmp_path, capsys, command, tol
    ):
        assert run(
            command, "--config", config_path(BASE), "--out", str(tmp_path / "o"),
            "--seed-tolerance", tol,
        ) == 1
        assert "unrecognized arguments: --seed-tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bifurcate", "chaos-grid"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_2(self, config_path, tmp_path, capsys, command, workers):
        assert run(
            command, "--config", config_path(BASE), "--out", str(tmp_path / "o"),
            "--workers", workers,
        ) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command", ["simulate", "phase", "lyapunov", "bifurcate", "chaos-grid"]
    )
    def test_zero_steps_is_2(self, config_path, tmp_path, command):
        assert run(
            command, "--config", config_path(BASE), "--out", str(tmp_path / "o"), "--steps", "0"
        ) == 2

    def test_budget_beyond_int64_is_2(self, config_path, tmp_path, capsys, monkeypatch):
        # 2**64 + 100 transient steps, which ctypes would wrap to 100.  The
        # run must be refused before any lanes run: reaching them fails.
        def lanes(*args):
            raise AssertionError("a refused budget reached the lanes")

        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._Backend(lanes))
        assert run(
            "simulate", "--config", config_path(BASE), "--out", str(tmp_path / "o"),
            "--transient", str(2**64 + 100), "--steps", "3",
        ) == 2
        assert "2**63 - 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, budgets, flags, names",
        [
            ("simulate", {}, ["--transient", MAX, "--steps", "5"], "--transient + --steps"),
            ("simulate", {"transient": 2**63 - 1}, [], "budgets.transient + budgets.record"),
            ("simulate", {}, ["--steps", MAX], "--steps + budgets.transient"),
            ("phase", {}, ["--transient", MAX], "--transient + 100 recorded steps"),
            ("phase", {}, ["--steps", MAX], "--steps + 500 transient steps"),
            ("lyapunov", {}, ["--transient", MAX], "--transient + budgets.lyap"),
            ("bifurcate", {}, ["--transient", MAX, "--grid", "2"], "--transient + sweep.lyap"),
            ("bifurcate", {"record": 2**62}, ["--transient", str(2**62)],
             "--transient + budgets.record"),
            ("chaos-grid", {}, ["--transient", MAX, "--grid", "2"], "--transient + grid.lyap"),
            ("chaos-grid", {"transient": 2**62}, ["--steps", str(2**62)],
             "--steps + budgets.transient"),
        ],
    )
    def test_step_total_beyond_int64_names_its_budgets(
        self, config_path, tmp_path, capsys, monkeypatch, command, budgets, flags, names
    ):
        # Each budget passes on its own; a run takes their sum.  Refused
        # before any lanes run, naming the flags and config keys.
        def lanes(*args):
            raise AssertionError("a refused budget reached the lanes")

        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._Backend(lanes))
        doc = dict(BASE, budgets=dict(BASE["budgets"], **budgets))
        out = tmp_path / "o"
        assert run(command, "--config", config_path(doc), "--out", str(out), *flags) == 2
        assert capsys.readouterr().err == f"ecokmap: {names} must be <= 2**63 - 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bifurcate", "chaos-grid"])
    def test_single_point_grid_is_2(self, config_path, tmp_path, command):
        assert run(
            command, "--config", config_path(BASE), "--out", str(tmp_path / "o"), "--grid", "1"
        ) == 2

    def test_lyapunov_budget_below_minimum_is_2(self, config_path, tmp_path, capsys):
        assert run(
            "lyapunov", "--config", config_path(BASE), "--out", str(tmp_path / "o"),
            "--steps", "50",
        ) == 2
        err = capsys.readouterr().err
        assert err == "ecokmap: --steps must be >= 100, got 50\n"

    @pytest.mark.parametrize("block", ["sweep", "grid"])
    def test_sweep_lyapunov_budget_below_minimum_is_2(self, config_path, tmp_path, capsys, block):
        doc = dict(BASE, **{block: {"lyap": 50}})
        command = "bifurcate" if block == "sweep" else "chaos-grid"
        assert run(
            command, "--config", config_path(doc), "--out", str(tmp_path / "o"), "--grid", "5"
        ) == 2
        assert f"key '{block}.lyap' must be >= 100" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, config_path, tmp_path):
        doc = dict(BASE, sweep={"points": 5, "lyap": 1000})
        cfg = config_path(doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("bifurcate", "--config", cfg, "--out", str(out), "--plot") == 0
            outs.append(out)
        for fname in ("bifurcation.csv", "bifurcation.svg"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("command", ["bifurcate", "chaos-grid"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_workers_flag_changes_no_byte(self, config_path, tmp_path, capsys, command, workers):
        # The values the benchmark harness passes: accepted, and ignored.
        grid = {"c2_points": 3, "c3_points": 3, "lyap": 1000}
        cfg = config_path(dict(BASE, sweep={"points": 5, "lyap": 1000}, grid=grid))
        out, runs = tmp_path / "o", []
        for flag in ([], ["--workers", workers]):
            assert run(command, "--config", cfg, "--out", str(out), "--plot", *flag) == 0
            runs.append(({f.name: f.read_bytes() for f in out.iterdir()}, capsys.readouterr().out))
        assert runs[0] == runs[1] and len(runs[0][0]) == 2
