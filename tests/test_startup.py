"""Start-up contract: each CLI process loads only what its command uses.

`import ecokmap` loads no submodule; `import ecokmap.cli`, config parsing,
usage and config errors and fixed-points load no numpy; every other
command loads only the engine modules it runs; the CLI starts OpenBLAS
with one thread unless the user set a count.  Each check runs in a fresh
interpreter, since this test process has long loaded numpy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecokmap
import ecokmap.cli

SRC = Path(ecokmap.__file__).resolve().parents[1]


def run_fresh(code: str, *args: str, **env: str) -> dict:
    """Run code in a new interpreter importing ecokmap from SRC; returns the
    JSON object it prints last."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=environ, check=True, timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps({"numpy": "numpy" in sys.modules, "rc": rc,
                  "ecokmap": sorted(m for m in sys.modules if m.startswith("ecokmap"))}))
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"r2": 3.5, "out_dir": str(tmp_path / "out")}))
    return path


class TestNoNumpyBeforeItIsNeeded:
    def test_import_package(self):
        got = run_fresh("import ecokmap\nrc = None\n" + LOADED)
        assert not got["numpy"]
        assert got["ecokmap"] == ["ecokmap"]

    def test_import_cli_and_parse_config(self, config):
        code = (
            "import sys, ecokmap.cli\n"
            "cfg = ecokmap.cli.parse_config(open(sys.argv[1]).read())\n"
            "rc = cfg.params.r2\n"
        )
        got = run_fresh(code + LOADED, str(config))
        assert got["rc"] == 3.5
        assert not got["numpy"]

    @pytest.mark.parametrize(
        "argv,rc",
        [
            (["fixed-points", "--config", "{config}"], 0),
            (["simulate", "--bogus"], 1),
            (["simulate", "--config", "{bad}"], 2),
            (["bifurcate", "--config", "{config}", "--grid", "1"], 2),
        ],
        ids=["fixed-points", "usage-error", "config-error", "flag-refusal"],
    )
    def test_commands_that_need_no_numpy(self, config, argv, rc):
        bad = config.with_name("bad.json")
        bad.write_text('{"r2": 3.5, "r3": 1.0}')
        argv = [a.format(config=config, bad=bad) for a in argv]
        code = f"from ecokmap.cli import main\nrc = main({argv!r})\n"
        got = run_fresh(code + LOADED)
        assert got["rc"] == rc
        assert not got["numpy"]
        if rc == 0:
            assert (config.parent / "out" / "fixed_points.txt").is_file()


class TestEachCommandLoadsItsEngine:
    # Every command with --plot loads these, and the engine modules it runs.
    COMMON = ("cli", "config", "csvio", "dynamics", "svgplot")
    ENGINE = {
        "simulate": ("_kernels", "orbit"),
        "phase": ("_kernels", "orbit"),
        "lyapunov": ("_kernels", "lyapunov"),
        "bifurcate": ("_kernels", "orbit", "sweep"),
        "chaos-grid": ("_kernels", "orbit", "sweep"),
    }

    @pytest.mark.parametrize("command", ENGINE)
    def test_command_loads_only_the_engine_modules_it_runs(self, config, command):
        # No engine module imports a sibling for a constant: lyapunov
        # needs no orbit, and the sweeps need no lyapunov.
        argv = [command, "--config", str(config), "--plot", "--steps", "100"]
        if command in ("bifurcate", "chaos-grid"):
            argv += ["--grid", "2"]
        got = run_fresh(f"from ecokmap.cli import main\nrc = main({argv!r})\n" + LOADED)
        assert got["rc"] == 0
        modules = ["ecokmap", *(f"ecokmap.{m}" for m in self.COMMON + self.ENGINE[command])]
        assert got["ecokmap"] == sorted(modules)


THREADS = """
import json, os, ecokmap.cli, numpy
task = "/proc/self/task"
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
"""


class TestOpenBlasThreads:
    def test_one_thread_when_unset(self):
        got = run_fresh(THREADS)
        assert got["env"] == "1"
        if sys.platform.startswith("linux"):
            assert got["threads"] == 1

    def test_user_value_wins(self):
        assert run_fresh(THREADS, OPENBLAS_NUM_THREADS="2")["env"] == "2"


class TestLazyNames:
    def test_public_names_are_their_modules_own_objects(self):
        code = """
import importlib, json, ecokmap
listed = set(ecokmap.__all__) <= set(dir(ecokmap))
homes = {}
for name in ecokmap.__all__:
    value = getattr(ecokmap, name)
    home = importlib.import_module(value.__module__)
    homes[name] = value.__module__ if getattr(home, name) is value else None
try:
    ecokmap.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
print(json.dumps({"listed": listed, "homes": homes, "unknown": unknown}))
"""
        got = run_fresh(code)
        assert got["listed"]
        assert len(got["homes"]) == len(ecokmap.__all__) == 40
        for name, home in got["homes"].items():
            assert home is not None and home.startswith("ecokmap."), name
        assert "no_such_name" in got["unknown"]

    def test_cli_engine_names_resolve_to_their_modules(self):
        from ecokmap import csvio, sweep

        assert ecokmap.cli.write_csv is csvio.write_csv
        assert ecokmap.cli.bifurcation_sweep is sweep.bifurcation_sweep
        with pytest.raises(AttributeError, match="no_such_name"):
            ecokmap.cli.no_such_name

    def test_commands_call_the_names_bound_on_the_cli_module(self, config, monkeypatch):
        calls = []
        write_csv = ecokmap.cli.write_csv

        def spy(path, header, columns):
            calls.append(Path(path).name)
            return write_csv(path, header, columns)

        monkeypatch.setattr(ecokmap.cli, "write_csv", spy)
        assert ecokmap.cli.main(["phase", "--config", str(config)]) == 0
        assert calls == ["phase.csv"]
