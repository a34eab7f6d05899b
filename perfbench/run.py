"""Benchmark of the ecokmap CLI, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the workload's CLI commands run as fresh
subprocesses, one at a time (a closed loop with one client), and whole
sessions repeat until S seconds have passed; the result holds medians over
sessions.  With --trace 1 the workload runs once in-process untraced and
once traced, at one worker, for the per-layer metrics.  Every command's
outputs are checked.

The last line on stdout is the result; the line before it is the run
record (backend, versions, machine, output hashes).  Spans and the run
record are also written under ./.perfbench/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import SWEEP_TARGETS, Tracer
from workloads import WORKLOADS, Workload, check_command, seeded_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).with_name("reference.json")

# Fresh interpreter starts timed for setup_s: a block before every session,
# so that slow spells of a shared machine hit both metrics alike, and at
# least SETUP_MIN in all.  One untimed start first fills the bytecode cache.
SETUP_BLOCK = 5
SETUP_MIN = 20
SWEEP_COMMANDS = ("bifurcate", "chaos-grid")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

SETUP_CODE = (
    "import sys, ecokmap.cli\n"
    "from ecokmap.config import parse_config\n"
    "parse_config(open(sys.argv[1], encoding='utf-8').read())\n"
)
BACKEND_CODE = """
import json, numpy, ecokmap
try:
    backend = ecokmap.backend()
except AttributeError:
    from ecokmap import _kernels
    backend = "numba" if getattr(_kernels, "HAVE_NUMBA", False) else "python"
print(json.dumps({"backend": backend, "numpy": numpy.__version__, "file": ecokmap.__file__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class CommandRun:
    command: tuple[str, ...]
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


class Spawner:
    """The small process that runs each session's commands (see spawner.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self.own_peak_rss_mb = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, commands: list[tuple[list[str], Path]]) -> dict:
        """Run (argv, log) commands one at a time; returns the spawner's reply."""
        job = {"commands": [[argv, str(log)] for argv, log in commands]}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        self.own_peak_rss_mb = reply["own_peak_rss_bytes"] / 1e6
        return reply

    def session(self, w: Workload, config: Path, out: Path) -> tuple[float, list[CommandRun]]:
        """Run every command of the workload once, each as a fresh process."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        logs = [out.parent / f"stdout-{i}.txt" for i in range(len(w.commands))]
        cli = [sys.executable, "-m", "ecokmap"]
        tail = ["--config", str(config), "--out", str(out)]
        reply = self.run([([*cli, *cmd, *tail], log) for cmd, log in zip(w.commands, logs)])
        runs = [
            CommandRun(cmd, rc, wall, rss / 1e6, log.read_text(encoding="utf-8", errors="replace"))
            for cmd, (rc, wall, rss), log in zip(w.commands, reply["commands"], logs)
        ]
        return reply["wall_s"], runs

    def time_setup(self, config: Path, starts: int) -> list[float]:
        """Seconds from spawn to exit of fresh interpreters that import the
        CLI and parse the config."""
        argv = [sys.executable, "-c", SETUP_CODE, str(config)]
        log = WORK / "setup-stdout.txt"
        reply = self.run([(argv, log)] * starts)
        for rc, _, _ in reply["commands"]:
            if rc != 0:
                raise RuntimeError(f"setup start exited {rc}: {log.read_text()[-300:]}")
        return [wall for _, wall, _ in reply["commands"]]


def check_runs(runs: list[CommandRun], out: Path, ref: dict | None, config: Path) -> list[str]:
    """Problems found in the commands' exit codes and outputs, one per failed command."""
    cfg = json.loads(config.read_text(encoding="utf-8"))
    problems = []
    for run in runs:
        name = run.command[0]
        if run.returncode != 0:
            problem = f"exit code {run.returncode}: {run.stdout.strip()[-300:]}"
        else:
            problem, _ = check_command(
                name, out, run.stdout, None if ref is None else ref[name], cfg
            )
        if problem is not None:
            problems.append(f"{name}: {problem}")
    return problems


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, for the record only."""
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


def timed_run(w: Workload, config: Path, seconds: float, ref: dict | None, record: dict):
    out = WORK / "out"
    setup, walls, points_per_s, rss = [], [], [], []
    attempted, problems, hashes = 0, [], []
    with Spawner() as spawner:
        spawner.time_setup(config, 1)
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            setup += spawner.time_setup(config, SETUP_BLOCK)
            wall, runs = spawner.session(w, config, out)
            walls.append(wall)
            points_per_s.append(w.points / runs[w.compute].wall_s)
            rss.append(max(r.peak_rss_mb for r in runs))
            attempted += len(runs)
            problems += check_runs(runs, out, ref, config)
            hashes.append(output_hashes(out))
        setup += spawner.time_setup(config, max(0, SETUP_MIN - len(setup)))
    record.update(
        workers=os.cpu_count(),
        spawner_peak_rss_mb=spawner.own_peak_rss_mb,
        sessions=len(walls),
        session_wall_s=walls,
        setup_s_samples=setup,
        outputs=hashes[-1],
        outputs_identical_across_sessions=all(h == hashes[0] for h in hashes),
        problems=problems,
    )
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (statistics.median(points_per_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": ((attempted - len(problems)) / attempted, "frac"),
    }
    return attempted, len(problems), metrics


def in_process_pass(argvs: list[list[str]], tracer: Tracer | None):
    """Call ecokmap.cli.main for each argv; returns (wall seconds, [(rc, stdout)])."""
    import ecokmap.cli

    results = []
    start = perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                if tracer is None:
                    rc = ecokmap.cli.main(argv)
                else:
                    rc = tracer.call("cli", "main", ecokmap.cli.main, argv)
            except Exception:  # a crash is a failed command, as in a subprocess
                traceback.print_exc()
                rc = -1
        results.append((rc, buf.getvalue()))
    return perf_counter() - start, results


def thread_speedup(w: Workload, config: Path, out: Path) -> tuple[float, dict]:
    """Sweep-layer time at 1 worker over time at nproc workers, untraced.

    Only the sweep entry points are wrapped, one span per call, so the
    ratio covers the sweep layer and not the CLI around it.
    """
    cmd = w.commands[w.compute][0]
    seconds = {}
    for workers in sorted({1, NPROC}):
        argv = [cmd, "--config", str(config), "--out", str(out),
                "--grid", str(w.probe_grid), "--workers", str(workers)]
        with Tracer(SWEEP_TARGETS) as tracer:
            _, [(rc, text)] = in_process_pass([argv], None)
        if rc != 0:
            raise RuntimeError(f"thread probe at {workers} workers exited {rc}: {text[-300:]}")
        seconds[workers] = tracer.layer_seconds("sweep")
    speedup = seconds[1] / seconds[NPROC] if seconds[NPROC] else 0.0  # 0: sweep layer absent
    return speedup, {"sweep_s_by_workers": seconds}


def traced_run(w: Workload, config: Path, ref: dict | None, record: dict):
    def argvs(out: Path) -> list[list[str]]:
        return [
            [*cmd, "--config", str(config), "--out", str(out)]
            + (["--workers", "1"] if cmd[0] in SWEEP_COMMANDS else [])
            for cmd in w.commands
        ]

    problems = []
    attempted = 0
    walls = {}
    tracer = Tracer()
    for label, active in (("untraced", None), ("traced", tracer)):
        out = WORK / label
        shutil.rmtree(out, ignore_errors=True)
        with active or contextlib.nullcontext():
            walls[label], results = in_process_pass(argvs(out), active)
        runs = [CommandRun(cmd, rc, 0.0, 0.0, text) for cmd, (rc, text) in zip(w.commands, results)]
        attempted += len(runs)
        problems += [f"{label} {p}" for p in check_runs(runs, out, ref, config)]

    metrics = tracer.metrics(walls["traced"])
    metrics["trace.overhead_frac"] = (walls["traced"] / walls["untraced"] - 1.0, "frac")
    probe, speedup = {}, 0.0
    if w.probe_grid is not None:
        attempted += 1
        try:
            speedup, probe = thread_speedup(w, config, WORK / "probe")
        except RuntimeError as e:
            problems.append(str(e))
    metrics["sweep.thread_speedup"] = (speedup, "x")

    spans_path = WORK / "spans.json"
    spans_path.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    record.update(
        workers=1,
        outputs=output_hashes(WORK / "traced"),
        in_process_wall_s=walls,
        thread_probe=probe,
        absent_targets=tracer.absent,
        absent_layers=tracer.absent_layers(),
        hook_errors=tracer.hook_errors[:20],
        spans=str(spans_path.relative_to(ROOT)),
        problems=problems,
    )
    return attempted, len(problems), metrics


def machine_record(w: Workload, seed: int, trace: int) -> dict:
    info = json.loads(
        subprocess.run(
            [sys.executable, "-c", BACKEND_CODE],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
    )
    if Path(info["file"]).resolve().parent != (SRC / "ecokmap").resolve():
        raise RuntimeError(f"the CLI imports ecokmap from {info['file']}, not from {SRC}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((SRC / "ecokmap").rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "backend": info["backend"],
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "ecokmap" / "cli.py").is_file():
        print(f"perfbench: no ecokmap source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[w.name] if args.seed == 0 else None

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    config = WORK / "config.json"
    config.write_text(json.dumps(seeded_config(w, args.seed), indent=2) + "\n", encoding="utf-8")

    record = machine_record(w, args.seed, args.trace)
    if args.trace:
        attempted, failed, metrics = traced_run(w, config, ref, record)
    else:
        attempted, failed, metrics = timed_run(w, config, args.seconds, ref, record)
    (WORK / "run_record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
