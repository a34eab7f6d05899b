"""Workload definitions, seeded config generation and output checks.

Each workload is a list of `ecokmap` CLI commands run against one
generated JSON config.  Seed 0 gives the reference inputs; any other seed
nudges the initial state and shifts the sweep or grid window by a seeded
fraction of one grid step, keeping point counts and step budgets fixed so
that cost stays comparable between seeds.

The checks here never import ecokmap except for
`svgplot.count_data_elements`, which is the package's own definition of
how an SVG ties to its CSV.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_POINT = {"r2": 3.9, "c2": 0.6, "c3": 0.6}

# Defaults of the config's sweep and grid blocks, which the reference
# configs leave implicit; the seeded window shifts are fractions of these
# grid steps.
SWEEP_LO, SWEEP_HI, SWEEP_POINTS = 2.8, 4.0, 241
GRID_LO, GRID_HI, GRID_POINTS = 0.1, 0.9, 17
TRANSIENT, RECORD = 400, 100
# The package's escape bound and the post-transient steps a Lyapunov
# estimate needs before it is reported instead of NaN.
ESCAPE_THRESHOLD, LYAP_MIN_STEPS = 1e6, 100
# Config defaults for the model keys and initial state that the workload
# configs leave out.
MODEL_DEFAULTS = {"r1": 3.0, "c1": 1.8, "c4": 2.5}
INITIAL_DEFAULT = {"x": 0.2, "y": 0.1}
PHASE_TRANSIENT, PHASE_RECORD = 500, 100
LYAP_STEPS, SIMULATE_STEPS = 100_000, 100_000

# Largest seeded shift of a sweep or grid window, as a fraction of one grid
# step.  Escaped cells cost almost nothing, and cells on grid-escape's
# fractal escape boundary flip with any change of input, so a run's work
# varies with its seed (the interquartile range of the escaped-cell count
# over seeds is about 5 of 289); a wider shift flips more of them.
WINDOW_SHIFT = 0.1

# Relative tolerance for comparing a lambda1 against the seed-0 reference.
# The CSV writes 17 significant digits, so an unchanged computation matches
# exactly; this admits roundoff in the final average and nothing that a
# changed orbit would produce.
LAMBDA_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple[tuple[str, ...], ...]
    # Index of the command whose wall time points_per_s divides by, and
    # the number of points that command completes.
    compute: int
    points: int
    # --grid value of the in-process thread-scaling probe; None for
    # workloads that never enter the sweep layer.
    probe_grid: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-chaotic",
            config=dict(REFERENCE_POINT),
            commands=(("bifurcate", "--plot"),),
            compute=0,
            points=SWEEP_POINTS,
            probe_grid=31,
        ),
        Workload(
            name="grid-escape",
            config={"r1": 3.6, **REFERENCE_POINT, "grid": {"r2_values": [3.9]}},
            commands=(("chaos-grid", "--plot"),),
            compute=0,
            points=GRID_POINTS * GRID_POINTS,
            probe_grid=9,
        ),
        Workload(
            name="single-orbit",
            config=dict(REFERENCE_POINT),
            commands=(
                ("fixed-points",),
                ("lyapunov", "--plot"),
                ("simulate", "--plot", "--steps", str(SIMULATE_STEPS)),
                ("phase", "--plot"),
            ),
            # points_per_s here is orbit states per second of `simulate`.
            compute=2,
            points=SIMULATE_STEPS,
        ),
    )
}


def seeded_config(w: Workload, seed: int) -> dict:
    """The workload's config for one seed; seed 0 is the reference config."""
    cfg = json.loads(json.dumps(w.config))
    if seed == 0:
        return cfg
    rng = random.Random(seed)
    cfg["initial"] = {
        "x": 0.2 * (1.0 + 0.02 * (rng.random() - 0.5)),
        "y": 0.1 * (1.0 + 0.02 * (rng.random() - 0.5)),
    }
    if w.name == "sweep-chaotic":
        # r2 may not exceed 4, so the window only moves down.
        off = rng.random() * WINDOW_SHIFT * (SWEEP_HI - SWEEP_LO) / (SWEEP_POINTS - 1)
        cfg["sweep"] = {"lo": SWEEP_LO - off, "hi": SWEEP_HI - off}
    elif w.name == "grid-escape":
        step = WINDOW_SHIFT * (GRID_HI - GRID_LO) / (GRID_POINTS - 1)
        d2 = (2.0 * rng.random() - 1.0) * step
        d3 = (2.0 * rng.random() - 1.0) * step
        cfg["grid"].update(
            c2_lo=GRID_LO + d2, c2_hi=GRID_HI + d2, c3_lo=GRID_LO + d3, c3_hi=GRID_HI + d3
        )
    return cfg


# ---------------------------------------------------------------- checks


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows[0], rows[1:]


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _same_lambda(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=LAMBDA_RTOL, abs_tol=LAMBDA_RTOL)


def _svg_matches(out: Path, svg: str, n_rows: int):
    from ecokmap.svgplot import count_data_elements

    text = (out / svg).read_text(encoding="utf-8")
    n = count_data_elements(text)
    _expect(n == n_rows, f"{svg} has {n} data elements for {n_rows} CSV rows")


def _outcome(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("outcome: "):
            return line[len("outcome: "):].strip()
    raise CheckFailed("no 'outcome:' line on stdout")


def _sweep_points(rows: list[list[str]]) -> list[tuple[str, str, str]]:
    """(param, period label, lambda1) per sweep point, in output order."""
    pts: list[tuple[str, str, str]] = []
    for r in rows:
        if not pts or pts[-1][0] != r[0]:
            pts.append((r[0], r[4], r[5]))
    return pts


def _check_bifurcate(out: Path, stdout: str, ref, config: dict) -> list:
    header, rows = _read_csv(out / "bifurcation.csv")
    _expect(header == ["param", "n", "x", "y", "period", "lambda1"], f"bad header {header}")
    pts = _sweep_points(rows)
    _expect(len(pts) == SWEEP_POINTS, f"{len(pts)} sweep points, want {SWEEP_POINTS}")
    values = [float(p[0]) for p in pts]
    _expect(all(a < b for a, b in zip(values, values[1:])), "sweep values not increasing")
    counts: dict[str, int] = {}
    for r in rows:
        counts[r[0]] = counts.get(r[0], 0) + 1
    for value, label, lam in pts:
        if label == "escaped":
            _expect(1 <= counts[value] <= RECORD, f"escaped point {value} has {counts[value]} rows")
        else:
            _expect(counts[value] == RECORD, f"point {value} has {counts[value]} rows")
    _expect(
        [int(r[1]) for r in rows[:RECORD]] == list(range(TRANSIENT + 1, TRANSIENT + RECORD + 1)),
        "first point's iteration indices are not 401..500",
    )
    # The paper's chaotic window: the top tenth of the r2 range is mostly
    # aperiodic with a clearly positive largest exponent.
    top = pts[int(0.9 * SWEEP_POINTS):]
    chaotic = sum(1 for _, label, lam in top if label == "aperiodic" and float(lam) > 0.1)
    _expect(3 * chaotic >= len(top), f"only {chaotic}/{len(top)} chaotic points at the top of r2")
    _svg_matches(out, "bifurcation.svg", len(rows))
    if ref is not None:
        _expect(len(ref) == len(pts), "reference has another point count")
        for (value, label, lam), (rv, rl, rlam) in zip(pts, ref):
            _expect(value == rv and label == rl, f"point {value}: label {label}, reference {rl}")
            _expect(_same_lambda(lam, rlam), f"point {value}: lambda1 {lam}, reference {rlam}")
    return [list(p) for p in pts]


def _escape_step(p: dict, x: float, y: float, n_steps: int) -> int | None:
    """First step at which the orbit leaves the escape bound, or None.

    The same operations in the same order as the package's scalar kernel,
    so the same orbit to the last bit.
    """
    r1, r2, c1, c2, c3, c4 = (p[k] for k in ("r1", "r2", "c1", "c2", "c3", "c4"))
    for n in range(1, n_steps + 1):
        x, y = x * r1 * (1.0 - c1 * x - c2 * y), y * r2 * (1.0 - c3 * x - c4 * y)
        if not (math.isfinite(x) and math.isfinite(y)):
            return n
        if abs(x) > ESCAPE_THRESHOLD or abs(y) > ESCAPE_THRESHOLD:
            return n
    return None


def _check_chaos_grid(out: Path, stdout: str, ref, config: dict) -> list:
    header, rows = _read_csv(out / "chaos_grid.csv")
    _expect(header == ["c2", "c3", "r2", "lambda1", "label"], f"bad header {header}")
    n = GRID_POINTS * GRID_POINTS
    _expect(len(rows) == n, f"{len(rows)} grid rows, want {n}")
    _expect(len({r[0] for r in rows}) == GRID_POINTS, "c2 axis does not have 17 values")
    _expect(len({r[1] for r in rows}) == GRID_POINTS, "c3 axis does not have 17 values")
    escaped = [r for r in rows if r[4] == "escaped"]
    _expect(escaped != [], "no escaped cells")
    initial = {**INITIAL_DEFAULT, **config.get("initial", {})}
    for r in escaped:
        if math.isnan(float(r[3])):
            continue
        # A finite lambda1 on an escaped cell is only right when the orbit
        # escaped at the last recorded step, which is also the first step
        # at which the Lyapunov estimate has its minimum length.
        p = {**MODEL_DEFAULTS, "r1": config.get("r1", MODEL_DEFAULTS["r1"])}
        p.update(c2=float(r[0]), c3=float(r[1]), r2=float(r[2]))
        step = _escape_step(p, initial["x"], initial["y"], TRANSIENT + RECORD)
        _expect(
            step == TRANSIENT + LYAP_MIN_STEPS,
            f"escaped cell ({r[0]}, {r[1]}) has lambda1 {r[3]} but escapes at step {step}",
        )
    _svg_matches(out, "chaos_grid.svg", len(rows))
    cells = [[r[0], r[1], r[4], r[3]] for r in rows]
    if ref is not None:
        _expect(len(ref) == len(cells), "reference has another cell count")
        for (c2, c3, label, lam), (rc2, rc3, rl, rlam) in zip(cells, ref):
            where = f"cell ({c2}, {c3})"
            _expect((c2, c3, label) == (rc2, rc3, rl), f"{where}: {label}, reference {rl}")
            _expect(_same_lambda(lam, rlam), f"{where}: lambda1 {lam}, reference {rlam}")
    return cells


def _fixed_point_rows(text: str) -> list[str]:
    """Report rows without their trailing residual column."""
    lines = text.splitlines()
    dashes = next(i for i, line in enumerate(lines) if line and set(line) == {"-"})
    return [line.rsplit(None, 1)[0] for line in lines[dashes + 1:] if line.strip()]


def _check_fixed_points(out: Path, stdout: str, ref, config: dict) -> list:
    text = (out / "fixed_points.txt").read_text(encoding="ascii")
    _expect(text.startswith("fixed-point stability report"), "fixed_points.txt has no title")
    rows = _fixed_point_rows(text)
    _expect(len(rows) >= 1, "no fixed points listed")
    if ref is not None:
        _expect(rows == ref, "fixed-point rows differ from the reference")
    return rows


def _check_lyapunov(out: Path, stdout: str, ref, config: dict) -> list:
    header, rows = _read_csv(out / "lyapunov.csv")
    _expect(header == ["n", "lambda1", "lambda2"], f"bad header {header}")
    want = LYAP_STEPS // max(1, LYAP_STEPS // 1000)
    _expect(len(rows) == want, f"{len(rows)} series rows, want {want}")
    _expect(int(rows[-1][0]) == LYAP_STEPS, f"series ends at n={rows[-1][0]}")
    _expect(all(float(r[1]) >= float(r[2]) for r in rows), "lambda1 < lambda2 in the series")
    _expect(f"n_used={LYAP_STEPS} escaped=false" in stdout, "summary line missing or escaped")
    _svg_matches(out, "lyapunov.svg", len(rows))
    final = rows[-1][1:]
    if ref is not None:
        _expect(
            all(_same_lambda(g, w) for g, w in zip(final, ref)),
            f"final exponents {final}, reference {ref}",
        )
    return final


def _check_orbit(csv_name: str, svg_name: str, first: int, length: int):
    def check(out: Path, stdout: str, ref, config: dict) -> str:
        header, rows = _read_csv(out / csv_name)
        _expect(header == ["n", "x", "y"], f"bad header {header}")
        _expect(len(rows) == length, f"{csv_name} has {len(rows)} rows, want {length}")
        _expect(
            int(rows[0][0]) == first and int(rows[-1][0]) == first + length - 1,
            f"{csv_name} iteration indices are not {first}..{first + length - 1}",
        )
        _svg_matches(out, svg_name, len(rows))
        outcome = _outcome(stdout)
        _expect(outcome != "escaped", f"{csv_name}: orbit escaped")
        if ref is not None:
            _expect(outcome == ref, f"outcome {outcome}, reference {ref}")
        return outcome

    return check


CHECKS = {
    "bifurcate": _check_bifurcate,
    "chaos-grid": _check_chaos_grid,
    "fixed-points": _check_fixed_points,
    "lyapunov": _check_lyapunov,
    "simulate": _check_orbit("orbit.csv", "orbit.svg", TRANSIENT + 1, SIMULATE_STEPS),
    "phase": _check_orbit("phase.csv", "phase.svg", PHASE_TRANSIENT + 1, PHASE_RECORD),
}


def check_command(command: str, out: Path, stdout: str, ref, config: dict):
    """Run the output checks for one command.

    `ref` is the command's seed-0 reference entry, or None to run only the
    structural checks.  Returns (problem or None, the value that the
    reference records for this command).
    """
    try:
        return None, CHECKS[command](out, stdout, ref, config)
    except CheckFailed as e:
        return str(e), None
    except (OSError, ValueError, IndexError, StopIteration, SyntaxError, ImportError) as e:
        return f"{type(e).__name__}: {e}", None
