"""Command-line front end: ecokmap <command> --config <path> [options].

Each command reads one JSON config, runs the corresponding analysis and
writes CSV data (plus an SVG with --plot) into the output directory.
Flags override config values; a flag out of range is refused, by name,
before the config is read.  Exit codes: 0 success, 1 usage, 2 invalid
flag/config/values, 3 runtime failure.

Importing this module loads no numpy: the engine and writer modules load
when a command first uses one of their names (see _ENGINE), so
fixed-points, usage errors and config errors run without numpy.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import _lazy_getattr
from .config import ConfigError, RunConfig, parse_config
from .dynamics import MIN_STEPS, NON_NEGATIVE, PERIOD_TOL, EscapedTooEarly, NonFiniteStepError
from .dynamics import check_count, check_float

__all__ = ["main", "build_parser"]

# The CLI does no BLAS work, and starting OpenBLAS's thread pool costs about
# 60 ms per process when numpy loads.  No numpy has loaded by this point
# (none of the imports above needs it); a value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Names the commands load on first use, and the module of each.  They stay
# attributes of this module, which the command bodies read at call time
# (through _cli), so rebinding one here, as a tracer does, takes effect.
_ENGINE = {
    "stability_report": "equilibria",
    "iterate": "orbit",
    "outcome_label": "orbit",
    "lyapunov_spectrum": "lyapunov",
    "lambda_series": "lyapunov",
    "SweepSpec": "sweep",
    "ChaosGridSpec": "sweep",
    "bifurcation_sweep": "sweep",
    "bifurcation_table": "sweep",
    "chaos_grid": "sweep",
    "write_csv": "csvio",
    "line_svg": "svgplot",
    "scatter_svg": "svgplot",
    "heatmap_svg": "svgplot",
}
__getattr__ = _lazy_getattr(globals(), _ENGINE)
_cli = sys.modules[__name__]


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# Default recording window for phase portraits (iterations 501..600).
PHASE_TRANSIENT = 500
PHASE_RECORD = 100


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI pins them to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecokmap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("simulate", "iterate one orbit and write its post-transient tail"),
        ("fixed-points", "enumerate and classify all fixed points"),
        ("bifurcate", "sweep one parameter; tails, periods and lambda1 per grid value"),
        ("lyapunov", "Lyapunov exponent pair with its convergence series"),
        ("chaos-grid", "largest exponent over the (c2, c3) coupling plane"),
        ("phase", "phase portrait of the orbit tail"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        if name != "fixed-points":
            cmd.add_argument("--plot", action="store_true", help="also write an SVG plot")
            cmd.add_argument("--steps", type=int, default=None, help="override the step budget")
            cmd.add_argument(
                "--transient", type=int, default=None, help="override the transient length"
            )
        if name not in ("fixed-points", "lyapunov"):
            cmd.add_argument(
                "--seed-tolerance",
                type=float,
                default=None,
                help="relative tolerance for period detection",
            )
        if name in ("bifurcate", "chaos-grid"):
            cmd.add_argument("--grid", type=int, default=None, help="override grid point count")
            cmd.add_argument(
                "--workers",
                type=int,
                default=None,
                help="accepted for compatibility (>= 1); no effect on results or speed",
            )
    return parser


def _check_flags(args) -> None:
    """Refuse a flag out of range, by its name, with the checks of dynamics."""
    flags = vars(args)
    steps = MIN_STEPS if args.command == "lyapunov" else 1
    for name, least in {"steps": steps, "transient": 0, "grid": 2, "workers": 1}.items():
        if flags.get(name) is not None:
            check_count(f"--{name}", flags[name], least)
    if flags.get("seed_tolerance") is not None:
        check_float("--seed-tolerance", flags["seed_tolerance"], NON_NEGATIVE)


def _pick(override, fallback):
    return fallback if override is None else override


class _StepTotalError(ValueError):
    """Step budgets that each pass but together run past MAX_COUNT steps."""


def _steps(args, transient: tuple, steps: tuple, lyap: tuple = ("", 0)) -> tuple[int, int]:
    """The budgets --transient and --steps set: each flag's value when
    given, else its default, a (name, value) pair such as the config key's.
    A run takes the transient, then the longer of the --steps budget and a
    sweep's Lyapunov budget lyap; past MAX_COUNT steps, the compiled loop's
    step-counter limit, it is refused, naming its budgets (flags first)."""
    transient = transient if args.transient is None else ("--transient", args.transient)
    steps = steps if args.steps is None else ("--steps", args.steps)
    run = (transient, max(steps, lyap, key=lambda b: b[1]))
    run = sorted(run, key=lambda b: not b[0].startswith("--"))
    try:
        check_count(" + ".join(name for name, _ in run), sum(value for _, value in run), 0)
    except ValueError as e:
        raise _StepTotalError(str(e)) from None
    return transient[1], steps[1]


def _write(out_dir: Path, name: str, content, columns=None) -> None:
    """Write out_dir/name and report it: `content` is the file's text or,
    with `columns`, the CSV header."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if columns is None:
        path.write_text(content, encoding="ascii")
    else:
        _cli.write_csv(path, content, columns)
    print(f"wrote {path}")


def _cmd_orbit(cfg: RunConfig, args, out_dir: Path, stem: str, transient, record, plot) -> int:
    """simulate and phase: iterate one orbit, write <stem>.csv and print its
    outcome; with --plot also <stem>.svg, drawn by plot(n, x, y, outcome label).
    transient and record are the (name, value) defaults of the two budgets."""
    transient, record = _steps(args, transient, record)
    tol = _pick(args.seed_tolerance, PERIOD_TOL)
    rec = _cli.iterate(cfg.params, cfg.initial, transient + record, transient, period_tol=tol)
    n, x, y = rec.columns()
    _write(out_dir, f"{stem}.csv", ["n", "x", "y"], [n, x, y])
    label = _cli.outcome_label(rec.outcome)
    print(f"outcome: {label}")
    if args.plot:
        _write(out_dir, f"{stem}.svg", plot(n, x, y, label))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args, out_dir: Path) -> int:
    def plot(n, x, y, label):
        return _cli.line_svg(
            x,
            y,
            xlabel="x",
            ylabel="y",
            title=f"orbit tail, r2={cfg.params.r2:g} ({label})",
        )

    b = cfg.budgets
    transient, record = ("budgets.transient", b.transient), ("budgets.record", b.record)
    return _cmd_orbit(cfg, args, out_dir, "orbit", transient, record, plot)


def cmd_fixed_points(cfg: RunConfig, args, out_dir: Path) -> int:
    report = _cli.stability_report(cfg.params)
    _write(out_dir, "fixed_points.txt", report.to_text())
    return EXIT_OK


def cmd_bifurcate(cfg: RunConfig, args, out_dir: Path) -> int:
    s = cfg.sweep
    b = cfg.budgets
    transient, record = _steps(
        args,
        ("budgets.transient", b.transient),
        ("budgets.record", b.record),
        ("sweep.lyap", s.lyap),
    )
    spec = _cli.SweepSpec(
        base=cfg.params,
        parameter=s.parameter,
        lo=s.lo,
        hi=s.hi,
        n_points=_pick(args.grid, s.points),
        s0=cfg.initial,
        n_transient=transient,
        n_record=record,
        n_lyap=s.lyap,
        period_tol=_pick(args.seed_tolerance, PERIOD_TOL),
    )
    result = _cli.bifurcation_sweep(spec)
    header, columns = _cli.bifurcation_table(result)
    _write(out_dir, "bifurcation.csv", header, columns)
    if args.plot:
        svg = _cli.scatter_svg(
            columns[0],
            columns[3],
            xlabel=spec.parameter,
            ylabel="y",
            title=f"bifurcation diagram: y vs {spec.parameter}",
        )
        _write(out_dir, "bifurcation.svg", svg)
    return EXIT_OK


def cmd_lyapunov(cfg: RunConfig, args, out_dir: Path) -> int:
    b = cfg.budgets
    transient, n_iter = _steps(args, ("budgets.transient", b.transient), ("budgets.lyap", b.lyap))
    result = _cli.lyapunov_spectrum(cfg.params, cfg.initial, transient, n_iter)
    stride = max(1, n_iter // 1000)
    series = _cli.lambda_series(result, stride)
    n, lambda1, lambda2 = series[:, 0].astype(int), series[:, 1], series[:, 2]
    _write(out_dir, "lyapunov.csv", ["n", "lambda1", "lambda2"], [n, lambda1, lambda2])
    print(
        f"lambda1={result.lambda1:.6g} lambda2={result.lambda2:.6g} "
        f"n_used={result.n_used} escaped={str(result.escaped).lower()}"
    )
    if args.plot:
        svg = _cli.line_svg(
            n,
            lambda1,
            xlabel="n",
            ylabel="lambda1",
            title=f"largest Lyapunov exponent vs n, r2={cfg.params.r2:g}",
        )
        _write(out_dir, "lyapunov.svg", svg)
    return EXIT_OK


def cmd_chaos_grid(cfg: RunConfig, args, out_dir: Path) -> int:
    g = cfg.grid
    b = cfg.budgets
    transient, record = _steps(
        args,
        ("budgets.transient", b.transient),
        ("budgets.record", b.record),
        ("grid.lyap", g.lyap),
    )
    spec = _cli.ChaosGridSpec(
        base=cfg.params,
        c2_lo=g.c2_lo,
        c2_hi=g.c2_hi,
        c2_points=_pick(args.grid, g.c2_points),
        c3_lo=g.c3_lo,
        c3_hi=g.c3_hi,
        c3_points=_pick(args.grid, g.c3_points),
        r2_values=g.r2_values if g.r2_values is not None else (cfg.params.r2,),
        s0=cfg.initial,
        n_transient=transient,
        n_record=record,
        n_lyap=g.lyap,
        period_tol=_pick(args.seed_tolerance, PERIOD_TOL),
    )
    result = _cli.chaos_grid(spec)
    header = ["c2", "c3", "r2", "lambda1", "label"]
    c2, c3, r2s, lambda1, labels = ([getattr(c, f) for c in result.cells] for f in header)
    _write(out_dir, "chaos_grid.csv", header, [c2, c3, r2s, lambda1, labels])
    if args.plot:
        # Cells run r2-outer: map i draws the i-th block of c2_points * c3_points.
        size = spec.c2_points * spec.c3_points
        for i, r2 in enumerate(spec.r2_values):
            block = slice(i * size, (i + 1) * size)
            svg = _cli.heatmap_svg(
                c2[block],
                c3[block],
                lambda1[block],
                xlabel="c2",
                ylabel="c3",
                title=f"lambda1 over (c2, c3) at r2={r2:g}",
            )
            name = "chaos_grid.svg" if len(spec.r2_values) == 1 else f"chaos_grid_{i + 1}.svg"
            _write(out_dir, name, svg)
    return EXIT_OK


def cmd_phase(cfg: RunConfig, args, out_dir: Path) -> int:
    def plot(n, x, y, label):
        return _cli.scatter_svg(
            x,
            y,
            xlabel="x",
            ylabel="y",
            title=f"phase portrait, iterations {n.start}..{n.stop - 1}",
            radius=2.0,
        )

    transient = (f"{PHASE_TRANSIENT} transient steps", PHASE_TRANSIENT)
    record = (f"{PHASE_RECORD} recorded steps", PHASE_RECORD)
    return _cmd_orbit(cfg, args, out_dir, "phase", transient, record, plot)


_COMMANDS = {
    "simulate": cmd_simulate,
    "fixed-points": cmd_fixed_points,
    "bifurcate": cmd_bifurcate,
    "lyapunov": cmd_lyapunov,
    "chaos-grid": cmd_chaos_grid,
    "phase": cmd_phase,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except ValueError as e:
        print(f"ecokmap: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        print(f"ecokmap: cannot read config: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        cfg = parse_config(text)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        return _COMMANDS[args.command](cfg, args, out_dir)
    except _StepTotalError as e:  # names flags as well as config keys
        print(f"ecokmap: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, ValueError) as e:
        print(f"ecokmap: invalid configuration: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EscapedTooEarly, NonFiniteStepError) as e:
        print(f"ecokmap: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"ecokmap: io error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as e:
        # numpy's allocation error says what it could not allocate; a bare
        # MemoryError says nothing.
        detail = f": {e}" if str(e) else ""
        print(f"ecokmap: out of memory{detail}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
