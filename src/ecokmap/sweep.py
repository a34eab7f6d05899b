"""Batch engine: one-parameter bifurcation sweeps and (c2, c3) chaos grids.

Every point of a sweep or grid (orbit tail + period label + largest
Lyapunov exponent) runs the point loop, which iterates its transient once
and then records the tail and the frame norms in shared steps.  Points
go through _kernels.point_lanes in blocks of _kernels.LANES, which the
compiled loop advances in lockstep; each block's lambda1 values come
from its norms through _kernels.lane_exponents.  A point's result
depends only on its own inputs, so results are bitwise identical
whatever the grid size, point order or lane slot;
tests/test_lanes.py pins each point against iterate + lyapunov_spectrum
on both kernel backends.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, orbit
from .dynamics import DEFAULT_RECORD, DEFAULT_TRANSIENT, LAMBDA_FLOOR, MIN_STEPS, PERIOD_TOL
from .dynamics import DOMAIN, NON_NEGATIVE, SWEEP_STEPS, SWEEPABLE_PARAMETERS, ModelParams, State
from .dynamics import check_at_least, check_axis, check_floats
from .orbit import Escaped, OrbitRecord, outcome_label

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "ChaosGridSpec",
    "GridCell",
    "ChaosGridResult",
    "grid_values",
    "bifurcation_sweep",
    "chaos_grid",
    "outcome_label",
    "bifurcation_table",
]


def grid_values(lo: float, hi: float, n_points: int) -> np.ndarray:
    """Evenly spaced grid lo + i*(hi - lo)/(n_points - 1), endpoints exact."""
    return np.linspace(lo, hi, n_points)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter scan: base parameters with one field swept over a grid."""

    base: ModelParams
    parameter: str
    lo: float
    hi: float
    n_points: int
    s0: State
    n_transient: int = DEFAULT_TRANSIENT
    n_record: int = DEFAULT_RECORD
    n_lyap: int = SWEEP_STEPS
    period_tol: float = PERIOD_TOL

    def __post_init__(self):
        check_axis(self, self.parameter, "lo", "hi")
        check_at_least(self, n_points=2, n_transient=0, n_record=1, n_lyap=MIN_STEPS)
        check_floats(self, NON_NEGATIVE, "period_tol")


@dataclass(frozen=True)
class SweepPoint:
    """Result at one grid value: the orbit record and the largest exponent.

    lambda1 is NaN when the orbit escaped before the Lyapunov estimate had
    its minimum number of steps.
    """

    value: float
    orbit: OrbitRecord
    lambda1: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    grid: np.ndarray
    points: tuple[SweepPoint, ...]


def _record(spec, tail: np.ndarray, at_step: int, last: tuple[float, float]) -> OrbitRecord:
    """Orbit record of one point: its recorded tail, or its escape outcome."""
    if not 0 < at_step <= spec.n_transient + spec.n_record:
        outcome = orbit.detect_period(tail, period_tol=spec.period_tol)
        return OrbitRecord(spec.s0, spec.n_transient, tail, outcome)
    transient_len = spec.n_transient
    if len(tail) == 0 and at_step > 1:
        # Escape during the transient after step 1: keep the last pre-escape
        # state as a single marker row so output carries a marker instead of
        # a blank gap.  At step 1 that state is the start: no row is kept.
        transient_len, tail = at_step - 2, np.array([last])
    return OrbitRecord(spec.s0, transient_len, tail, Escaped(at_step))


def _evaluate(spec, params: list[ModelParams]) -> Iterator[tuple[OrbitRecord, float]]:
    """Yield (orbit record, lambda1) per parameter point, _kernels.LANES
    points per point_lanes call.

    One (LANES, n_record, 2) tail buffer and one (2, LANES, n_lyap) norm
    buffer serve every block: each record copies its tail, and a block's
    lambda1 values are taken before the next block runs.
    """
    lanes = _kernels.LANES
    tail = _kernels.buffer((lanes, spec.n_record, 2), "n_record", spec.n_record)
    norms = _kernels.buffer((2, lanes, spec.n_lyap), "n_lyap", spec.n_lyap)
    for start in range(0, len(params), lanes):
        rows = [(p.r1, p.r2, p.c1, p.c2, p.c3, p.c4) for p in params[start : start + lanes]]
        runs = _kernels.point_lanes(
            rows, spec.s0.x, spec.s0.y, spec.n_transient, spec.n_record, spec.n_lyap, tail, *norms
        )
        n_used = [n if n >= MIN_STEPS else 0 for _, n, *_ in runs]
        lam1 = _kernels.lane_exponents(*norms, n_used, LAMBDA_FLOOR)[0].tolist()
        for lane, (n_rec, _, at_step, x, y) in enumerate(runs):
            yield _record(spec, tail[lane, :n_rec], at_step, (x, y)), lam1[lane]


def bifurcation_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate orbit tail, period label and lambda1 at every grid value.

    Output ordering is by grid index; escape at a point is recorded in
    place and never aborts the sweep.
    """
    with _kernels.sized_by("n_points", spec.n_points):
        grid = grid_values(spec.lo, spec.hi, spec.n_points)
    params = [replace(spec.base, **{spec.parameter: v}) for v in grid]
    points = tuple(
        SweepPoint(value=v, orbit=rec, lambda1=lam1)
        for v, (rec, lam1) in zip(grid, _evaluate(spec, params))
    )
    return SweepResult(spec=spec, grid=grid, points=points)


@dataclass(frozen=True)
class ChaosGridSpec:
    """Two-coupling scan: lambda1 over a (c2, c3) grid at one or more r2."""

    base: ModelParams
    c2_lo: float
    c2_hi: float
    c2_points: int
    c3_lo: float
    c3_hi: float
    c3_points: int
    r2_values: tuple[float, ...]
    s0: State
    n_transient: int = DEFAULT_TRANSIENT
    n_record: int = DEFAULT_RECORD
    n_lyap: int = SWEEP_STEPS
    period_tol: float = PERIOD_TOL

    def __post_init__(self):
        check_axis(self, "c2", "c2_lo", "c2_hi")
        check_axis(self, "c3", "c3_lo", "c3_hi")
        check_floats(self, DOMAIN["r2"], "r2_values")
        check_at_least(self, c2_points=2, c3_points=2, n_transient=0, n_record=1, n_lyap=MIN_STEPS)
        check_floats(self, NON_NEGATIVE, "period_tol")


@dataclass(frozen=True)
class GridCell:
    c2: float
    c3: float
    r2: float
    lambda1: float
    label: str


@dataclass(frozen=True)
class ChaosGridResult:
    spec: ChaosGridSpec
    c2_grid: np.ndarray
    c3_grid: np.ndarray
    cells: tuple[GridCell, ...]


def bifurcation_table(result: SweepResult) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns of a bifurcation diagram, one row per tail state.

    The period column holds the period k of a settled point (its label
    "period-k" without the prefix) and the outcome label otherwise.
    """
    pts = result.points
    n, x, y = (np.concatenate(c) for c in zip(*(pt.orbit.columns() for pt in pts)))
    sizes = [len(pt.orbit.tail) for pt in pts]
    periods = [outcome_label(pt.orbit.outcome).removeprefix("period-") for pt in pts]
    param, period, lambda1 = (
        np.repeat(c, sizes) for c in ([pt.value for pt in pts], periods, [pt.lambda1 for pt in pts])
    )
    return ["param", "n", "x", "y", "period", "lambda1"], [param, n, x, y, period, lambda1]


def chaos_grid(spec: ChaosGridSpec) -> ChaosGridResult:
    """lambda1 plus period label over the (c2, c3) plane at fixed r2 values.

    Cells are ordered (r2 outer, c2 middle, c3 inner).
    """
    with _kernels.sized_by("c2_points", spec.c2_points):
        c2_grid = grid_values(spec.c2_lo, spec.c2_hi, spec.c2_points)
    with _kernels.sized_by("c3_points", spec.c3_points):
        c3_grid = grid_values(spec.c3_lo, spec.c3_hi, spec.c3_points)
    tasks = [(r2, c2, c3) for r2 in spec.r2_values for c2 in c2_grid for c3 in c3_grid]
    params = [replace(spec.base, r2=r2, c2=c2, c3=c3) for r2, c2, c3 in tasks]
    cells = tuple(
        GridCell(c2=c2, c3=c3, r2=r2, lambda1=lam1, label=outcome_label(rec.outcome))
        for (r2, c2, c3), (rec, lam1) in zip(tasks, _evaluate(spec, params))
    )
    return ChaosGridResult(spec=spec, c2_grid=c2_grid, c3_grid=c3_grid, cells=cells)
