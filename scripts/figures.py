"""The paper's four experiments: every figure's CSV and SVG, and one summary line each.

* r2 bifurcation diagrams for well-separated couplings (c2 in {0.1, 0.2,
  0.3} against c3 = 0.6): the dynamics stays regular (low-period tails,
  lambda1 <= 0) across almost the whole r2 range.
* r2 bifurcation diagrams for equal couplings (c2 = c3 in {0.5, 0.6,
  0.7}): the upper end of the r2 range turns chaotic, aperiodic tails
  with lambda1 > 0.1.
* Phase portraits with matching lambda1(n) convergence curves, contrasting
  a regular setting (c2 = 0.1 well below c3 = 0.6, r2 = 3.6) with a
  chaotic one (c2 = c3 = 0.6, r2 = 3.93): the first collapses onto a small
  cycle with lambda1 < 0, the second fills out an attractor with
  lambda1 > 0.  Portraits use the orbit window between iterations 500 and
  600, starting from (0.1, 0.1).
* lambda1 over a 17x17 (c2, c3) plane at r2 = 3.9.  Near the c2 = c3
  diagonal the competition coupling itself drives chaos; at small c3 the
  second species is barely regulated by the first and goes chaotic on its
  own once r2 is large, independent of coupling proximity.

Usage: python scripts/figures.py [out_dir]   (default: results)
"""
import sys
from dataclasses import replace
from pathlib import Path

from ecokmap import (
    ChaosGridSpec, ModelParams, State, SweepSpec, bifurcation_sweep, chaos_grid, iterate,
    lambda_series, lyapunov_spectrum,
)
from ecokmap.csvio import write_csv
from ecokmap.orbit import Aperiodic
from ecokmap.svgplot import heatmap_svg, line_svg, scatter_svg
from ecokmap.sweep import bifurcation_table, outcome_label

BASE = ModelParams(r1=3.0, r2=3.0, c1=1.8, c2=0.1, c3=0.6, c4=2.5)
START = State(0.2, 0.1)
BUDGETS = dict(s0=START, n_transient=400, n_record=100, n_lyap=20_000)


def save(out, stem, header, columns, svg):
    """Write one figure: its table as stem.csv and its plot as stem.svg,
    with each '.' of stem spelled 'p'."""
    stem = stem.replace(".", "p")
    write_csv(out / f"{stem}.csv", header, columns)
    (out / f"{stem}.svg").write_text(svg)


def count_positive(p, points):
    n_pos = sum(1 for pt in points if pt.lambda1 > 0.05)
    return f"c2={p.c2:g}: {n_pos}/{len(points)} grid points with lambda1 > 0.05"


def chaotic_window(p, points):
    chaotic = [pt.value for pt in points if pt.lambda1 > 0.1 and pt.orbit.outcome == Aperiodic()]
    if not chaotic:
        return f"c2=c3={p.c2:g}: no chaotic window detected"
    return (f"c2=c3={p.c2:g}: chaos (lambda1 > 0.1, aperiodic) on {len(chaotic)} points, "
            f"r2 in [{min(chaotic):.3f}, {max(chaotic):.3f}]")


# The r2 sweeps: output stem, base parameters, plot title, summary rule.
SWEEPS = [
    *((f"regular_c2_{c:.1f}", replace(BASE, c2=c), f"c2={c:g}, c3=0.6", count_positive)
      for c in (0.1, 0.2, 0.3)),
    *((f"chaotic_c23_{c:.1f}", replace(BASE, c2=c, c3=c), f"c2=c3={c:g}", chaotic_window)
      for c in (0.5, 0.6, 0.7)),
]


def r2_sweeps(out):
    for stem, p, title, summary in SWEEPS:
        spec = SweepSpec(base=p, parameter="r2", lo=2.8, hi=4.0, n_points=241, **BUDGETS)
        res = bifurcation_sweep(spec)
        header, columns = bifurcation_table(res)
        svg = scatter_svg(columns[0], columns[3], xlabel="r2", ylabel="y",
                          title=f"bifurcation diagram, {title}")
        save(out, stem, header, columns, svg)
        print(summary(p, res.points))


def phase_and_lyapunov(out):
    start = State(0.1, 0.1)
    cases = [("regular", replace(BASE, r2=3.6)),
             ("chaotic", replace(BASE, r2=3.93, c2=0.6, c3=0.6))]
    for name, p in cases:
        rec = iterate(p, start, 600, 500)
        n, x, y = rec.columns()
        svg = scatter_svg(x, y, xlabel="x", ylabel="y", radius=2.0,
                          title=f"phase portrait ({name}), c2={p.c2:g}, c3={p.c3:g}, r2={p.r2:g}")
        save(out, f"phase_{name}", ["n", "x", "y"], [n, x, y], svg)
        res = lyapunov_spectrum(p, start, 400, 100_000)
        series = lambda_series(res, stride=100)
        n, lambda1 = series[:, 0].astype(int), series[:, 1]
        svg = line_svg(n, lambda1, xlabel="n", ylabel="lambda1",
                       title=f"lambda1 vs n ({name}), r2={p.r2:g}")
        save(out, f"lyapunov_{name}", ["n", "lambda1", "lambda2"], [n, lambda1, series[:, 2]], svg)
        print(f"{name}: outcome {outcome_label(rec.outcome)}, "
              f"lambda1 = {res.lambda1:.4f}, lambda2 = {res.lambda2:.4f}")


def chaos_plane(out):
    r2 = 3.9
    spec = ChaosGridSpec(base=BASE, c2_lo=0.1, c2_hi=0.9, c2_points=17,
                         c3_lo=0.1, c3_hi=0.9, c3_points=17, r2_values=(r2,), **BUDGETS)
    cells = chaos_grid(spec).cells
    header = ["c2", "c3", "r2", "lambda1", "label"]
    columns = [[getattr(c, f) for c in cells] for f in header]
    svg = heatmap_svg(columns[0], columns[1], columns[3], xlabel="c2", ylabel="c3",
                      title=f"lambda1 over (c2, c3) at r2={r2:g}")
    save(out, f"chaos_plane_r2_{r2:g}", header, columns, svg)
    near = [c.lambda1 for c in cells if abs(c.c2 - c.c3) <= 0.1 and c.c3 >= 0.5]
    far = [c.lambda1 for c in cells if c.c3 - c.c2 >= 0.3 and c.c3 >= 0.5]
    print(f"r2={r2:g}: near-diagonal max lambda1 = {max(near):.3f}, "
          f"separated (c3 - c2 >= 0.3) max = {max(far):.3f}")


def main(out_dir="results"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for figure in (r2_sweeps, phase_and_lyapunov, chaos_plane):
        figure(out)


if __name__ == "__main__":
    main(*sys.argv[1:])
