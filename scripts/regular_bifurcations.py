"""Bifurcation diagrams in r2 for well-separated coupling coefficients.

Three sweeps with c2 in {0.1, 0.2, 0.3} against c3 = 0.6: the dynamics
stays regular (low-period tails, lambda1 <= 0) across almost the whole
r2 range.  Writes CSV + SVG per sweep into results/.
"""
import sys
from dataclasses import replace
from pathlib import Path

from ecokmap import ModelParams, State, SweepSpec, bifurcation_sweep
from ecokmap.csvio import write_csv
from ecokmap.svgplot import scatter_svg
from ecokmap.sweep import bifurcation_table

BASE = ModelParams(r1=3.0, r2=3.0, c1=1.8, c2=0.1, c3=0.6, c4=2.5)
START = State(0.2, 0.1)


def main(out_dir="results"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for c2 in (0.1, 0.2, 0.3):
        spec = SweepSpec(
            base=replace(BASE, c2=c2), parameter="r2", lo=2.8, hi=4.0,
            n_points=241, s0=START, n_transient=400, n_record=100, n_lyap=20_000,
        )
        res = bifurcation_sweep(spec)
        header, columns = bifurcation_table(res)
        tag = f"c2_{c2:.1f}".replace(".", "p")
        write_csv(out / f"regular_{tag}.csv", header, columns)
        svg = scatter_svg(
            columns[0], columns[3],
            xlabel="r2", ylabel="y",
            title=f"bifurcation diagram, c2={c2:g}, c3=0.6",
        )
        (out / f"regular_{tag}.svg").write_text(svg)
        n_pos = sum(1 for pt in res.points if pt.lambda1 > 0.05)
        print(f"c2={c2:g}: {n_pos}/241 grid points with lambda1 > 0.05")


if __name__ == "__main__":
    main(*sys.argv[1:])
