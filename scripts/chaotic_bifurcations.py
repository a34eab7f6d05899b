"""Bifurcation diagrams in r2 when the two coupling coefficients coincide.

For c2 = c3 in {0.5, 0.6, 0.7} the upper end of the r2 range turns
chaotic: aperiodic tails with lambda1 > 0.1.  Writes CSV + SVG per sweep
into results/ and prints the detected chaotic windows.
"""
import sys
from dataclasses import replace
from pathlib import Path

from ecokmap import ModelParams, State, SweepSpec, bifurcation_sweep
from ecokmap.csvio import write_csv
from ecokmap.orbit import Aperiodic
from ecokmap.svgplot import scatter_svg
from ecokmap.sweep import bifurcation_table

BASE = ModelParams(r1=3.0, r2=3.0, c1=1.8, c2=0.1, c3=0.6, c4=2.5)
START = State(0.2, 0.1)


def main(out_dir="results"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cc in (0.5, 0.6, 0.7):
        spec = SweepSpec(
            base=replace(BASE, c2=cc, c3=cc), parameter="r2", lo=2.8, hi=4.0,
            n_points=241, s0=START, n_transient=400, n_record=100, n_lyap=20_000,
        )
        res = bifurcation_sweep(spec)
        header, columns = bifurcation_table(res)
        tag = f"c23_{cc:.1f}".replace(".", "p")
        write_csv(out / f"chaotic_{tag}.csv", header, columns)
        svg = scatter_svg(
            columns[0], columns[3],
            xlabel="r2", ylabel="y",
            title=f"bifurcation diagram, c2=c3={cc:g}",
        )
        (out / f"chaotic_{tag}.svg").write_text(svg)
        chaotic = [
            pt.value for pt in res.points
            if pt.lambda1 > 0.1 and pt.orbit.outcome == Aperiodic()
        ]
        if chaotic:
            print(
                f"c2=c3={cc:g}: chaos (lambda1 > 0.1, aperiodic) on {len(chaotic)} points, "
                f"r2 in [{min(chaotic):.3f}, {max(chaotic):.3f}]"
            )
        else:
            print(f"c2=c3={cc:g}: no chaotic window detected")


if __name__ == "__main__":
    main(*sys.argv[1:])
