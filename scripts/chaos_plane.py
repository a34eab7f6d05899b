"""Largest Lyapunov exponent over the (c2, c3) coupling plane.

Maps lambda1 on a 17x17 grid at fixed r2.  Near the c2 = c3 diagonal the
competition coupling itself drives chaos; at small c3 the second species
is barely regulated by the first and goes chaotic on its own once r2 is
large, independent of coupling proximity.  Writes a CSV and a heat map.
"""
import sys
from pathlib import Path

from ecokmap import ChaosGridSpec, ModelParams, State, chaos_grid
from ecokmap.csvio import write_csv
from ecokmap.svgplot import heatmap_svg

BASE = ModelParams(r1=3.0, r2=3.9, c1=1.8, c2=0.1, c3=0.6, c4=2.5)
START = State(0.2, 0.1)


def main(out_dir="results", r2=3.9):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    r2 = float(r2)
    spec = ChaosGridSpec(
        base=BASE,
        c2_lo=0.1, c2_hi=0.9, c2_points=17,
        c3_lo=0.1, c3_hi=0.9, c3_points=17,
        r2_values=(r2,), s0=START,
        n_transient=400, n_record=100, n_lyap=20_000,
    )
    res = chaos_grid(spec)
    header = ["c2", "c3", "r2", "lambda1", "label"]
    c2, c3, r2s, lambda1, labels = ([getattr(c, f) for c in res.cells] for f in header)
    tag = f"r2_{r2:g}".replace(".", "p")
    write_csv(out / f"chaos_plane_{tag}.csv", header, [c2, c3, r2s, lambda1, labels])
    svg = heatmap_svg(
        c2, c3, lambda1,
        xlabel="c2", ylabel="c3", title=f"lambda1 over (c2, c3) at r2={r2:g}",
    )
    (out / f"chaos_plane_{tag}.svg").write_text(svg)
    near = [c.lambda1 for c in res.cells if abs(c.c2 - c.c3) <= 0.1 and c.c3 >= 0.5]
    far = [c.lambda1 for c in res.cells if c.c3 - c.c2 >= 0.3 and c.c3 >= 0.5]
    print(f"r2={r2:g}: near-diagonal max lambda1 = {max(near):.3f}, "
          f"separated (c3 - c2 >= 0.3) max = {max(far):.3f}")


if __name__ == "__main__":
    main(*sys.argv[1:])
