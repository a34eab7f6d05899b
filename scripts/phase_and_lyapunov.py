"""Phase portraits with matching Lyapunov convergence curves.

Contrasts a regular setting (c2 = 0.1 well below c3 = 0.6) with a chaotic
one (c2 = c3 = 0.6) at the same growth rates: the first collapses onto a
small cycle with lambda1 < 0, the second fills out an attractor with
lambda1 > 0.  Portraits use the orbit window between iterations 500 and
600, starting from (0.1, 0.1).
"""
import sys
from pathlib import Path

from ecokmap import ModelParams, State, iterate, lambda_series, lyapunov_spectrum
from ecokmap.csvio import write_csv
from ecokmap.svgplot import line_svg, scatter_svg
from ecokmap.sweep import outcome_label

START = State(0.1, 0.1)
CASES = [
    ("regular", ModelParams(r1=3.0, r2=3.6, c1=1.8, c2=0.1, c3=0.6, c4=2.5)),
    ("chaotic", ModelParams(r1=3.0, r2=3.93, c1=1.8, c2=0.6, c3=0.6, c4=2.5)),
]


def main(out_dir="results"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, p in CASES:
        rec = iterate(p, START, 600, 500)
        n, x, y = rec.columns()
        write_csv(out / f"phase_{name}.csv", ["n", "x", "y"], [n, x, y])
        svg = scatter_svg(
            x, y,
            xlabel="x", ylabel="y", radius=2.0,
            title=f"phase portrait ({name}), c2={p.c2:g}, c3={p.c3:g}, r2={p.r2:g}",
        )
        (out / f"phase_{name}.svg").write_text(svg)

        res = lyapunov_spectrum(p, START, 400, 100_000)
        series = lambda_series(res, stride=100)
        n, lambda1, lambda2 = series[:, 0].astype(int), series[:, 1], series[:, 2]
        write_csv(out / f"lyapunov_{name}.csv", ["n", "lambda1", "lambda2"], [n, lambda1, lambda2])
        svg = line_svg(
            n, lambda1,
            xlabel="n", ylabel="lambda1",
            title=f"lambda1 vs n ({name}), r2={p.r2:g}",
        )
        (out / f"lyapunov_{name}.svg").write_text(svg)
        print(
            f"{name}: outcome {outcome_label(rec.outcome)}, "
            f"lambda1 = {res.lambda1:.4f}, lambda2 = {res.lambda2:.4f}"
        )


if __name__ == "__main__":
    main(*sys.argv[1:])
