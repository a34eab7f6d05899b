"""Check the compiled row renderer against Python's % conversions, wide.

    PYTHONPATH=src python scripts/check_render.py [n_random]

Renders float64 values through _kernels.render_rows ("%.17g" and "%.2f",
one value per row) and compares every row with Python's own % text:
n_random (default 2 000 000) random bit patterns, which cover NaN
payloads, infinities, zeros and subnormals; every value within 4 ulps of
each finite power of ten; and dyadic rationals k 2^-m, whose exact
decimal expansions end in a 5, so that many of them sit exactly on a
rounding tie of either conversion.  Exits 1 naming the first mismatches,
and 2 if the compiled library is not available.
"""
from __future__ import annotations

import sys

import numpy as np

from ecokmap import _kernels


def samples(n_random: int) -> np.ndarray:
    rng = np.random.default_rng(2024)
    random = rng.integers(0, 2**64, n_random, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = [np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
    for _ in range(3):
        near += [np.nextafter(near[-2], np.inf), np.nextafter(near[-1], -np.inf)]
    k = rng.integers(1, 2**24, 200_000) * 2 + 1
    dyadic = np.ldexp(k.astype(np.float64), -rng.integers(1, 80, len(k)))
    return np.concatenate([random, powers, *near, dyadic, -dyadic])


def main(argv: list[str]) -> int:
    if _kernels._loop().lib is None:
        print("no compiled library: nothing to check", file=sys.stderr)
        return 2
    values = samples(int(argv[0]) if argv else 2_000_000)
    failed = False
    for conversion in ("%.17g", "%.2f"):
        got = b"".join(_kernels.render_rows(conversion + "\n", [values], 65536))
        got = got.decode("ascii").split("\n")[:-1]
        wrong = [(v, g) for v, g in zip(values.tolist(), got) if g != conversion % v]
        print(f"{conversion}: {len(values)} values, {len(wrong)} differ from Python's %")
        for v, g in wrong[:5]:
            print(f"  {v.hex()}: render_rows {g!r}, % {conversion % v!r}")
        failed |= bool(wrong)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
