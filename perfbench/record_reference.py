"""Record the seed-0 reference outputs that the benchmark checks against.

usage: python3 perfbench/record_reference.py

Runs every workload once at seed 0 through the CLI, applies the structural
checks, and writes per-point labels and lambda1 values (plus the
single-orbit summaries) to perfbench/reference.json.  Rerun it only when a
change to the program is meant to change these results.
"""
from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, check_command, seeded_config


def _dumps(reference: dict) -> str:
    """JSON with one sweep point, grid cell or report row per line."""
    blocks = []
    for name, entry in reference.items():
        fields = []
        for command, value in entry.items():
            if isinstance(value, list):
                items = ",\n".join(f"   {json.dumps(v)}" for v in value)
                fields.append(f"  {json.dumps(command)}: [\n{items}\n  ]")
            else:
                fields.append(f"  {json.dumps(command)}: {json.dumps(value)}")
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    config = run.WORK / "config.json"
    out = run.WORK / "out"
    reference = {}
    with run.Spawner() as spawner:
        for name, w in WORKLOADS.items():
            cfg = seeded_config(w, 0)
            config.write_text(json.dumps(cfg), encoding="utf-8")
            _, runs = spawner.session(w, config, out)
            entry = {}
            for r in runs:
                problem, value = check_command(r.command[0], out, r.stdout, None, cfg)
                if r.returncode != 0 or problem is not None:
                    print(f"{name} {r.command[0]}: exit {r.returncode}, {problem}", file=sys.stderr)
                    return 1
                entry[r.command[0]] = value
            reference[name] = entry
    run.REFERENCE.write_text(_dumps(reference), encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
