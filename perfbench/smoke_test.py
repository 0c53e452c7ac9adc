"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one short op, untraced and
traced.  It checks that each run exits 0 and reports a correct result,
and that its last line names every end-to-end (or per-layer) metric with
the unit BENCHMARK.json gives.  It then prints the metrics, with their
units and directions, one line each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(spec, workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            want = {m["name"]: m for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{workload} trace {trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name in sorted(set(got) & set(want)):
                value, unit = got[name]["value"], got[name]["unit"]
                if unit != want[name]["unit"] or not isinstance(value, (int, float)):
                    problems.append(f"{workload}: {name} = {value!r} {unit!r}")
                if trace == 0:
                    print(f"{workload:11s} {name:12s} {value:<22.10g} {unit:6s} "
                          f"{want[name]['better']} is better")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
