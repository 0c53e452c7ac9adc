"""Benchmark entry point for `tractdim`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is used from `src/` in
place; there is nothing to build.  Each workload runs in its own fresh
process (perfbench/worker.py) with one BLAS/OpenMP thread and
`workers=1`.  With `--trace 0` the last line of standard output is a JSON
object with every end-to-end metric; with `--trace 1` it carries every
per-layer metric instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 175.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list, env: dict, timeout: float) -> str:
    """Run worker.py to completion and return its standard output."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "tractdim" / "__init__.py").is_file():
        print(f"no tractdim package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    env = _env()
    metrics, wall = {}, {}
    try:
        if not args.trace:
            setup = [json.loads(_worker(["setup", "--workload", args.workload], env, 60.0)
                                .strip().splitlines()[-1])
                     for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = {"value": statistics.median(p["scaled_s"] for p in setup),
                                  "unit": "s"}
            wall["setup"] = statistics.median(p["wall_s"] for p in setup)
        out = _worker(["measure", "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      env, DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    run = json.loads(out.strip().splitlines()[-1])
    metrics.update(run["metrics"])
    wall.update(run["wall_s"])
    for p in run["problems"]:
        print(f"op {p['op']}: " + "; ".join(p["problems"]), file=sys.stderr)
    print(json.dumps({"workload": run["workload"], "seed": run["seed"],
                      "environment": run["environment"], "wall_s": wall}))
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
