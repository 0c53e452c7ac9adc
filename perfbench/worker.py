"""One workload run in a fresh process; started by run.py.

    python3 perfbench/worker.py setup   --workload NAME
    python3 perfbench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1

`setup` prints the seconds taken to import `tractdim` and resolve the
workload's config.  `measure` does one warm-up op, then times ops until
`--seconds` have passed (at least one), checks every op, and prints one
JSON line.  With `--trace 1` half of the time runs untraced and half
traced, and the line carries the per-layer metrics; the trace itself
(per-function statistics and spans) is written to `.perfbench_out/`.
Times are reported scaled by the calibration kernel (calibrate.py); the
median wall times are reported beside them under `wall_s`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from layers import LAYERS, OBSERVERS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _check_import():
    import tractdim
    where = Path(tractdim.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"tractdim imported from {where}, not from {ROOT / 'src'}")


def cmd_setup(args) -> int:
    start = time.perf_counter()
    WORKLOADS[args.workload].setup_config()
    elapsed = time.perf_counter() - start
    _check_import()
    # imported only now: calibrate imports numpy, whose import is part of
    # the set-up time measured above
    from calibrate import REFERENCE_S, kernel_seconds
    kernel = statistics.median(kernel_seconds() for _ in range(3))
    print(json.dumps({"wall_s": elapsed, "scaled_s": elapsed * REFERENCE_S / kernel}))
    return 0


class OpRunner:
    """Runs, times and checks ops; every op's digest must match the first's."""

    def __init__(self, workload):
        from calibrate import Calibrated  # see cmd_setup
        self.workload = workload
        self.clock = Calibrated()
        self.first = None
        self.attempted = 0
        self.problems = []
        self.last_good = None

    def run(self):
        """One op; returns (scaled seconds, wall seconds, passed)."""
        self.attempted += 1
        self.clock.wall = self.clock.scaled = 0.0
        try:
            out = self.workload.op(self.clock.step)
            problems = self.workload.check(out)
            digest = self.workload.digest(out)
        except Exception:  # a failing op is counted and reported, the run goes on
            self.problems.append((self.attempted, [traceback.format_exc(limit=3)]))
            return self.clock.scaled, self.clock.wall, False
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append("output differs from the first op's")
        if problems:
            self.problems.append((self.attempted, problems))
        else:
            self.last_good = out
        return self.clock.scaled, self.clock.wall, not problems

    def loop(self, seconds: float, before_op=None) -> list:
        """Ops until `seconds` have passed, at least one; returns what `run`
        returned for each.  `before_op(i)` is called before the i-th op."""
        times = []
        start = time.perf_counter()
        while True:
            if before_op is not None:
                before_op(len(times))
            times.append(self.run())
            if time.perf_counter() - start >= seconds:
                return times


def _median_time(times, column: int = 0) -> float:
    """Median scaled (column 0) or wall (column 1) seconds per op, over the
    passed ops, or over all if none passed."""
    good = [t[column] for t in times if t[2]]
    return statistics.median(good or [t[column] for t in times])


def _commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def _source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tractdim").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cmd_measure(args) -> int:
    _check_import()
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    runner = OpRunner(workload)
    runner.run()                                   # warm-up
    metrics, detail = {}, {}
    if args.trace:
        plain = runner.loop(args.seconds / 2.0)
        tracer = Tracer("tractdim", LAYERS)
        for key, fn in OBSERVERS.items():
            tracer.observe(key, fn)
        with tracer:
            traced = runner.loop(args.seconds / 2.0,
                                 before_op=lambda i: setattr(tracer, "op", i))
        metrics, absent = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_ratio"] = {
            "value": _median_time(traced) / _median_time(plain), "unit": "ratio"}
        wall = {"untraced_op": _median_time(plain, 1), "traced_op": _median_time(traced, 1)}
        detail = {"untraced_ops": plain, "traced_ops": traced, "absent": absent,
                  "trace": tracer.dump()}
    else:
        timed = runner.loop(args.seconds)
        wall = {"op": _median_time(timed, 1)}
        metrics["op_s"] = {"value": _median_time(timed), "unit": "s"}
        if runner.last_good is not None:
            try:
                values, problems = workload.bounds(runner.last_good)
            except Exception:  # reported as a failed check, not a crash
                values, problems = {}, [traceback.format_exc(limit=3)]
            if problems:
                runner.problems.append(("bounds", problems))
            units = {"t_lo": "1", "bowen_width": "1", "sum1_lo": "1", "p1_width": "1"}
            for name, value in values.items():
                metrics[name] = {"value": value, "unit": units[name]}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        detail = {"ops": timed}
    failed = len({i for i, _ in runner.problems if i != "bounds"})
    if not args.trace:
        metrics["ok_ratio"] = {"value": 1.0 - failed / runner.attempted, "unit": "ratio"}
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": runner.attempted, "failed": failed,
              "correct": not runner.problems and runner.last_good is not None,
              "problems": [{"op": i, "problems": p} for i, p in runner.problems[:8]],
              "environment": environment(), "wall_s": wall, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    (out_dir / name).write_text(json.dumps(dict(result, **detail), indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    return cmd_setup(args) if args.mode == "setup" else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
