"""The benchmark's workloads and per-layer observers run against the package.

`perfbench/` calls `build_G`, `build_weighted_system` and the CLI, and
reads `GSet` fields, with arguments of its own.  Running each workload's
op once through its check, and the `build_G` observer on a built G, makes
a change to any of those fail here instead of in a benchmark run.  The
perfbench files are loaded as they are, by path.
"""

import importlib.util
from pathlib import Path

import pytest

import tractdim as td

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, layers, tracer = (_load(name) for name in ("workloads", "layers", "tracer"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=0, workdir=tmp_path)
    out = workload.op(lambda fn, *args, **kwargs: fn(*args, **kwargs))
    assert workload.check(out) == []
    metrics, problems = workload.bounds(out)
    assert problems == []
    assert set(metrics) == {"t_lo", "bowen_width", "sum1_lo", "p1_width"}


def test_build_g_observer_counts_the_certificate_g(fam):
    spec = td.build_squares(4000.0, 3.0)
    gset = td.build_G(fam, 4000.0, spec, td.GeometryBudget(inset=3.0), mode="tail")
    tr = tracer.Tracer("tractdim", layers.LAYERS)
    layers.OBSERVERS["tractgeom.build_G"](tr, gset, (), {})
    assert tr.counters == {"tractgeom.letters": 0, "tractgeom.windows": 0,
                           "tractgeom.segments": 2}
