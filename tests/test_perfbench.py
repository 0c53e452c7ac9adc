"""The benchmark's workloads and per-layer observers run against the package.

`perfbench/` calls `build_G`, `build_weighted_system` and the CLI, and
reads `GSet` fields, with arguments of its own.  Running each workload's
op once through its check, and the `build_G` observer on a built G, makes
a change to any of those fail here instead of in a benchmark run.  The
perfbench files are loaded as they are, by path.
"""

import importlib.util
import inspect
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


def test_tracer_wraps_recheck_gset_and_counts_its_cells(tmp_path):
    """The recheck oracle's per-layer metrics cannot silently read 0: the
    tracer wraps public functions only, so `oracle.recheck_gset` must be
    one, and on one enum-12 op its observer counts every letter of G."""
    from tractdim import oracle
    assert inspect.isfunction(oracle.recheck_gset)
    tr = tracer.Tracer("tractdim", layers.LAYERS)
    for key, fn in layers.OBSERVERS.items():
        tr.observe(key, fn)
    built = []

    def step(fn, *args, **kwargs):
        built.append(fn(*args, **kwargs))
        return built[-1]

    workload = workloads.WORKLOADS["enum-12"](seed=0, workdir=tmp_path)
    with tr:
        assert inspect.isfunction(oracle.recheck_gset.__wrapped__)
        workload.op(step)
    _, _, gset = built[0]
    metrics, absent = layers.layer_metrics(tr, 1)
    assert "oracle.recheck_gset.s" not in absent and "oracle.cells_rechecked" not in absent
    assert tr.stats["oracle.recheck_gset"][0] == 1
    assert metrics["oracle.recheck_gset.s"]["value"] > 0
    assert metrics["oracle.cells_rechecked"]["value"] == gset.n_letters
