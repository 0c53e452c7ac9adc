"""Per-layer metrics of the traced run.

A layer is one module of the `tractdim` package.  Each metric reads
either a traced function's statistics (calls, summed or self seconds)
or a counter/value that an observer takes from a traced function's
result.  Counts and times are per op: totals over the traced ops divided
by their number.  A metric whose function no longer exists, or whose
observer never fired, reads 0 and is listed as absent.
"""

from __future__ import annotations

import math

LAYERS = ("cli", "tractgeom", "loglift", "pressure", "numerics", "cantor_ifs", "oracle")

# name -> (source, key, unit).  Sources: "calls", "total_s", "self_s" and
# "s_per_call" read the traced function `key`; "counter" reads a per-op
# counter; "ratio" divides counter key[0] by counter key[1]; "value" is
# the last observed value.
METRICS = {
    "tractgeom.solve_s_window.calls": ("calls", "tractgeom.solve_s_window", "count"),
    "tractgeom.solve_s_window.s": ("total_s", "tractgeom.solve_s_window", "s"),
    "loglift.cell_enclosure.calls": ("calls", "loglift.ExpTailModel.cell_enclosure", "count"),
    "tractgeom.build_G.self_s": ("self_s", "tractgeom.build_G", "s"),
    "tractgeom.letters": ("counter", "tractgeom.letters", "count"),
    "tractgeom.windows": ("counter", "tractgeom.windows", "count"),
    "tractgeom.segments": ("counter", "tractgeom.segments", "count"),
    "numerics.parallel_map.items": ("counter", "numerics.parallel_map.items", "count"),
    "tractgeom.containment_test.calls": ("calls", "tractgeom.containment_test", "count"),
    "tractgeom.containment_test.inside_ratio": (
        "ratio", ("tractgeom.containment_test.inside", "tractgeom.containment_test.seen"),
        "ratio"),
    "pressure.level1_sum.calls": ("calls", "pressure.level1_sum", "count"),
    "pressure.level1_sum.s_per_call": ("s_per_call", "pressure.level1_sum", "s"),
    "loglift.log_weight_bounds.calls": (
        "calls", "loglift.ExpTailModel.log_weight_bounds", "count"),
    "loglift.sum_envelope_sandwich.calls": (
        "calls", "loglift.ExpTailModel.sum_envelope_sandwich", "count"),
    "pressure.pressure_bounds.calls": ("calls", "pressure.pressure_bounds", "count"),
    "pressure.bowen_root.s": ("total_s", "pressure.bowen_root", "s"),
    "pressure.certify_dim_gt_one.self_s": ("self_s", "pressure.certify_dim_gt_one", "s"),
    "tractgeom.min_cell_gap.s": ("total_s", "tractgeom.min_cell_gap", "s"),
    "tractgeom.min_gap": ("value", "tractgeom.min_gap", "length"),
    "oracle.recheck_gset.s": ("total_s", "oracle.recheck_gset", "s"),
    "oracle.cells_rechecked": ("counter", "oracle.cells_rechecked", "count"),
    "oracle.containment_recheck.calls": ("calls", "oracle.containment_recheck", "count"),
    "oracle.box_counting_dim.s": ("total_s", "oracle.box_counting_dim", "s"),
    "oracle.box_counting_dim.slope_error": ("value", "oracle.box_counting_dim.slope_error", "1"),
    "cantor_ifs.sample_limit_set.s": ("total_s", "cantor_ifs.sample_limit_set", "s"),
    "cantor_ifs.project_to_plane.s": ("total_s", "cantor_ifs.project_to_plane", "s"),
    "cantor_ifs.points": ("counter", "cantor_ifs.points", "count"),
    "tractgeom.trace_level_lines.s": ("total_s", "tractgeom.trace_level_lines", "s"),
    "numerics.write_json.s": ("total_s", "numerics.write_json", "s"),
    "numerics.write_csv.s": ("total_s", "numerics.write_csv", "s"),
    "cli.main.s": ("total_s", "cli.main", "s"),
    "cli.load_config.s": ("total_s", "cli.load_config", "s"),
}


def _on_build_G(tr, gset, args, kwargs):
    tr.count("tractgeom.letters", gset.n_explicit)
    tr.count("tractgeom.windows", len(gset.windows))
    tr.count("tractgeom.segments", gset.n_segments)


def _on_parallel_map(tr, result, args, kwargs):
    tr.count("numerics.parallel_map.items", len(result))


def _on_containment_test(tr, verdict, args, kwargs):
    tr.count("tractgeom.containment_test.seen")
    if verdict == "inside":
        tr.count("tractgeom.containment_test.inside")


def _on_min_cell_gap(tr, report, args, kwargs):
    tr.record("tractgeom.min_gap", report.min_gap)


def _on_recheck_gset(tr, report, args, kwargs):
    tr.count("oracle.cells_rechecked", report.n_checked)


def _on_box_counting_dim(tr, estimate, args, kwargs):
    # the only box-counted set in the workloads is the middle-thirds set
    tr.record("oracle.box_counting_dim.slope_error",
              abs(estimate.slope - math.log(2.0) / math.log(3.0)))


def _on_sample_limit_set(tr, sample, args, kwargs):
    tr.count("cantor_ifs.points", sample.count)


OBSERVERS = {
    "tractgeom.build_G": _on_build_G,
    "numerics.parallel_map": _on_parallel_map,
    "tractgeom.containment_test": _on_containment_test,
    "tractgeom.min_cell_gap": _on_min_cell_gap,
    "oracle.recheck_gset": _on_recheck_gset,
    "oracle.box_counting_dim": _on_box_counting_dim,
    "cantor_ifs.sample_limit_set": _on_sample_limit_set,
}


def layer_metrics(tracer, n_ops: int):
    """(metrics dict, absent names) from a tracer after `n_ops` traced ops."""
    metrics, absent = {}, []
    for name, (source, key, unit) in METRICS.items():
        value = 0.0
        if source in ("calls", "total_s", "self_s", "s_per_call"):
            st = tracer.stats.get(key)
            if st is None:
                absent.append(name)
            elif source == "s_per_call":
                value = st[1] / st[0] if st[0] else 0.0
            else:
                value = st[{"calls": 0, "total_s": 1, "self_s": 2}[source]] / n_ops
        elif source == "counter":
            if key in tracer.counters:
                value = tracer.counters[key] / n_ops
            else:
                absent.append(name)
        elif source == "ratio":
            num, den = (tracer.counters.get(k) for k in key)
            if den:
                value = (num or 0.0) / den
            else:
                absent.append(name)
        else:
            if key in tracer.values:
                value = tracer.values[key]
            else:
                absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
