"""Deterministic numeric and serialization helpers.

Reductions here have a fixed evaluation order so that every report is
byte-identical across repeated runs and across worker counts.  Chunk
boundaries are pinned by CHUNK, never by the number of workers.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed chunk length for streaming window enumerations.  Changing this
# changes summation order, hence the bytes of some reports; bump only
# together with the report schema_version.
CHUNK = 1 << 20


def chunked_fsum(partials: Iterable[float]) -> float:
    """Exact-rounding sum of a fixed-order sequence of partials."""
    return math.fsum(partials)


def log_sum_exp(log_terms: Sequence[float]) -> float:
    """log(sum(exp(x_i))) evaluated stably, in the given fixed order.

    Terms equal to -inf are ignored; an empty collection gives -inf.
    """
    terms = [float(x) for x in log_terms if x != -math.inf]
    if not terms:
        return -math.inf
    m = max(terms)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(x - m) for x in terms))


def parallel_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Order-preserving map; results are merged in item order.

    Work is partitioned by `items`, never by `workers`, so the value of
    `workers` cannot change any result.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=1))


# ---------------------------------------------------------------------------
# Canonical report serialization
# ---------------------------------------------------------------------------

def _sanitize(obj):
    """Make an object JSON-safe; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    return obj


def canonical_json(obj) -> str:
    """Serialize a report deterministically (sorted keys, repr floats)."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write rows with repr-formatted floats; returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
            n += 1
    return n
