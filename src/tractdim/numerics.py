"""Deterministic numeric and serialization helpers.

Reductions here have a fixed evaluation order so that every report is
byte-identical across repeated runs.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed chunk length for the brute-force window sums of
# `pressure.compare_window_modes`, the per-letter reference for the closed
# forms; it bounds their memory and pins their evaluation order.
CHUNK = 1 << 20


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


def weighted_log_sum_exp(terms: Iterable[tuple]) -> float:
    """log(sum(k * exp(x))) over pairs (x, k): k copies of each log term.

    Equal bit for bit to `log_sum_exp` over the expanded list.  There,
    math.fsum rounds the exact sum of the scaled terms exp(x - m) once;
    here that exact sum is accumulated in integers (every float is an
    integer over a power of two) and rounded once by the correctly
    rounded integer division.
    """
    terms = [(float(x), int(k)) for x, k in terms if x != -math.inf and k > 0]
    if not terms:
        return -math.inf
    m = max(x for x, _ in terms)
    if m == math.inf:
        return math.inf
    num, shift = 0, 0  # the exact sum is num / 2**shift
    for x, k in terms:
        p, q = math.exp(x - m).as_integer_ratio()
        e = q.bit_length() - 1
        if e > shift:
            num <<= e - shift
            shift = e
        num += k * p << (shift - e)
    return m + math.log(num / (1 << shift))


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
