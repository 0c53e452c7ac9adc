"""Deterministic numeric and serialization helpers.

Reductions here have a fixed evaluation order so that every report is
byte-identical across repeated runs.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Sequence

TWO_PI = 2.0 * math.pi


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

def _decimal(n: int, limit: int) -> str:
    """str(n) with the interpreter's int-to-string digit limit (`limit`)
    lifted for this conversion only."""
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _sanitize(obj):
    """Make an object JSON-safe; non-finite floats become strings, and so
    do ints with more digits than the interpreter's int-to-string limit
    (`sys.get_int_max_str_digits`), which a default `json.loads` could not
    read back either.  A numpy scalar is first made its Python value
    (`float` for a numpy float, `.item()` otherwise); numpy is not
    imported for this, since no numpy scalar exists before it is.  A
    record (a NamedTuple, a tuple with `_fields`) raises TypeError, as
    `json.dumps` does on any object it does not know, rather than pass
    as a bare list: a report lists the values it means to write."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(obj, numpy.generic):
        obj = float(obj) if isinstance(obj, numpy.floating) else obj.item()
    if isinstance(obj, float):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(obj, int) and not isinstance(obj, bool):
        n = int(obj)
        # 0 where the limit is off, or the interpreter predates it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit:
            return _decimal(n, limit)
        return n
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    return obj


def canonical_json(obj) -> str:
    """Serialize a report deterministically (sorted keys, repr floats)."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def write_csv(path, header: Sequence[str], columns: Sequence[list]) -> int:
    """Write columns of plain Python values (lists, as `.tolist()` gives
    them) as rows: each column is mapped through `str` (str of a float is
    its repr), the rows are zipped and joined by commas, and the rows by
    newlines, each row ending in one.  Returns the row count."""
    rows = list(map(",".join, zip(*(map(str, c) for c in columns))))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            fh.write("\n".join(rows) + "\n")
    return len(rows)
