"""Deterministic numeric and serialization helpers.

`log_sum_exp` is the package's one log-sum-exp: the level-1 sum, a run
sum's direct terms and the oracle's word sums go through it.  Reductions
here have a fixed evaluation order so that every report is byte-identical
across repeated runs.

Reports are rewritten in place (`_write_text`): the path is opened
without `O_TRUNC`, written, and cut at the written end, so a rerun
leaves the same inode with the same bytes.  On ext4 mounted with
`discard`, truncating a file to zero and refilling it starts writeback
at close (the replace-via-truncate rule, `auto_da_alloc`): a 947-byte
report cost 90-130 us that way and about 20 us in place, on a 2-core
x86-64 VM; on tmpfs both cost about 18 us.  A crash mid-write leaves a
partial file, as a truncating open does.  A temporary file moved over
the path by `os.replace` (about 89 us) is not used: ext4 flushes on a
replace by rename too.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from typing import Sequence

TWO_PI = 2.0 * math.pi
# Rows per block of `write_csv`.
_CSV_BLOCK = 2048


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


# ---------------------------------------------------------------------------
# Canonical report serialization
# ---------------------------------------------------------------------------

def _sanitize(obj):
    """Make an object JSON-safe; non-finite floats become strings, and an
    int past the interpreter's int-to-string limit (4,300 digits by
    default) the string `hex(n)`: linear in time, and `int(x, 16)` reads
    it back under any limit, where its decimal could not be read back.
    A numpy scalar is first made its Python value (`float` for a numpy
    float, `.item()` otherwise); numpy is not imported for this, since no
    numpy scalar exists before it is.  A record (a NamedTuple, a tuple
    with `_fields`) raises TypeError, as `json.dumps` does on any object
    it does not know, rather than pass as a bare list: a report lists the
    values it means to write."""
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
            return hex(n)
        return n
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    return obj


def canonical_json(obj) -> str:
    """Serialize a report deterministically (sorted keys, repr floats)."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, parts) -> None:
    """Write the strings `parts` to `path` as UTF-8 in place: open it
    without truncating (a new file gets mode 0o666 & ~umask, as `open(path,
    "w")` gives), write, and cut a regular file at the written end; a
    pipe or a device such as /dev/null takes the bytes uncut, since
    truncating it fails.  Every file the package writes goes through
    here."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def write_json(path, obj) -> None:
    """Write `canonical_json(obj)` to `path`, rewritten in place and cut
    to length (`_write_text`)."""
    _write_text(path, (canonical_json(obj),))


def write_csv(path, header: Sequence[str], columns: Sequence) -> int:
    """Write columns as rows, `_CSV_BLOCK` rows at a time.

    A column is a list of plain Python values or a numpy array (float64,
    or a strided `.real`/`.imag` view); each block of an array column is
    made plain values by `.tolist()`.  A float64 array's values are
    mapped through `repr` (the same bytes as `str`, for less than the type
    call), every other value through `str`, which leaves a string
    unquoted.  The rows are zipped and joined by commas, each row ending
    in a newline: the bytes of joining every row at once, with at most
    one block of strings in memory.  As with zip, the shortest column
    sets the row count, which is returned.  The file is rewritten in
    place and cut to length (`_write_text`).
    """
    n = min(map(len, columns), default=0)
    fmts = [repr if getattr(c, "dtype", None) == "float64" else str for c in columns]

    def blocks():
        yield ",".join(header) + "\n"
        for lo in range(0, n, _CSV_BLOCK):
            block = (c[lo:lo + _CSV_BLOCK] for c in columns)
            cells = (map(fmt, b.tolist() if hasattr(b, "tolist") else b)
                     for fmt, b in zip(fmts, block))
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
    _write_text(path, blocks())
    return n
