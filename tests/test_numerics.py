import ast
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from tractdim import numerics
from tractdim.numerics import canonical_json, write_csv


def _write_csv_per_row(path, header, columns):
    """Reference: one "{}" format call per row."""
    row = ",".join(["{}"] * len(header)) + "\n"
    rows = [row.format(*values) for values in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)
    return len(rows)


COLUMNS = [
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1, -2.5e-300],
    [2 ** 63, -(2 ** 64) - 1, 0, -1, 7, 10 ** 30, 2 ** 53 + 1, 3, True, False],
    ["lifted", "plane", "plane_logpolar", "", "a b", "x", "é", "1.5", "nan", "-0"],
    [True, False, 1.0, 2, "s", -0.0, math.nan, 10 ** 20, 1e300, 12.0],
]


B = numerics._CSV_BLOCK


def _cycled(col, n):
    return [col[k % len(col)] for k in range(n)]


def _array_columns(n):
    """A float64 array column, the strided .real/.imag views of a complex
    array (special values included) and a list three entries longer, so
    that the arrays set the row count."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-20, 20, n)
    special = COLUMNS[0][:n]
    x[:len(special)] = special
    z.imag[-len(special):] = special[::-1]
    assert n == 0 or z.real.strides == z.imag.strides == (z.itemsize,)  # every other float
    return [x, z.real, z.imag, _cycled(COLUMNS[2], n + 3)]


ROW_COUNTS = [0, 1, 3, 10, B - 1, B, B + 1, 2 * B + 1]


@pytest.mark.parametrize("n_rows, kind", [(n, "lists") for n in ROW_COUNTS]
                         + [(n, "arrays") for n in ROW_COUNTS],
                         ids=[str(n) for n in ROW_COUNTS] + [f"{n}-arrays" for n in ROW_COUNTS])
def test_write_csv_equals_per_row_format(tmp_path, n_rows, kind):
    """The block writer gives the bytes of one format call per row, at
    every row count around the block size.  An array column (float64, or
    a strided view of a complex array) writes the bytes of its .tolist()."""
    header = ["re", "im", "space", "mixed"]
    if kind == "lists":
        columns = [_cycled(col, n_rows) for col in COLUMNS]
        plain = columns
    else:
        columns = _array_columns(n_rows)
        plain = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_csv(got, header, columns) == _write_csv_per_row(want, header, plain) == n_rows
    assert got.read_bytes() == want.read_bytes()
    if n_rows == 0:
        assert got.read_bytes() == b"re,im,space,mixed\n"


def test_write_csv_counts_rows_of_the_shortest_column(tmp_path):
    columns = [[1.5, 2.5, 3.5], ["a", "b"]]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_csv(got, ["x", "s"], columns) == _write_csv_per_row(want, ["x", "s"], columns) == 2
    assert got.read_bytes() == want.read_bytes() == b"x,s\n1.5,a\n2.5,b\n"


def test_canonical_json_of_numpy_scalars_equals_their_python_values():
    """numpy scalars, in dicts, lists and tuples and as keys, serialize as
    the Python values they stand for: a float32 as its widened float,
    non-finite floats as strings, ints of any width exactly, np.bool_ as
    a JSON bool, complex128 as {re, im}."""
    obj = {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-2 ** 63),
           "u64": np.uint64(2 ** 64 - 1), "true": np.bool_(True), "false": np.bool_(False),
           "nan": np.float64("nan"), "inf": np.float64("inf"), "ninf": np.float32("-inf"),
           "c128": np.complex128(1.5 - 2j),
           "list": [np.float64(-0.0), np.int32(7), np.bool_(False), (np.float32(2.5), np.nan)],
           np.int64(3): {"nested": [np.float64(1e300), np.uint8(255)]}}
    plain = {"f64": 0.1, "f32": 0.10000000149011612, "i64": -2 ** 63, "u64": 2 ** 64 - 1,
             "true": True, "false": False, "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
             "c128": 1.5 - 2j, "list": [-0.0, 7, False, [2.5, math.nan]],
             "3": {"nested": [1e300, 255]}}
    text = canonical_json(obj)
    assert text == canonical_json(plain)
    back = json.loads(text)
    assert (back["nan"], back["inf"], back["ninf"]) == ("NaN", "Infinity", "-Infinity")
    assert back["true"] is True and back["false"] is False and back["list"][2] is False
    assert back["c128"] == {"re": 1.5, "im": -2.0}
    assert back["i64"] == -2 ** 63 and back["u64"] == 2 ** 64 - 1
    assert math.copysign(1.0, back["list"][0]) == -1.0



@pytest.mark.parametrize("where", ["bare", "in a dict", "in a list", "in a tuple"])
def test_canonical_json_refuses_records(where):
    """A record, a tuple with `_fields`, raises TypeError wherever it sits
    in a report, as `json.dumps` does on an object it does not know,
    instead of passing as a bare JSON list."""
    from tractdim.pressure import BowenInterval
    from tractdim.tractgeom import Rect, RunBlock
    for record in (Rect(0.5, 1.5, -0.5, 0.5), RunBlock(0, 1, 2, 3),
                   BowenInterval(t_lo=1.0, t_hi=1.5)):
        obj = {"bare": record, "in a dict": {"r": record}, "in a list": [1, record],
               "in a tuple": (record,)}[where]
        with pytest.raises(TypeError, match=f"type {type(record).__name__} is not JSON"):
            canonical_json(obj)


def test_canonical_json_writes_ints_past_the_digit_limit_as_hex():
    """An int past the int-to-string limit is the string hex(n), which
    int(x, 16) reads back under the limit; one at the limit stays a JSON
    number."""
    limit = sys.get_int_max_str_digits()
    big, at_limit = 10 ** (limit + 5) + 3, 10 ** limit - 1
    back = json.loads(canonical_json({"big": big, "neg": -big, "at": at_limit}))
    assert back["big"] == hex(big) and int(back["big"], 16) == big
    assert int(back["neg"], 16) == -big
    assert back["at"] == at_limit


def test_no_module_changes_the_int_digit_limit():
    """No module of the package touches `sys.set_int_max_str_digits`: a
    report must not change interpreter-wide state."""
    src = Path(numerics.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.value if isinstance(node, ast.Constant) else None)
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [name]
            if "set_int_max_str_digits" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


REPORT = {"t": 1.0015174776166387, "words": [[2, -3], [0, 65]], "name": "é"}
CSV_ARGS = (["re", "im", "space"], [np.array([0.5, -1e300]), np.array([2.0, math.nan]),
                                    ["lifted", "plane"]])
WRITERS = {"json": lambda path: numerics.write_json(path, REPORT),
           "csv": lambda path: write_csv(path, *CSV_ARGS)}


@pytest.mark.parametrize("kind", sorted(WRITERS))
@pytest.mark.parametrize("before", [None, "same", "longer", "shorter"])
def test_a_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, kind, before):
    """Over no file, or one of the same length, longer or shorter, a
    report is rewritten in place: the same inode, cut to the bytes of a
    write to a new path."""
    write = WRITERS[kind]
    fresh, path = tmp_path / "fresh", tmp_path / "report"
    write(fresh)
    want = fresh.read_bytes()
    old = {None: None, "same": b"x" * len(want), "longer": b"y" * (3 * len(want) + 7),
           "shorter": b"z\n"}[before]
    if old is not None:
        path.write_bytes(old)
    inode = path.stat().st_ino if old is not None else None
    write(path)
    assert path.read_bytes() == want
    assert inode in (None, path.stat().st_ino)


@pytest.mark.parametrize("kind", sorted(WRITERS))
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_report_gets_the_mode_of_a_truncating_open(tmp_path, kind, umask):
    old_umask = os.umask(umask)
    try:
        WRITERS[kind](tmp_path / "new")
        with open(tmp_path / "reference", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_report_through_a_symlink_rewrites_its_target(tmp_path, kind):
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    target.write_bytes(b"old bytes, longer than nothing\n" * 40)
    link.symlink_to(target)
    WRITERS[kind](link)
    WRITERS[kind](fresh)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_report_to_dev_null_is_not_cut(kind):
    """/dev/null takes the bytes; truncating it would raise EINVAL."""
    WRITERS[kind](os.devnull)


def _writer_sites(tree):
    """(function, line) of each call in `tree` that may write a file: an
    `os.open`, any `open(...)` whose mode is not a constant without w, a
    or x, and `write_text` / `write_bytes`."""
    sites, stack = [], [(tree, "<module>")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            stack.append((child, inner))
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            is_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
            if name in ("write_text", "write_bytes") or (name == "open" and is_os):
                sites.append((inner, child.lineno))
            elif name == "open":
                modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax")):
                    sites.append((inner, child.lineno))
    return sorted(sites)


def test_the_scan_finds_a_truncating_open():
    code = ("def f(p):\n    with open(p, 'w') as fh:\n        pass\n"
            "    open(p, mode='ab'); open(p, 'x'); open(p); open(p, 'rb')\n")
    assert _writer_sites(ast.parse(code)) == [("f", 2), ("f", 4), ("f", 4)]


def test_every_file_write_goes_through_the_numerics_helper():
    """Only `numerics._write_text` opens a file for writing, so no writer
    brings back the truncating `open(path, "w")` (see the `numerics`
    module docstring)."""
    src = Path(numerics.__file__).parent
    found = {path.name: _writer_sites(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(src.glob("*.py"))}
    found = {name: sites for name, sites in found.items() if sites}
    assert set(found) == {"numerics.py"}
    assert {where for where, _ in found["numerics.py"]} == {"_write_text"}
