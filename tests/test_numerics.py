import ast
import json
import math
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
