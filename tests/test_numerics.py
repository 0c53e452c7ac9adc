import json
import math

import numpy as np
import pytest

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


@pytest.mark.parametrize("n_rows", [0, 1, 3, 10])
def test_write_csv_equals_per_row_format(tmp_path, n_rows):
    header = ["re", "im", "space", "mixed"]
    columns = [col[:n_rows] for col in COLUMNS]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_csv(got, header, columns) == _write_csv_per_row(want, header, columns) == n_rows
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
