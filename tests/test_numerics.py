import math

import pytest

from tractdim.numerics import write_csv


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
