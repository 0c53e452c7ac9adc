"""Peak traced memory of the inspection commands.

numpy reports its array buffers to tracemalloc, so a traced peak counts
every array a call allocates, besides the Python objects.  Each call runs
once untraced first, so that imports and first-call caches stay out of
the count.  The bounds hold the copies out: `sample` writes its CSV in row
blocks from the float arrays, and box counting reuses one set of buffers
across its scales.
"""

import tracemalloc

import pytest

from tractdim import cli, oracle

MIB = 2 ** 20


def _traced_peak(fn) -> int:
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [["sample"], ["oracle", "box-dim"]], ids=" ".join)
def test_inspection_command_peak_below_5_mib(tmp_path, capsys, argv):
    """`tractdim sample` (small config: 10,000 words, 20,000 CSV rows) and
    `tractdim oracle box-dim` (100,000 middle-thirds points, 7 scales)."""
    out = str(tmp_path / "out")

    def run():
        assert cli.main(argv + ["--out", out]) == 0

    peak = _traced_peak(run)
    capsys.readouterr()
    assert peak <= 5 * MIB, f"{peak / MIB:.2f} MiB"


def test_box_counting_peak_below_3_mib_beyond_its_input():
    """Three 100,000-entry buffers (2.3 MiB) and the key-step mask; the
    input cloud is allocated before tracing starts."""
    pts = oracle.cantor_middle_thirds(count=100_000, depth=35, seed=0)
    scales = [3.0 ** -k for k in range(1, 8)]
    peak = _traced_peak(lambda: oracle.box_counting_dim(pts, scales))
    assert peak <= 3 * MIB, f"{peak / MIB:.2f} MiB"
