"""The diagnostics CSV, with DiagnosticsRow's fields as its only schema: the gates.

``CSV_COLUMNS`` and ``TABLE_QUANTITIES`` are derived from the fields of
``DiagnosticsRow``, ``write_csv`` formats each field by its type and
``read_csv`` parses it by its type.  The frozen copies are the
column lists and the per-column-name writer and reader they replace; the
files must match them byte for byte, and the rows read back must match
bit for bit, compared as uint64 views so -0.0 vs +0.0 counts.
"""

import math

import pytest

from sympllt import diagnostics
from sympllt.diagnostics import DiagnosticsRow, read_csv, run_sweep, run_table, write_csv

from frozen import FROZEN_CSV_COLUMNS, FROZEN_TABLE_QUANTITIES, frozen_read_csv, frozen_write_csv
from support import row_fields


def hand_built_rows():
    quantities = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                  0.1, -2.5, 1e-300, 3.0, -1.0]
    return [
        DiagnosticsRow("hand", 3, 7, *quantities),
        DiagnosticsRow("hand", -0.0, 1, *quantities[::-1],
                       error='pivot 2 is not positive (-1.0), said "w2"'),
        DiagnosticsRow("hand", math.nan, 2, *[math.nan] * 12, error="a, b"),
        DiagnosticsRow("hand", math.inf, 3, *[-0.0] * 12, error='"'),
    ]


CASES = {
    "table-1": lambda: run_table(1),
    "table-2": lambda: run_table(2),
    "table-3": lambda: run_table(3),
    "sweep-random-1-20-seed-3": lambda: run_sweep("random", 1, 20, 3),
    "hand-built": hand_built_rows,
}


def test_column_lists_are_the_frozen_lists():
    assert diagnostics.CSV_COLUMNS == FROZEN_CSV_COLUMNS
    assert diagnostics.TABLE_QUANTITIES == FROZEN_TABLE_QUANTITIES


@pytest.mark.parametrize("case", list(CASES))
def test_csv_bytes_and_rows_match_the_frozen_writer_and_reader(tmp_path, case):
    rows = CASES[case]()
    path, frozen_path = tmp_path / "rows.csv", tmp_path / "frozen.csv"
    write_csv(path, rows)
    frozen_write_csv(frozen_path, rows)
    assert path.read_bytes() == frozen_path.read_bytes()
    back, frozen_back = read_csv(path), frozen_read_csv(path)
    assert len(back) == len(frozen_back) == len(rows)
    for got, want in zip(back, frozen_back):
        assert row_fields(got) == row_fields(want)
