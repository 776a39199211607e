import csv
import math
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reach_al.errors import _BLOCK, plain_line, write_table

# Cells that csv.writer quotes, that sit next to quoting, or that print
# differently under str and repr in other types.
ODD_TEXT = [",", '"', "\r", "\n", "\r\n", "\x00", " lead", '""', "", "é", "日本", "a,b", 'q"t', "x\ny"]
ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -1.5e300]

TEXT = st.one_of(
    st.sampled_from(ODD_TEXT),
    st.text(st.sampled_from(list(',"\r\n\x00 aé')), max_size=6),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
)
CELLS = st.one_of(
    TEXT,
    st.integers(),
    st.booleans(),
    st.floats(),
    st.sampled_from(ODD_FLOATS),
)
# Rows of plain floats, which take the joined-line path.
PLAIN_ROW = [0.1, 1e16, -0.0, 5e-324]


def csv_writer_bytes(path, columns, rows) -> bytes:
    """What ``csv.writer`` writes for the header and ``writerows(rows)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path.read_bytes()


def assert_same_bytes_as_csv_writer(columns, rows):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = pathlib.Path(tmp, "ours.csv"), pathlib.Path(tmp, "theirs.csv")
        write_table(ours, columns, rows)
        assert ours.read_bytes() == csv_writer_bytes(theirs, columns, rows)


@st.composite
def merged_rows(draw, n):
    """A row one or more cells short, whose one merged cell holds the
    missing commas: joined, it looks like a row of ``n`` plain cells."""
    cells = draw(st.lists(st.one_of(st.integers(), st.floats()), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 2, n))
    return cells[:i] + [",".join(map(str, cells[i:j]))] + cells[j:]


@st.composite
def tables(draw):
    """A header of 1-45 columns and rows of mostly the right cell count."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(1, 45)))
    columns = tuple(f"c{i}" for i in range(n))
    counts = st.one_of(st.just(n), st.just(n), st.integers(0, n + 2))
    rows = [counts.flatmap(lambda k: st.lists(CELLS, min_size=k, max_size=k))]
    if n > 1:
        rows.append(merged_rows(n))
    return columns, draw(st.lists(st.one_of(rows), max_size=12))


class TestWriteTable:
    @settings(max_examples=400, deadline=None)
    @given(table=tables())
    # Each check on the joined line, and a short row whose cell commas
    # make up the missing separators.
    @example(table=(("a", "b"), [["x,y", 1]]))
    @example(table=(("a", "b"), [['q"t', 1]]))
    @example(table=(("a", "b"), [["x\ry", 1]]))
    @example(table=(("a", "b"), [["x\ny", 1]]))
    @example(table=(("a", "b", "c"), [["x,y", 1.0]]))
    @example(table=(("a",), [[""]]))
    def test_same_bytes_as_csv_writer(self, table):
        assert_same_bytes_as_csv_writer(*table)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
        offsets=st.lists(st.integers(-2, 2), max_size=3),
        odd=st.sampled_from(["a,b", 'q"t', "x\ny", "x\ry"]),
        odd_last=st.booleans(),
    )
    @example(n_rows=2 * _BLOCK + 1, offsets=[-1, 0, 1], odd='q"t', odd_last=True)
    def test_quoted_rows_around_a_block_flush(self, n_rows, offsets, odd, odd_last):
        rows = [[i, *PLAIN_ROW] for i in range(n_rows)]
        for edge in (_BLOCK, 2 * _BLOCK):
            for offset in offsets:
                if 0 <= edge + offset < n_rows:
                    rows[edge + offset] = [odd, *PLAIN_ROW]
        if odd_last:
            rows[-1] = [odd, *PLAIN_ROW]
        assert_same_bytes_as_csv_writer(("id", "a", "b", "c", "d"), rows)

    @settings(max_examples=200, deadline=None)
    @given(table=tables(), joined=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_pre_joined_lines_same_bytes_as_their_cells(self, table, joined):
        """A row given as its plain line writes what its cells write."""
        columns, rows = table
        lines = []
        for row, pick in zip(rows, joined):
            line = ",".join(map(str, row))
            lines.append(line if pick and len(row) == len(columns) and plain_line(line, len(row)) else row)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = pathlib.Path(tmp, "ours.csv"), pathlib.Path(tmp, "theirs.csv")
            write_table(ours, columns, lines)
            assert ours.read_bytes() == csv_writer_bytes(theirs, columns, rows)

    @pytest.mark.parametrize("line", ["a,b", "a", "a,b,c,d", "", 'a,"b",c', "a,b\n,c", "a\r,b,c"])
    def test_pre_joined_line_that_needs_quoting_raises(self, tmp_path, line):
        with pytest.raises(ValueError, match="needs quoting"):
            write_table(tmp_path / "t.csv", ("x", "y", "z"), [[1, 2, 3], line])
