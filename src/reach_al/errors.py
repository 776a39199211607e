"""Exception types shared across the pipeline, and the CSV table reader and
writer behind every detection, labeled-cache and results file."""

import csv


class ReachALError(Exception):
    """Base class for errors raised by this package."""


class IngestionError(ReachALError):
    """An input file is missing or unreadable, or does not match its schema."""


class ConfigError(ReachALError):
    """A configuration file or parameter combination is invalid."""


def csv_error_line(path, reader, exc: Exception) -> int:
    """Line of a read error in a CSV file.

    The reader's count is right for CSV and row errors.  Undecodable bytes
    are found a whole block ahead of the reader, so their line is counted
    in the raw file instead.
    """
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as first:
            return data.count(b"\n", 0, first.start) + 1
    return reader.line_num


def read_table(path, what: str, columns: tuple, parse, skip_malformed: bool = False) -> int:
    """Call ``parse(row)`` on each row of a CSV file headed by ``columns``.

    A row with the wrong number of cells, or one ``parse`` rejects with a
    ``ValueError``, is skipped and counted when ``skip_malformed`` is set.
    Otherwise it, like a file that cannot be opened, decoded or split into
    CSV rows, or whose header is missing or not ``columns``, raises
    ``IngestionError`` naming the ``what`` file at ``path`` (and the line).
    Returns the number of rows skipped.
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {what} {path}: {exc}") from exc
    skipped = 0
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{what} {path} is empty")
            if tuple(header) != columns:
                raise IngestionError(f"unexpected {what} header in {path}")
            for row in reader:
                try:
                    if len(row) != len(columns):
                        raise ValueError(f"expected {len(columns)} columns, got {len(row)}")
                    parse(row)
                except ValueError:
                    if not skip_malformed:
                        raise
                    skipped += 1
        except (csv.Error, ValueError) as exc:
            line = csv_error_line(path, reader, exc)
            raise IngestionError(f"malformed {what} {path}, line {line}: {exc}") from exc
    return skipped


# Lines per write.  64 labeled-cache lines are about 46 KB, so a block's
# joined text and encoded bytes stay heap blocks that the next block reuses;
# 512-line blocks (370 KB) spread `reach-al label`'s peak RSS over 2 MB.
_BLOCK = 64


def plain_line(line: str, n_cells: int) -> bool:
    """Whether ``line`` is ``n_cells`` cells joined by commas that
    ``csv.writer`` would write as they are: it is not empty and holds exactly
    ``n_cells - 1`` commas and no ``"``, ``\\r`` or ``\\n``."""
    return bool(line) and line.count(",") == n_cells - 1 and not (
        '"' in line or "\r" in line or "\n" in line
    )


def write_table(path, columns: tuple, rows) -> None:
    """Write a CSV file: the ``columns`` header, then each of ``rows``.

    Each row is a list or tuple of str, int or float cells, or a str that
    holds a line's cells already joined by commas.  The file holds the bytes
    ``csv.writer`` gives the cells.  For these types
    ``",".join(map(str, row))`` is ``csv.writer``'s line whenever no cell
    needs quoting (``str`` of a float is its ``repr``).  So a row of
    ``len(columns)`` cells whose joined line is a :func:`plain_line` is
    written as that line, ``_BLOCK`` lines to a write; ``csv.writer`` writes
    the header and every other row.  (It writes a lone empty cell as
    ``""``.)  A pre-joined line must be a :func:`plain_line`, or
    ``ValueError`` is raised: its cells cannot be told apart to quote them.
    """
    n = len(columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        block = []
        for row in rows:
            if isinstance(row, str):
                if not plain_line(row, n):
                    raise ValueError(f"a pre-joined line of {n} cells needs quoting: {row!r}")
                line = row
            else:
                line = ",".join(map(str, row))
                if len(row) != n or not plain_line(line, n):
                    _write_lines(fh, block)
                    writer.writerow(row)
                    continue
            block.append(line)
            if len(block) == _BLOCK:
                _write_lines(fh, block)
        _write_lines(fh, block)


def _write_lines(fh, block: list) -> None:
    """Write and clear a block of lines that need no quoting."""
    if block:
        fh.write("\r\n".join(block) + "\r\n")
        block.clear()
