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


def write_table(path, columns: tuple, rows) -> None:
    """Write a CSV file: the ``columns`` header, then each of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
