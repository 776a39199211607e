"""Exception types shared across the pipeline, and its one text-input layer.

Every file is read and written as UTF-8: :func:`read_text` reads an input
file whole, :func:`read_table` streams a CSV one.  Their errors name the file
once: ``cannot open ...`` it, ``cannot read ..., line N`` (a byte that is not
UTF-8) or ``malformed ...`` (text that breaks the file's format)."""

import csv


class ReachALError(Exception):
    """Base class for errors raised by this package."""


class IngestionError(ReachALError):
    """An input file is missing or unreadable, or does not match its schema."""


class ConfigError(ReachALError):
    """A configuration file or parameter combination is invalid."""


def read_text(path, what: str, error=IngestionError) -> str:
    """The ``what`` file at ``path`` decoded as UTF-8.  Raises ``error("cannot
    open {what} {path}: ...")``, or ``error("cannot read {what} {path}, line N:
    ...")`` naming the line of the first byte that is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"cannot open {what} {path}: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"cannot read {what} {path}, line {line}: not UTF-8 ({exc.reason})") from exc


def content_lines(text: str):
    """``(line number, content)`` of each line of ``text`` that holds more
    than blanks and a ``#`` comment, the content stripped of both."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_config_text(text: str, error=ConfigError) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment.  A line
    without ``=``, an empty key or a repeated one raises ``error("line N: ...")``."""
    out: dict[str, str] = {}
    for lineno, line in content_lines(text):
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"line {lineno}: expected 'key = value', got {line!r}")
        if not key:
            raise error(f"line {lineno}: empty key")
        if key in out:
            raise error(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def read_table(path, what: str, columns: tuple, parse, skip_malformed: bool = False) -> int:
    """Call ``parse(row)`` on each row of a UTF-8 CSV file headed by ``columns``.

    A row with the wrong number of cells, or one ``parse`` rejects with a
    ``ValueError``, is skipped and counted when ``skip_malformed`` is set.
    Otherwise it, like a file whose header is missing or not ``columns``,
    raises ``IngestionError`` naming the ``what`` file at ``path`` and the
    line.  One that cannot be opened or decoded raises as in :func:`read_text`,
    naming no line for a pipe.  Returns the number of rows skipped.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot open {what} {path}: {exc.strerror}") from exc
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
        except UnicodeDecodeError as exc:
            # Found a block ahead of the reader: a re-read names the line.
            if fh.seekable():
                read_text(path, what)
            raise IngestionError(f"cannot read {what} {path}: not UTF-8 ({exc.reason})") from exc
        except (csv.Error, ValueError) as exc:
            raise IngestionError(f"malformed {what} {path}, line {reader.line_num}: {exc}") from exc
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
