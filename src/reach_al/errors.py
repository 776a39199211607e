"""Exception types shared across the pipeline, and the line a CSV read failed on."""


class ReachALError(Exception):
    """Base class for errors raised by this package."""


class BoundaryError(ReachALError):
    """A detection pixel falls outside the image; the record is discarded."""


class NoDepthError(ReachALError):
    """A depth patch has no valid cells or a non-positive depth was used."""


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
