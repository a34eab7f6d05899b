"""CSV emission and re-reading.

A table is a header plus equal-length columns (numpy arrays, lists or
ranges).  Each column gets one conversion, fixed once per file by the
kind of its values: floats (and numpy float64) are written with 17
significant digits, so that re-reading reproduces every value exactly;
ints in decimal; strs quoted when they hold a comma, a quote, a carriage
return or a line feed, or are a lone empty field, as csv.writer quotes
them from Python 3.13 on.  One row template then formats CHUNK_ROWS rows
per % call.  Rows end in '\n' regardless of platform, so output bytes are
identical across runs and machines.
"""
from __future__ import annotations

import csv
import re
from itertools import chain

import numpy as np

__all__ = ["format_value", "render_csv", "write_csv", "read_csv"]

# The %-conversion that gives format_value's output, per value type.
_CONVERSION = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}
# Finds a character that makes a field quoted: the delimiter, the quote
# character or a line break.  csv.writer with lineterminator "\n" leaves a
# lone "\r" unquoted before Python 3.13, and csv.reader then splits the row.
_QUOTABLE = re.compile('[,"\r\n]').search
# Rows formatted into one string per file write.
CHUNK_ROWS = 4096


def format_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("bool is not a CSV value here")
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _quote(s: str, lone: bool) -> str:
    """s as a CSV field, in a row of one field when lone."""
    if _QUOTABLE(s) or (lone and s == ""):
        return '"' + s.replace('"', '""') + '"'
    return s


def _column(values: list, lone: bool) -> tuple[str, list]:
    """A column's one %-conversion, and its values ready for it (strs quoted)."""
    types = set(map(type, values))
    conversions = {_CONVERSION.get(t) for t in types} or {"%s"}
    if None in conversions or len(conversions) > 1:
        names = ", ".join(sorted(t.__name__ for t in types))
        raise TypeError(f"a CSV column holds floats, ints or strs of one kind, got {names}")
    (conversion,) = conversions
    if conversion == "%s":
        quoted = {s: _quote(s, lone) for s in set(values)}
        values = list(map(quoted.__getitem__, values))
    return conversion, values


def _chunks(header: list[str], columns):
    """The CSV text of the table: the header line, then CHUNK_ROWS rows per
    string.  Every check runs before the first string is produced."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(columns) != len(header) or len(set(lengths)) != 1:
        raise ValueError(f"need one equal-length column per header field, got {header}, {lengths}")
    lone = len(columns) == 1
    conversions, columns = zip(*(_column(c, lone) for c in columns))
    head = ",".join(_quote(h, lone) for h in header) + "\n"
    return chain([head], _rows(",".join(conversions) + "\n", columns, lengths[0]))


def _rows(template: str, columns, n_rows: int):
    """The rows of the columns through template, CHUNK_ROWS rows per string."""
    for i in range(0, n_rows, CHUNK_ROWS):
        chunk = [c[i : i + CHUNK_ROWS] for c in columns]
        yield (template * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk)))


def render_csv(header: list[str], columns) -> str:
    return "".join(_chunks(header, columns))


def write_csv(path, header: list[str], columns) -> None:
    """Write header and columns as CSV, CHUNK_ROWS rows per write.

    A table that cannot be written (a bool value, a column mixing kinds,
    columns of unequal length) raises before the file is opened.
    """
    chunks = _chunks(header, columns)
    with open(path, "w", encoding="ascii", newline="") as f:
        f.writelines(chunks)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header plus data rows, as strings; callers parse fields themselves."""
    with open(path, newline="", encoding="ascii") as f:
        r = csv.reader(f)
        header = next(r)
        return header, [row for row in r]
