"""CSV emission and re-reading.

A table is a header plus equal-length columns (numpy arrays, lists or
ranges).  Each column gets one conversion, fixed once per file by the
kind of its values (by the dtype of an array): floats (and numpy float64)
are written with 17 significant digits, so that re-reading reproduces
every value exactly; ints in decimal; strs quoted when they hold a comma,
a quote, a carriage return or a line feed, or are a lone empty field, as
csv.writer quotes them from Python 3.13 on.  Headers and strs must be
ASCII.  The rows come from _kernels.render_rows, CHUNK_ROWS rows per
call: in C where the library is built, each value written exactly as
Python's % writes it, else through the same %-template in Python.  Rows
end in '\n' regardless of platform, so output bytes are identical across
runs and machines.
"""
from __future__ import annotations

import csv
import re

import numpy as np

from . import _kernels

__all__ = ["format_value", "render_csv", "write_csv", "read_csv"]

# The %-conversion that gives format_value's output, per value type.
_CONVERSION = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}
# Finds a character that makes a field quoted: the delimiter, the quote
# character or a line break.  csv.writer with lineterminator "\n" leaves a
# lone "\r" unquoted before Python 3.13, and csv.reader then splits the row.
_QUOTABLE = re.compile('[,"\r\n]').search
# Rows rendered into one bytes object per file write.
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


def _ascii(s: str, name: str) -> str:
    if not s.isascii():
        raise ValueError(f"CSV column {name!r}: {s!r} is not ASCII")
    return s


def _column(column, lone: bool, name: str):
    """A column's one %-conversion, and its values as render_rows takes
    them (strs quoted).  An array's dtype decides its conversion where it
    can; ints past int64 stay Python ints."""
    if isinstance(column, range):
        return "%d", _int64(column)
    if isinstance(column, np.ndarray) and column.ndim == 1:
        if column.dtype == np.float64:
            return "%.17g", column
        if column.dtype.kind in "iu":
            fits = column.dtype != np.uint64 or not len(column) or column.max() < 2**63
            return "%d", column.astype(np.int64, copy=False) if fits else column
        if column.dtype.kind == "U":
            # Rows repeat in runs (a sweep point's label, once per tail
            # state): only the first of each run is sorted.
            heads = np.ones(len(column), dtype=bool)
            np.not_equal(column[1:], column[:-1], out=heads[1:])
            starts = np.flatnonzero(heads)
            table, index = np.unique(column[starts], return_inverse=True)
            index = np.repeat(index.astype(np.int64), np.diff(starts, append=len(column)))
            return "%s", _quoted(index, table.tolist(), lone, name)
    if isinstance(column, np.ndarray):
        column = column.tolist()
    types = set(map(type, column))
    conversions = {_CONVERSION.get(t) for t in types} or {"%s"}
    if None in conversions or len(conversions) > 1:
        names = ", ".join(sorted(t.__name__ for t in types))
        raise TypeError(f"a CSV column holds floats, ints or strs of one kind, got {names}")
    (conversion,) = conversions
    if conversion == "%.17g":
        return conversion, np.array(column, dtype=np.float64)
    if conversion == "%s":
        return conversion, _quoted(*_kernels.strings(column), lone, name)
    return conversion, _int64(column)


def _quoted(index, table: list, lone: bool, name: str) -> _kernels.Strings:
    """A str column: each row's index into table, whose strs are checked
    ASCII and quoted."""
    return _kernels.Strings(index, [_quote(_ascii(s, name), lone) for s in table])


def _int64(ints):
    """A range or a list of ints as an int64 array; itself where an int is
    past int64 (as np.arange, whose length is a float quotient, would wrap
    or miscount it)."""
    try:
        if not isinstance(ints, range):
            return np.array(ints, dtype=np.int64)
        a = np.arange(ints.start, ints.stop, ints.step, dtype=np.int64)
        return a if len(a) == len(ints) and a[-1:].tolist() == list(ints[-1:]) else ints
    except OverflowError:
        return ints


def _chunks(header: list[str], columns):
    """The CSV bytes of the table: the header line, then CHUNK_ROWS rows per
    bytes object.  Every check runs before the first bytes are produced."""
    columns = [c if isinstance(c, (np.ndarray, range)) else list(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(columns) != len(header) or len(set(lengths)) != 1:
        raise ValueError(f"need one equal-length column per header field, got {header}, {lengths}")
    lone = len(columns) == 1
    head = ",".join(_quote(_ascii(h, h), lone) for h in header) + "\n"
    conversions, columns = zip(*(_column(c, lone, h) for c, h in zip(columns, header)))
    return head.encode("ascii"), _kernels.render_rows(
        ",".join(conversions) + "\n", columns, CHUNK_ROWS
    )


def render_csv(header: list[str], columns) -> str:
    head, rows = _chunks(header, columns)
    return b"".join([head, *rows]).decode("ascii")


def write_csv(path, header: list[str], columns) -> None:
    """Write header and columns as CSV, CHUNK_ROWS rows per write.

    A table that cannot be written (a bool value, a column mixing kinds,
    columns of unequal length, a header field or str that is not ASCII)
    raises before the file is opened.
    """
    head, rows = _chunks(header, columns)
    with open(path, "wb") as f:
        f.write(head)
        f.writelines(rows)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header plus data rows, as strings; callers parse fields themselves.
    A file without even a header row raises ValueError naming it."""
    with open(path, newline="", encoding="ascii") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV file, no header row")
        return header, [row for row in r]
