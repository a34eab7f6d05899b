"""CSV emission and re-reading.

A table is a header plus equal-length columns (numpy arrays, lists or
ranges).  Each column gets one conversion, fixed once per file by the
kind of its values (by the dtype of an array): floats (and numpy float64)
are written with 17 significant digits, so that re-reading reproduces
every value exactly; ints in decimal; strs quoted when they hold a comma,
a quote, a carriage return or a line feed, or are a lone empty field, as
csv.writer quotes them from Python 3.13 on.  A float column whose rows
repeat (a settled orbit repeats its states bit for bit) formats each
distinct value once, and its rows take those strings (see
format_floats); the bytes are the same as formatting every row.  One
row template then formats CHUNK_ROWS rows per % call.  Rows end in '\n'
regardless of platform, so output bytes are identical across runs and
machines.
"""
from __future__ import annotations

import csv
import re
from itertools import chain

import numpy as np

__all__ = ["format_value", "distinct_index", "format_floats", "render_csv", "write_csv", "read_csv"]

# The %-conversion that gives format_value's output, per value type.
_CONVERSION = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}
# Finds a character that makes a field quoted: the delimiter, the quote
# character or a line break.  csv.writer with lineterminator "\n" leaves a
# lone "\r" unquoted before Python 3.13, and csv.reader then splits the row.
_QUOTABLE = re.compile('[,"\r\n]').search
# Rows formatted into one string per file write.
CHUNK_ROWS = 4096
# Fewest values per distinct value at which a CSV column (format_floats)
# or a plot's points (svgplot) format each distinct value once.  With more
# distinct values, gathering their scattered strings costs more than
# formatting every value: 1.6 to 2 times as much on an orbit of 100 000
# distinct states.
MIN_REPEATS = 4


def format_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("bool is not a CSV value here")
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def distinct_index(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct values of the 1-d int64 array bits, sorted, and the
    index of each element's value among them; None when bits has fewer than
    MIN_REPEATS elements per distinct value."""
    ordered = np.sort(bits)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    if len(distinct) * MIN_REPEATS > len(bits):
        return None
    return distinct, np.searchsorted(distinct, bits)


def format_floats(values: np.ndarray, conversion: str) -> tuple[str, list | np.ndarray]:
    """A %-conversion and a sequence that give conversion % v for each v
    of the 1-d float64 array values.  Where distinct_index finds values
    repeating, each distinct bit pattern is formatted once and the sequence
    is a list of its strings, for "%s"; otherwise it is values, for
    conversion."""
    found = distinct_index(values.view(np.int64))
    if found is None:
        return conversion, values
    distinct, index = found
    text = np.array([conversion % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return "%s", text[index].tolist()


def _quote(s: str, lone: bool) -> str:
    """s as a CSV field, in a row of one field when lone."""
    if _QUOTABLE(s) or (lone and s == ""):
        return '"' + s.replace('"', '""') + '"'
    return s


def _column(column, lone: bool) -> tuple[str, list | range | np.ndarray]:
    """A column's one %-conversion, and its values ready for it (strs quoted).
    An array's dtype decides its conversion where it can."""
    if isinstance(column, range):
        return "%d", column
    if isinstance(column, np.ndarray):
        if column.ndim == 1 and column.dtype == np.float64:
            return format_floats(column, "%.17g")
        if column.ndim == 1 and column.dtype.kind in "iu":
            return "%d", column
        column = column.tolist()
    types = set(map(type, column))
    conversions = {_CONVERSION.get(t) for t in types} or {"%s"}
    if None in conversions or len(conversions) > 1:
        names = ", ".join(sorted(t.__name__ for t in types))
        raise TypeError(f"a CSV column holds floats, ints or strs of one kind, got {names}")
    (conversion,) = conversions
    if conversion == "%.17g":
        return format_floats(np.array(column, dtype=np.float64), conversion)
    if conversion == "%s":
        quoted = {s: _quote(s, lone) for s in set(column)}
        column = list(map(quoted.__getitem__, column))
    return conversion, column


def _chunks(header: list[str], columns):
    """The CSV text of the table: the header line, then CHUNK_ROWS rows per
    string.  Every check runs before the first string is produced."""
    columns = [c if isinstance(c, (np.ndarray, range)) else list(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(columns) != len(header) or len(set(lengths)) != 1:
        raise ValueError(f"need one equal-length column per header field, got {header}, {lengths}")
    lone = len(columns) == 1
    conversions, columns = zip(*(_column(c, lone) for c in columns))
    head = ",".join(_quote(h, lone) for h in header) + "\n"
    return chain([head], _rows(",".join(conversions) + "\n", columns, lengths[0]))


def _rows(template: str, columns, n_rows: int):
    """The rows of the columns through template, CHUNK_ROWS rows per string.
    An array column becomes Python values one chunk at a time."""
    for i in range(0, n_rows, CHUNK_ROWS):
        chunk = [c[i : i + CHUNK_ROWS] for c in columns]
        chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
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
    """Header plus data rows, as strings; callers parse fields themselves.
    A file without even a header row raises ValueError naming it."""
    with open(path, newline="", encoding="ascii") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV file, no header row")
        return header, [row for row in r]
