"""CSV emission and re-reading.

Floats are written with 17 significant digits so that re-reading
reproduces every value exactly; rows use '\n' regardless of platform so
output bytes are identical across runs and machines.

Rows are rendered through one %-template per sequence of field types
(float, numpy float64, int, str), which gives the bytes csv.writer gives
for the format_value strings; any other row, and any str field
csv.writer might quote, goes through csv.writer itself.
"""
from __future__ import annotations

import csv
import io
import re
from itertools import islice

import numpy as np

__all__ = ["format_value", "render_csv", "write_csv", "read_csv"]

# format_value's output for each exact type, as a %-conversion.
_CONVERSION = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}
# Finds a character that can make csv.writer quote a field.
_QUOTABLE = re.compile('[,"\r\n]').search
# Rows joined into one string per file write.
CHUNK_ROWS = 4096


def format_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("bool is not a CSV value here")
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    return str(v)


def _template(types: tuple) -> str | None:
    if not all(t in _CONVERSION for t in types):
        return None
    return ",".join(_CONVERSION[t] for t in types) + "\n"


def _plain(s: str) -> bool:
    """Whether csv.writer writes this str field unquoted."""
    return s != "" and not _QUOTABLE(s)


def _lines(header, rows):
    """The CSV text of header and rows, one line at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def reference(fields):
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()

    yield reference(header)
    templates = {}
    for row in rows:
        types = tuple(map(type, row))
        try:
            template = templates[types]
        except KeyError:
            template = templates[types] = _template(types)
        if template is not None and (
            str not in types or all(_plain(v) for v in row if type(v) is str)
        ):
            yield template % tuple(row)
        else:
            yield reference([format_value(v) for v in row])


def render_csv(header: list[str], rows) -> str:
    return "".join(_lines(header, rows))


def write_csv(path, header: list[str], rows) -> None:
    """Write header and rows as CSV, streaming CHUNK_ROWS rows per write.

    A row that cannot be written (a bool field, say) raises after the rows
    before it have been written.
    """
    lines = _lines(header, rows)
    with open(path, "w", encoding="ascii", newline="") as f:
        while chunk := "".join(islice(lines, CHUNK_ROWS)):
            f.write(chunk)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header plus data rows, as strings; callers parse fields themselves."""
    with open(path, newline="", encoding="ascii") as f:
        r = csv.reader(f)
        header = next(r)
        return header, [row for row in r]
