"""Inner loops for orbit iteration and Lyapunov accumulation.

The one hot path of the package is the point loop.  From (x0, y0) it
iterates the map through the transient once, then for
max(n_record, n_lyap) steps records the tail states during the first
n_record steps and, during the first n_lyap, pushes a unit tangent
vector q1 (initially (1, 0)) through the exact Jacobian J, renormalizes
it and stores the two norms of each step: n1 = |J q1|, and n2 the area
that J spans over q1's quarter turn, measured against the new q1 (the
norm Gram-Schmidt gives its second vector, always perpendicular to q1 in
2-D; n1 * n2 = |det J| where n1 > 0).  It stops at escape: a component
past dynamics.ESCAPE_THRESHOLD, or not finite.  That threshold is a
constant, so no function here takes it: _py_loop reads it, and _c_loop's
one ctypes call passes it to _frame.c's threshold argument.  The loop's
one entry, point_lanes, runs it for k points (lanes) at once:
orbit_kernel is a one-lane call with n_lyap = 0, lyapunov_kernel one
with n_record = 0, and sweep._evaluate runs LANES points per call.  It
refuses a budget below 0 and a run of over 2**63 - 1 steps, which the C
loop's step counters would wrap.  Its buffer checks sit above the
backends, so both refuse the same inputs and neither checks again.

A backend is a triple (lanes, lib, loop): the compiled one wraps one
build of _frame.c's block loop, keeps the loaded library and names the
build it bound; _PYTHON runs _py_loop, on plain Python floats
(math.sqrt is correctly rounded, like C's sqrt), once per lane, and has
no library.  Both use only + - * /, sqrt and fabs in the same order, so
they give the same bits; tests/test_kernels.py pins this.  The compiled
loop advances its lanes in lockstep, so the core overlaps their chains
of a square root and two divisions per step; each lane is bitwise a
one-lane call.  _frame.c writes it once, over blocks of four lanes, each
step two passes (push, map step), and compiles that one source twice:
point_loop_scalar (the baseline ISA; on x86-64 GCC turns each pass into
SSE2 operations on two lanes) and avx2_blocks (one AVX2 operation per
quantity, so one vector square root or division serves all four lanes).
_c_loop binds avx2_blocks where the CPU has AVX2 (asked once, when the
library loads, so _FLAGS and the cache key name no CPU), else
point_loop_scalar.  lane_loop() names the bound loop; backend() says
only "c" or "python".

The logs of the norms (LOG_ZERO for a norm that is not positive) are
taken afterwards with np.log on either backend, so math.log against
np.log never arises; where every norm is positive, as on a chaotic
point, they take one np.log pass.  A run's reported exponents are the
ordered, floored means of its two rows of logs, each summed by
np.add.reduce, numpy's pairwise sum (rounding error growing as log n
rather than n, as for a sequential add).  lane_exponents alone takes
them, for each lane of a sweep block and for lyapunov_kernel's one run,
whose running series (np.cumsum's sequential sums) ends at them.

The library also holds render_rows, the row renderer behind csvio's
tables and svgplot's data elements: rows of a %-template ("%.17g",
"%.2f", "%d", "%s"), each value written byte for byte as Python's %
writes it, from float64 and int64 arrays and Strings (a str column as
indexes into a table of ASCII strs).  The wrapper of the same name runs
it where the library is loaded, else applies the template with % in
Python, its twin: the same bytes, which tests/test_csv_svg.py pins.

Build: the first kernel or render_rows call, never the import, compiles
_frame.c with sysconfig's CC (or cc) into the package's __pycache__ (a private
temporary directory if that is not writable), under a name keyed by the
SHA-256 of the source, the flags and the machine, and loads it with
ctypes; _load declares render_rows' signature and binds the point loop,
once per process.  Every successful load, of a new build or a cached
one, deletes the other _frame-*.so builds beside it.  The build takes about 0.4 to
0.6 s with gcc 12, once per source.  If there is no compiler,
or the build or the load fails, the Python backend runs instead: slower,
same results.  backend() says which.

This module imports numpy, so it loads with the first engine module
(orbit, lyapunov or sweep) that a caller uses: `import ecokmap` and
`import ecokmap.cli` load neither.

_py_loop takes the map and its Jacobian from dynamics.step_xy and
jacobian_xy, as dynamics.step and jacobian do; _frame.c repeats them,
and tests/test_kernels.py pins it bitwise against _py_loop.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import re
from itertools import chain
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .dynamics import ESCAPE_THRESHOLD, MAX_COUNT, jacobian_xy, step_xy

# Stand-in for log(0) when a tangent vector collapses exactly; roughly
# log of the smallest subnormal double.  Final exponents are floored far
# above this, so the precise value never shows through.
LOG_ZERO = -745.0

# Points per point_lanes call in a sweep: enough independent chains to
# keep the core's square-root and divide units busy, while the norm
# buffer (2 * LANES * n_lyap floats) stays small.
LANES = 4

_SOURCE = Path(__file__).with_name("_frame.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
# Strict IEEE double arithmetic: no fused multiply-add, and never
# -ffast-math, -Ofast or -funsafe-math-optimizations, which reorder it.
# -fno-math-errno (sqrt sets no errno) and -fno-trapping-math (no
# floating-point exception is observed) change no value; without them GCC
# leaves _frame.c's square roots and selects scalar.
_FLAGS = (
    "-std=c99", "-O2", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math",
    "-shared", "-fPIC",
)
_COMPILE_TIMEOUT_S = 120
# One lane's tail and norm buffers for a window of no steps.
_NO_WINDOW, _NO_NORMS = np.empty((1, 0, 2)), np.empty((1, 0))


def _inside(x, y):
    """Not escaped: both components within ESCAPE_THRESHOLD (False for NaN)."""
    return abs(x) <= ESCAPE_THRESHOLD and abs(y) <= ESCAPE_THRESHOLD


def _log_norms(norms):
    """Overwrite norms (an array or a view) with their logs, LOG_ZERO for
    a norm that is not positive."""
    if norms.min() > 0.0:  # false if any norm is NaN, zero or negative
        np.log(norms, out=norms)
        return
    collapsed = ~(norms > 0.0)
    np.copyto(norms, 1.0, where=collapsed)
    np.log(norms, out=norms)
    np.copyto(norms, LOG_ZERO, where=collapsed)


def _is_buffer(buf, ndim: int) -> bool:
    """buf is a writable C-contiguous float64 ndarray of ndim dimensions:
    the layout both backends write."""
    return (
        isinstance(buf, np.ndarray) and buf.ndim == ndim and buf.dtype == np.float64
        and buf.flags.c_contiguous and buf.flags.writeable
    )


def _ordered(a, b, floor):
    """The larger and the smaller of each pair of means, floored; a NaN
    mean stays NaN."""
    ge = a >= b
    return np.maximum(np.where(ge, a, b), floor), np.maximum(np.where(ge, b, a), floor)


def _py_loop(
    r1, r2, c1, c2, c3, c4, x, y, n_transient, n_record, n_lyap, tail, norm1, norm2
):
    """The point loop on plain Python floats.

    Writes the state after post-transient step i to tail[i] for
    i < n_record and the two norms of step i to norm1[i], norm2[i] for
    i < n_lyap.  Returns (at_step, x, y): the 1-based step at which the
    state escaped (0 if it did not) and the last finite state.

    q1 is pushed to v1 = J q1 and its quarter turn (-q1y, q1x) to v2
    before q1 moves; q1 becomes v1 / n1 where n1 = |v1| is positive, and
    n2 = |q1 x v2| takes the new q1: no second vector, no square root and
    no division.  A norm is NaN only where q1 meets a value that is not
    finite, such as a start state that is not finite.  The sign and
    payload of a NaN depend on the order of the operands, which a compiler
    may swap, so both loops store a NaN norm as math.nan.
    """
    for n in range(1, n_transient + 1):
        xn, yn = step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if not _inside(xn, yn):
            return n, x, y
        x, y = xn, yn

    q1x, q1y = 1.0, 0.0
    for i in range(max(n_record, n_lyap)):
        if i < n_lyap:
            j11, j12, j21, j22 = jacobian_xy(r1, r2, c1, c2, c3, c4, x, y)
            v1x = j11 * q1x + j12 * q1y
            v1y = j21 * q1x + j22 * q1y
            v2x = j12 * q1x - j11 * q1y
            v2y = j22 * q1x - j21 * q1y

            n1 = math.sqrt(v1x * v1x + v1y * v1y)
            if n1 > 0.0:
                q1x = v1x / n1
                q1y = v1y / n1
            elif n1 != 0.0:
                n1 = math.nan
            norm1[i] = n1

            n2 = abs(q1x * v2y - q1y * v2x)
            norm2[i] = n2 if n2 == n2 else math.nan

        xn, yn = step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if not _inside(xn, yn):
            return n_transient + i + 1, x, y
        x, y = xn, yn
        if i < n_record:
            tail[i, 0] = x
            tail[i, 1] = y
    return 0, x, y


class _Backend(NamedTuple):
    """A point loop's lanes, the compiled library behind them (None for
    the Python loop) and the name of the loop they run: "avx2", "scalar"
    or "python"."""

    lanes: Callable
    lib: Any = None
    loop: str = "python"


def _c_loop(lib, entry=None):
    """The compiled backend: lanes around the named entry of _frame.c
    (avx2_blocks or point_loop_scalar); by default avx2_blocks where
    lib.vector_loop() says the CPU has AVX2, else point_loop_scalar."""
    import ctypes

    dbl, ll, ptr = ctypes.c_double, ctypes.c_longlong, ctypes.c_void_p
    entry = entry or ("avx2_blocks" if lib.vector_loop() else "point_loop_scalar")
    fn = getattr(lib, entry)
    fn.argtypes = (ll, ptr, dbl, dbl, ll, ll, ll, dbl, ptr, ptr, ptr, ptr, ptr)
    fn.restype = None

    def lanes(params, x0, y0, n_transient, n_record, n_lyap, tail, norm1, norm2):
        k = len(params)
        flat = (dbl * (6 * k))(*(v for row in params for v in row))
        last, at_step = (dbl * (2 * k))(), (ll * k)()
        fn(
            k, flat, x0, y0, n_transient, n_record, n_lyap, ESCAPE_THRESHOLD,
            tail.ctypes.data, norm1.ctypes.data, norm2.ctypes.data, last, at_step,
        )
        return [(at_step[l], last[2 * l], last[2 * l + 1]) for l in range(k)]

    return _Backend(lanes, lib, "avx2" if entry == "avx2_blocks" else "scalar")


def _py_lanes(params, x0, y0, n_transient, n_record, n_lyap, tail, norm1, norm2):
    """The compiled lanes' signature and results: one _py_loop call per lane."""
    return [
        _py_loop(*row, x0, y0, n_transient, n_record, n_lyap, t, n1, n2)
        for row, t, n1, n2 in zip(params, tail, norm1, norm2)
    ]


_PYTHON = _Backend(_py_lanes)


class Strings(NamedTuple):
    """A column of strings for render_rows: row i holds table[index[i]].
    index is an int64 array; the table's strs are ASCII."""

    index: np.ndarray
    table: list


def strings(values) -> Strings:
    """A list of strs as Strings, the table in order of first appearance."""
    codes: dict = {}
    index = np.fromiter((codes.setdefault(v, len(codes)) for v in values), np.int64, len(values))
    return Strings(index, list(codes))


# A template's conversions, and render_rows' slot kind for each.
_CONVERSIONS = re.compile(r"%(\.17g|\.2f|d|s)")
_KINDS = {".17g": "g", ".2f": "f", "d": "d", "s": "s"}
# The most bytes one value of a kind takes: _frame.c's WIDEST_G/F/D.
_WIDEST = {"g": 24, "f": 313, "d": 20}
# _frame.c's struct slot: one row template slot, its literal and its column.
_SLOT = np.dtype([
    ("pre", np.uintp), ("pre_len", np.int64), ("kind", np.int64), ("col", np.uintp),
    ("stride", np.int64), ("text", np.uintp), ("ends", np.uintp),
])


def _compiled_column(kind, column) -> bool:
    """column is what _frame.c's render_rows reads for a slot of kind."""
    if kind == "s":
        return isinstance(column, Strings)
    dtype = np.int64 if kind == "d" else np.float64
    return isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == dtype


def render_rows(template: str, columns, chunk: int):
    """The rows of the columns through the %-template, as ASCII bytes, up to
    chunk rows per bytes object.

    Each conversion of template ("%.17g", "%.2f", "%d" or "%s"; its
    literal text holds no "%") takes one column, in order, all of one
    length: a float64 array for a float conversion, an int64 array for
    "%d", Strings for "%s".  The compiled library's render_rows writes
    each value exactly as % would.  Without the library, or where a column
    is anything else (a range or a list of ints past int64), the rows come
    from the template itself, % over chunk rows at a time: the same bytes."""
    pieces = _CONVERSIONS.split(template)
    kinds = [_KINDS[c] for c in pieces[1::2]]
    lengths = {len(c.index if isinstance(c, Strings) else c) for c in columns}
    if len(columns) != len(kinds) or len(lengths) != 1:
        raise ValueError(f"need one column per conversion of {template!r}, all of one length")
    (n_rows,) = lengths
    lib = _loop().lib
    if lib is None or not all(map(_compiled_column, kinds, columns)):
        for i in range(0, n_rows, chunk):
            rows = [_py_values(c, i, i + chunk) for c in columns]
            text = (template * len(rows[0])) % tuple(chain.from_iterable(zip(*rows)))
            yield text.encode("ascii")
        return
    *literals, post = [np.frombuffer(p.encode("ascii"), np.uint8) for p in pieces[::2]]
    slots, keep = np.zeros(len(kinds), _SLOT), []  # keep: what the slots point into
    width = len(post)
    for slot, pre, kind, column in zip(slots, literals, kinds, columns):
        slot["pre"], slot["pre_len"], slot["kind"] = pre.ctypes.data, len(pre), ord(kind)
        width += len(pre) + _WIDEST.get(kind, 0)
        if kind == "s":
            text = np.frombuffer("".join(column.table).encode("ascii"), np.uint8)
            ends = np.cumsum([0, *map(len, column.table)], dtype=np.int64)
            slot["text"], slot["ends"] = text.ctypes.data, ends.ctypes.data
            keep += [text, ends]
            width += max(map(len, column.table), default=0)
            column = column.index
        slot["col"], slot["stride"] = column.ctypes.data, column.strides[0]
    buf, used = np.empty(min(chunk, n_rows) * width, np.uint8), np.zeros(1, np.int64)
    start = 0
    while start < n_rows:
        stop = lib.render_rows(
            len(kinds), slots.ctypes.data, post.tobytes(), len(post), start,
            min(start + chunk, n_rows), buf.ctypes.data, len(buf), used.ctypes.data,
        )
        if stop == start:
            raise RuntimeError(f"a row of {template!r} does not fit in {len(buf)} bytes")
        yield buf[: used[0]].tobytes()
        start = stop


def _py_values(column, start, stop) -> list:
    """Rows start .. stop - 1 of a render_rows column, as Python values."""
    if isinstance(column, Strings):
        return [column.table[i] for i in column.index[start:stop].tolist()]
    part = column[start:stop]
    return part.tolist() if isinstance(part, np.ndarray) else part


def _sha256():
    """A SHA-256 object, from CPython's built-in module where there is one
    (_sha2 from Python 3.12, _sha256 before): importing hashlib loads
    OpenSSL, about 4 MB of RSS in every process that runs a kernel."""
    for module in ("_sha2", "_sha256"):
        with contextlib.suppress(ImportError):
            return importlib.import_module(module).sha256()
    import hashlib

    return hashlib.sha256()


def _load(path: Path):
    """Open the library at path, declare render_rows' signature and bind its
    point loop."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    ll, ptr = ctypes.c_longlong, ctypes.c_void_p
    lib.render_rows.argtypes = (ll, ptr, ctypes.c_char_p, ll, ll, ll, ptr, ll, ptr)
    lib.render_rows.restype = ll
    return _c_loop(lib)


def _compile(tmp: str, path: Path) -> None:
    """Compile _frame.c into the temporary file tmp, then move it to path."""
    import shlex
    import subprocess
    import sysconfig

    try:
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        cmd = [*cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"]
        subprocess.run(cmd, check=True, capture_output=True, timeout=_COMPILE_TIMEOUT_S)
        os.replace(tmp, path)  # atomic, so concurrent first runs are safe
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_and_load(path: Path):
    """Build the library at path, or in a private temporary directory if
    path's directory is not writable, and load it; None if the build fails."""
    import shutil
    import subprocess
    import tempfile

    private = None
    try:
        try:
            path.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        except OSError:
            private = tempfile.mkdtemp()
            path = Path(private) / path.name
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=private)
        os.close(fd)
        _compile(tmp, path)
        return _load(path)
    except subprocess.SubprocessError:
        return None
    finally:
        if private is not None:  # a loaded library stays mapped
            shutil.rmtree(private, ignore_errors=True)


def _compiled():
    """The compiled backend, built on first use and cached; None when there
    is no compiler or the build or the load fails.  A load deletes the
    other _frame-*.so builds beside it (not a build's mkstemp temporary)."""
    import platform

    try:
        key = _sha256()
        for part in (_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), platform.machine().encode()):
            key.update(part + b"\0")
        path = _CACHE_DIR / f"_frame-{key.hexdigest()[:16]}.so"
        loaded = _load(path) if path.exists() else _build_and_load(path)
        if loaded:
            for old in path.parent.glob("_frame-*.so"):
                if old != path:
                    with contextlib.suppress(OSError):
                        old.unlink()
        return loaded
    except (OSError, ValueError, AttributeError):
        return None


@functools.cache
def _loop():
    """The backend that runs: the compiled one if it builds and loads,
    else _PYTHON.  Resolved on the first kernel call, once per process."""
    return _compiled() or _PYTHON


def backend() -> str:
    """Which point loop runs: "c" (the compiled one) or "python".

    Loads the compiled loop, building it first if it is not cached."""
    return "python" if _loop().lib is None else "c"


def lane_loop() -> str:
    """Which loop the backend bound, so runs every point_lanes call, of
    any lane count: "avx2" (avx2_blocks), "scalar" (point_loop_scalar) or
    "python".  Loads the compiled loop, as backend() does."""
    return _loop().loop


@contextlib.contextmanager
def sized_by(name: str, count: int):
    """Raise a failure to make an array that the budget `name` = count
    sizes as MemoryError naming the budget.  numpy refuses with ValueError
    a size it cannot even count (some 2**60 floats); callers cap count at
    MAX_COUNT, so that is the fault of a failed allocation too."""
    try:
        yield
    except (ValueError, MemoryError) as e:
        raise MemoryError(f"{name} = {count}: {e}") from None


def buffer(shape, name: str, count: int) -> np.ndarray:
    """np.empty(shape), sized by the budget `name` = count."""
    with sized_by(name, count):
        return np.empty(shape)


def point_lanes(params, x0, y0, n_transient, n_record, n_lyap, tail, norm1, norm2):
    """Run the point loop (see the module docstring) on whichever backend
    runs, for each of k parameter rows (r1, r2, c1, c2, c3, c4), all from
    (x0, y0).  Each lane is bitwise a one-lane call.

    tail has shape (>= k, n_record, 2) and norm1/norm2 (>= k, n_lyap),
    each a writable C-contiguous float64 array; lane l writes only
    tail[l], norm1[l] and norm2[l].  Returns one
    (n_rec, n_used, at_step, x, y) tuple per lane: the tail rows and norm
    pairs written, the 1-based step at which the state escaped (0 if it
    did not within n_transient + max(n_record, n_lyap) steps) and the last
    finite state.
    """
    if min(n_transient, n_record, n_lyap) < 0 or n_transient + max(n_record, n_lyap) > MAX_COUNT:
        raise ValueError(
            f"need budgets >= 0, 2**63 - 1 steps at most, got {n_transient}, {n_record}, {n_lyap}"
        )
    k = len(params)
    for buf, row in ((tail, (n_record, 2)), (norm1, (n_lyap,)), (norm2, (n_lyap,))):
        if not (_is_buffer(buf, 1 + len(row)) and buf.shape[1:] == row and len(buf) >= k):
            raise ValueError(f"need >= {k} lane rows of shape {row}, C-contiguous float64, writable")
    runs = _loop()[0](params, x0, y0, n_transient, n_record, n_lyap, tail, norm1, norm2)
    results = []
    for at_step, x, y in runs:
        # Post-transient index of the escaping step; past both windows if none.
        i = at_step - n_transient - 1 if at_step else max(n_record, n_lyap)
        results.append((min(max(i, 0), n_record), min(max(i + 1, 0), n_lyap), at_step, x, y))
    return results


def lane_exponents(norm1, norm2, n_used, floor):
    """The ordered, floored pair (lambda1, lambda2) of each lane l, as two
    arrays, from the norms of its first n_used[l] steps, norm1[l] and
    norm2[l]; NaN where n_used[l] is 0.  norm1 and norm2 have shape
    (>= k, n), k = len(n_used), as point_lanes writes them.  Each lane's
    window is overwritten with its logs, and no other value is touched;
    each row of logs is summed by np.add.reduce and divided by n_used[l]."""
    sums = np.full((2, len(n_used)), math.nan)
    for lane, used in enumerate(n_used):
        if used:
            for row, norms in zip(sums, (norm1, norm2)):
                logs = norms[lane, :used]
                _log_norms(logs)
                row[lane] = np.add.reduce(logs)
    return _ordered(*(sums / n_used), floor)


def orbit_kernel(r1, r2, c1, c2, c3, c4, x0, y0, n_total, n_transient, out):
    """Iterate the map n_total times, recording states after the transient.

    out has shape (n_total - n_transient, 2).  Returns
    (n_recorded, escaped, at_step) where at_step is the 1-based iteration
    index at which escape was detected (0 if no escape); escaped states are
    never written to out.
    """
    ((n_rec, _, at_step, _, _),) = point_lanes(
        [(r1, r2, c1, c2, c3, c4)], x0, y0, n_transient, n_total - n_transient, 0,
        out[None], _NO_NORMS, _NO_NORMS,
    )
    return n_rec, at_step > 0, at_step


def lyapunov_kernel(
    r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_iter, floor, lam1_series, lam2_series
):
    """Two-exponent Benettin accumulation: one renormalized tangent vector
    and the area the Jacobian spans over it (see the module docstring).

    The point loop stores each step's two norms in lam1_series/lam2_series;
    lane_exponents turns them into logs and the returned pair, then the
    logs' running per-step means overwrite the buffers (sorted so series
    1 >= series 2, floored at `floor`), their last entries set to the pair.
    Returns (lambda1, lambda2, n_used, escaped, at_step).
    """
    ((_, n_used, at_step, _, _),) = point_lanes(
        [(r1, r2, c1, c2, c3, c4)], x0, y0, n_transient, 0, n_iter,
        _NO_WINDOW, lam1_series[None], lam2_series[None],
    )
    if n_used == 0:
        return 0.0, 0.0, 0, at_step > 0, at_step
    (lam1,), (lam2,) = lane_exponents(lam1_series[None], lam2_series[None], [n_used], floor)
    steps = np.arange(1, n_used + 1)
    s1, s2 = lam1_series[:n_used], lam2_series[:n_used]
    for s in (s1, s2):
        np.cumsum(s, out=s)
        s /= steps
    s1[:], s2[:] = _ordered(s1, s2, floor)
    s1[-1], s2[-1] = lam1, lam2
    return lam1, lam2, n_used, at_step > 0, at_step
