"""Inner loops for orbit iteration and Lyapunov accumulation.

The one hot path of the package is the point loop.  From (x0, y0) it
iterates the map through the transient once, then for
max(n_record, n_lyap) steps records the tail states during the first
n_record steps and, during the first n_lyap, pushes an orthonormal frame
(initially the identity) through the exact Jacobian, re-orthonormalizes
it by Gram-Schmidt and stores the two norms of each step.  It stops at
escape.  orbit_kernel runs it with n_lyap = 0, lyapunov_kernel with
n_record = 0, and sweep._evaluate once per sweep or grid point.

The loop has two implementations with one contract, bitwise: _frame.c,
compiled on the first kernel call, and _py_loop, on plain Python floats
(math.sqrt is correctly rounded, like C's sqrt).  Both use only
+ - * /, sqrt and fabs in the same order, so they give the same bits;
tests/test_kernels.py pins this.  The logs of the norms (LOG_ZERO for a
norm that is not positive), their sequential np.cumsum and the ordering
of the pair are taken afterwards in numpy on either path, so math.log
against np.log never arises.

Build: the first kernel call, never the import, compiles _frame.c with
sysconfig's CC (or cc) into the package's __pycache__ (a private
temporary directory if that is not writable), under a name keyed by the
SHA-256 of the source, the flags and the machine, and loads it with
ctypes.  If there is no compiler, or the build or the load fails, the
Python loop runs instead: slower, same results.  backend() says which.

This module imports numpy, so it loads with the first engine module
(orbit, lyapunov or sweep) that a caller uses: `import ecokmap` and
`import ecokmap.cli` load neither.

The step and Jacobian expressions here repeat dynamics.step and
dynamics.jacobian; tests/test_lyapunov.py::TestKernelFormulas and
tests/test_orbit.py::TestDeterminism pin them bitwise against those.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
from pathlib import Path

import numpy as np

# Stand-in for log(0) when a tangent vector collapses exactly; roughly
# log of the smallest subnormal double.  Final exponents are floored far
# above this, so the precise value never shows through.
LOG_ZERO = -745.0

_SOURCE = Path(__file__).with_name("_frame.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
# Strict IEEE double arithmetic: no fused multiply-add, and never
# -ffast-math, -Ofast or -funsafe-math-optimizations, which reorder it.
_FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120


def _step_xy(r1, r2, c1, c2, c3, c4, x, y):
    xn = x * r1 * (1.0 - c1 * x - c2 * y)
    yn = y * r2 * (1.0 - c3 * x - c4 * y)
    return xn, yn


def _inside(x, y, threshold):
    """Not escaped: both components within threshold (False for NaN)."""
    return abs(x) <= threshold and abs(y) <= threshold


def _log_sums(norms):
    """Overwrite norms with the running sums of their logs (LOG_ZERO for a
    norm that is not positive).  np.cumsum is a sequential add, so these
    are bitwise the running accumulation."""
    if norms.min() > 0.0:  # the usual case: no norm is zero or NaN
        np.log(norms, out=norms)
    else:
        collapsed = ~(norms > 0.0)
        np.copyto(norms, 1.0, where=collapsed)
        np.log(norms, out=norms)
        np.copyto(norms, LOG_ZERO, where=collapsed)
    np.cumsum(norms, out=norms)


def _ordered(a, b, floor):
    """The larger and the smaller of each pair of running means, floored."""
    ge = a >= b
    hi = np.where(ge, a, b)
    lo = np.where(ge, b, a)
    return np.where(hi > floor, hi, floor), np.where(lo > floor, lo, floor)


def _py_loop(
    r1, r2, c1, c2, c3, c4, x, y, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2
):
    """The point loop on plain Python floats.

    Writes the state after post-transient step i to tail[i] for
    i < n_record and the two norms of step i to norm1[i], norm2[i] for
    i < n_lyap.  Returns (at_step, x, y): the 1-based step at which the
    state escaped (0 if it did not) and the last finite state.
    """
    for n in range(1, n_transient + 1):
        xn, yn = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if not _inside(xn, yn, threshold):
            return n, x, y
        x, y = xn, yn

    q1x, q1y = 1.0, 0.0
    q2x, q2y = 0.0, 1.0
    for i in range(max(n_record, n_lyap)):
        if i < n_lyap:
            j11 = r1 * (1.0 - 2.0 * c1 * x - c2 * y)
            j12 = -r1 * c2 * x
            j21 = -r2 * c3 * y
            j22 = r2 * (1.0 - c3 * x - 2.0 * c4 * y)

            v1x = j11 * q1x + j12 * q1y
            v1y = j21 * q1x + j22 * q1y
            v2x = j11 * q2x + j12 * q2y
            v2y = j21 * q2x + j22 * q2y

            n1 = math.sqrt(v1x * v1x + v1y * v1y)
            if n1 > 0.0:
                q1x = v1x / n1
                q1y = v1y / n1
            norm1[i] = n1

            proj = q1x * v2x + q1y * v2y
            wx = v2x - proj * q1x
            wy = v2y - proj * q1y
            n2 = math.sqrt(wx * wx + wy * wy)
            if n2 > 0.0:
                q2x = wx / n2
                q2y = wy / n2
            else:
                q2x = -q1y
                q2y = q1x
            norm2[i] = n2

        xn, yn = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if not _inside(xn, yn, threshold):
            return n_transient + i + 1, x, y
        x, y = xn, yn
        if i < n_record:
            tail[i, 0] = x
            tail[i, 1] = y
    return 0, x, y


def _address(buf, n):
    """Address of a C-contiguous float64 buffer of at least n values; None for n <= 0."""
    if n <= 0:
        return None
    if not (
        isinstance(buf, np.ndarray)
        and buf.dtype == np.float64
        and buf.flags.c_contiguous
        and buf.flags.writeable
        and buf.size >= n
    ):
        raise ValueError(f"need a writable C-contiguous float64 buffer of {n} values")
    return buf.ctypes.data


def _c_loop(fn):
    """_py_loop's signature and results around the compiled point_loop."""
    import ctypes

    dbl, ll, ptr = ctypes.c_double, ctypes.c_longlong, ctypes.c_void_p
    fn.argtypes = (ptr, dbl, dbl, ll, ll, ll, dbl, ptr, ptr, ptr, ptr)
    fn.restype = ll

    def loop(
        r1, r2, c1, c2, c3, c4, x, y, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2
    ):
        params = (dbl * 6)(r1, r2, c1, c2, c3, c4)
        last = (dbl * 2)()
        at_step = fn(
            params, x, y, n_transient, n_record, n_lyap, threshold,
            _address(tail, 2 * n_record), _address(norm1, n_lyap), _address(norm2, n_lyap), last,
        )
        return at_step, last[0], last[1]

    return loop


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
    import ctypes

    return _c_loop(ctypes.CDLL(str(path)).point_loop)


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
    """The compiled point loop, built on first use and cached; None when
    there is no compiler or the build or the load fails."""
    import platform

    try:
        key = _sha256()
        for part in (_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), platform.machine().encode()):
            key.update(part + b"\0")
        path = _CACHE_DIR / f"_frame-{key.hexdigest()[:16]}.so"
        return _load(path) if path.exists() else _build_and_load(path)
    except (OSError, ValueError, AttributeError):
        return None


@functools.cache
def _loop():
    """The point loop that runs: the compiled one if it builds and loads,
    else _py_loop.  Resolved on the first kernel call, once per process."""
    return _compiled() or _py_loop


def backend() -> str:
    """Which point loop runs: "c" (the compiled one) or "python".

    Loads the compiled loop, building it first if it is not cached."""
    return "python" if _loop() is _py_loop else "c"


def point_loop(
    r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2
):
    """Run the point loop (see the module docstring) on whichever backend runs.

    tail has shape (n_record, 2) and norm1/norm2 hold n_lyap values; a
    buffer whose window is empty may be None.  Returns
    (n_rec, n_used, at_step, x, y): the tail rows and norm pairs written,
    the 1-based step at which the state escaped (0 if it did not within
    n_transient + max(n_record, n_lyap) steps) and the last finite state.
    """
    at_step, x, y = _loop()(
        r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_record, n_lyap, threshold, tail, norm1, norm2
    )
    if not at_step:
        return n_record, n_lyap, 0, x, y
    i = at_step - n_transient - 1  # post-transient index of the escaping step
    return min(max(i, 0), n_record), min(max(i + 1, 0), n_lyap), at_step, x, y


def final_lambda1(norm1, norm2, floor):
    """The largest exponent from the norms of n >= 1 loop steps, which it
    overwrites.

    Bitwise the last lambda1 of lyapunov_kernel's series, without the
    series: the same logs, sequential sums and ordering."""
    n = len(norm1)
    _log_sums(norm1)
    _log_sums(norm2)
    return float(_ordered(norm1[-1] / n, norm2[-1] / n, floor)[0])


def orbit_kernel(r1, r2, c1, c2, c3, c4, x0, y0, n_total, n_transient, threshold, out):
    """Iterate the map n_total times, recording states after the transient.

    out has shape (n_total - n_transient, 2).  Returns
    (n_recorded, escaped, at_step) where at_step is the 1-based iteration
    index at which escape was detected (0 if no escape); escaped states are
    never written to out.
    """
    n_rec, _, at_step, _, _ = point_loop(
        r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_total - n_transient, 0, threshold,
        out, None, None,
    )
    return n_rec, at_step > 0, at_step


def lyapunov_kernel(
    r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_iter, threshold, floor, lam1_series, lam2_series
):
    """Two-exponent Benettin accumulation with per-step Gram-Schmidt.

    The point loop stores each step's two norms in lam1_series/lam2_series;
    after it, their logs (LOG_ZERO for a norm that is not positive) are
    accumulated and the running per-step means overwrite the buffers
    (sorted so series 1 >= series 2, floored at `floor`).  Returns
    (lambda1, lambda2, n_used, escaped, at_step).
    """
    _, n_used, at_step, _, _ = point_loop(
        r1, r2, c1, c2, c3, c4, x0, y0, n_transient, 0, n_iter, threshold,
        None, lam1_series, lam2_series,
    )
    if n_used == 0:
        return 0.0, 0.0, 0, at_step > 0, at_step
    steps = np.arange(1, n_used + 1)
    s1 = lam1_series[:n_used]
    s2 = lam2_series[:n_used]
    for s in (s1, s2):
        _log_sums(s)
        s /= steps
    hi, lo = _ordered(s1, s2, floor)
    s1[:] = hi
    s2[:] = lo
    return s1[-1], s2[-1], n_used, at_step > 0, at_step
