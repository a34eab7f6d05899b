"""Compiled inner loops for orbit iteration and Lyapunov accumulation.

These are the only hot paths in the package; each is a scalar kernel over
plain floats so that one grid point of a sweep is a pure function whose
floating-point operation order never depends on batch size or worker
count.  With numba available the kernels are JIT-compiled (nogil, so
thread pools get real parallelism); without it they run as plain Python.
The backends are not promised to agree bitwise (compiled np.log is libm's).

The step and Jacobian expressions here repeat dynamics.step and
dynamics.jacobian; tests/test_lyapunov.py::TestKernelFormulas and
tests/test_orbit.py::TestDeterminism pin them bitwise against those.
"""
from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(**kwargs):
        return lambda fn: fn


# Stand-in for log(0) when a tangent vector collapses exactly; roughly
# log of the smallest subnormal double.  Final exponents are floored far
# above this, so the precise value never shows through.
LOG_ZERO = -745.0


@njit(cache=True, nogil=True, inline="always")
def _step_xy(r1, r2, c1, c2, c3, c4, x, y):
    xn = x * r1 * (1.0 - c1 * x - c2 * y)
    yn = y * r2 * (1.0 - c3 * x - c4 * y)
    return xn, yn


@njit(cache=True, nogil=True, inline="always")
def _escaped(x, y, threshold):
    if not (np.isfinite(x) and np.isfinite(y)):
        return True
    return abs(x) > threshold or abs(y) > threshold


@njit(cache=True, nogil=True)
def orbit_kernel(r1, r2, c1, c2, c3, c4, x0, y0, n_total, n_transient, threshold, out):
    """Iterate the map n_total times, recording states after the transient.

    out has shape (n_total - n_transient, 2).  Returns
    (n_recorded, escaped, at_step) where at_step is the 1-based iteration
    index at which escape was detected (0 if no escape); escaped states are
    never written to out.
    """
    x = x0
    y = y0
    n_rec = 0
    for n in range(1, n_total + 1):
        x, y = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if _escaped(x, y, threshold):
            return n_rec, True, n
        if n > n_transient:
            out[n_rec, 0] = x
            out[n_rec, 1] = y
            n_rec += 1
    return n_rec, False, 0


@njit(cache=True, nogil=True)
def lyapunov_kernel(
    r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_iter, threshold, floor, lam1_series, lam2_series
):
    """Two-exponent Benettin accumulation with per-step Gram-Schmidt.

    An orthonormal frame (initially the identity) is pushed through the
    exact Jacobian along the orbit; the log of each re-orthonormalization
    norm is accumulated and the running per-step means are written into
    lam1_series/lam2_series (sorted so series 1 >= series 2, floored at
    `floor`).  Returns (lambda1, lambda2, n_used, escaped, at_step).
    """
    x = x0
    y = y0
    for n in range(1, n_transient + 1):
        x, y = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if _escaped(x, y, threshold):
            return 0.0, 0.0, 0, True, n

    q1x, q1y = 1.0, 0.0
    q2x, q2y = 0.0, 1.0
    acc1 = 0.0
    acc2 = 0.0
    n_used = 0
    escaped = False
    at_step = 0
    for i in range(n_iter):
        j11 = r1 * (1.0 - 2.0 * c1 * x - c2 * y)
        j12 = -r1 * c2 * x
        j21 = -r2 * c3 * y
        j22 = r2 * (1.0 - c3 * x - 2.0 * c4 * y)

        v1x = j11 * q1x + j12 * q1y
        v1y = j21 * q1x + j22 * q1y
        v2x = j11 * q2x + j12 * q2y
        v2y = j21 * q2x + j22 * q2y

        n1 = np.sqrt(v1x * v1x + v1y * v1y)
        if n1 > 0.0:
            q1x = v1x / n1
            q1y = v1y / n1
            acc1 += np.log(n1)
        else:
            acc1 += LOG_ZERO

        proj = q1x * v2x + q1y * v2y
        wx = v2x - proj * q1x
        wy = v2y - proj * q1y
        n2 = np.sqrt(wx * wx + wy * wy)
        if n2 > 0.0:
            q2x = wx / n2
            q2y = wy / n2
            acc2 += np.log(n2)
        else:
            q2x = -q1y
            q2y = q1x
            acc2 += LOG_ZERO

        n_used = i + 1
        a = acc1 / n_used
        b = acc2 / n_used
        hi = a if a >= b else b
        lo = b if a >= b else a
        lam1_series[i] = hi if hi > floor else floor
        lam2_series[i] = lo if lo > floor else floor

        x, y = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if _escaped(x, y, threshold):
            escaped = True
            at_step = n_transient + n_used
            break

    lam1 = lam1_series[n_used - 1] if n_used > 0 else 0.0
    lam2 = lam2_series[n_used - 1] if n_used > 0 else 0.0
    return lam1, lam2, n_used, escaped, at_step
