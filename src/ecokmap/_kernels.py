"""Inner loops for orbit iteration and Lyapunov accumulation.

These are the only hot paths in the package, all plain Python + numpy.
orbit_kernel and lyapunov_kernel are scalar kernels for one orbit.  Their
frame loops work on plain floats (math.sqrt is correctly rounded, like
np.sqrt); lyapunov_kernel stores the per-step norms and takes their logs
afterwards, as one array np.log (math.log is not bitwise np.log),
followed by a cumulative sum (a sequential add, so bitwise the running
accumulation).

lane_kernel is the sweep engine: it evaluates many parameter points at
once as numpy lanes.  Each lane runs the exact operation sequence of
orbit_kernel followed by lyapunov_kernel, with the same array np.log and
the same escape predicate (_inside), so a lane equals those two kernels
bitwise, and a lane's result never depends on which other lanes share
its batch.  tests/test_lanes.py pins this against iterate +
lyapunov_spectrum.

The step and Jacobian expressions here repeat dynamics.step and
dynamics.jacobian; tests/test_lyapunov.py::TestKernelFormulas and
tests/test_orbit.py::TestDeterminism pin them bitwise against those.
"""
from __future__ import annotations

import math

import numpy as np

# Stand-in for log(0) when a tangent vector collapses exactly; roughly
# log of the smallest subnormal double.  Final exponents are floored far
# above this, so the precise value never shows through.
LOG_ZERO = -745.0


def _step_xy(r1, r2, c1, c2, c3, c4, x, y):
    xn = x * r1 * (1.0 - c1 * x - c2 * y)
    yn = y * r2 * (1.0 - c3 * x - c4 * y)
    return xn, yn


def _inside(x, y, threshold):
    """Not escaped: both components within threshold (False for NaN).

    Works on floats and, elementwise, on lane arrays."""
    return (abs(x) <= threshold) & (abs(y) <= threshold)


def _log_norms(norms):
    """log of each norm, LOG_ZERO where it is not positive."""
    pos = norms > 0.0
    return np.where(pos, np.log(np.where(pos, norms, 1.0)), LOG_ZERO)


def _ordered(a, b, floor):
    """The larger and the smaller of each pair of running means, floored."""
    ge = a >= b
    hi = np.where(ge, a, b)
    lo = np.where(ge, b, a)
    return np.where(hi > floor, hi, floor), np.where(lo > floor, lo, floor)


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
        if not _inside(x, y, threshold):
            return n_rec, True, n
        if n > n_transient:
            out[n_rec, 0] = x
            out[n_rec, 1] = y
            n_rec += 1
    return n_rec, False, 0


def lyapunov_kernel(
    r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_iter, threshold, floor, lam1_series, lam2_series
):
    """Two-exponent Benettin accumulation with per-step Gram-Schmidt.

    An orthonormal frame (initially the identity) is pushed through the
    exact Jacobian along the orbit and re-orthonormalized every step.  The
    loop stores each step's two norms in lam1_series/lam2_series; after it,
    their logs (LOG_ZERO for a norm that is not positive) are accumulated
    and the running per-step means overwrite the buffers (sorted so series
    1 >= series 2, floored at `floor`).  Returns (lambda1, lambda2, n_used,
    escaped, at_step).
    """
    x = x0
    y = y0
    for n in range(1, n_transient + 1):
        x, y = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if not _inside(x, y, threshold):
            return 0.0, 0.0, 0, True, n

    q1x, q1y = 1.0, 0.0
    q2x, q2y = 0.0, 1.0
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

        n1 = math.sqrt(v1x * v1x + v1y * v1y)
        if n1 > 0.0:
            q1x = v1x / n1
            q1y = v1y / n1
        lam1_series[i] = n1

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
        lam2_series[i] = n2

        n_used = i + 1
        x, y = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        if not _inside(x, y, threshold):
            escaped = True
            at_step = n_transient + n_used
            break

    if n_used == 0:
        return 0.0, 0.0, 0, escaped, at_step
    steps = np.arange(1, n_used + 1)
    s1 = lam1_series[:n_used]
    s2 = lam2_series[:n_used]
    s1[:] = np.cumsum(_log_norms(s1)) / steps
    s2[:] = np.cumsum(_log_norms(s2)) / steps
    hi, lo = _ordered(s1, s2, floor)
    s1[:] = hi
    s2[:] = lo
    return s1[-1], s2[-1], n_used, escaped, at_step


def _lambda1(acc1, acc2, n_used, floor):
    """lyapunov_kernel's final lambda1 from its two accumulators, per lane."""
    return _ordered(acc1 / n_used, acc2 / n_used, floor)[0]


def _zero_norm_update(norm, vx, vy, fx, fy, acc):
    """One Gram-Schmidt update where some norms are not positive.

    Lanes with norm > 0 take vector / norm and add log(norm); the others
    take the fallback (fx, fy) and add LOG_ZERO, as the scalar branches do.
    """
    pos = norm > 0.0
    qx = np.where(pos, vx / norm, fx)
    qy = np.where(pos, vy / norm, fy)
    return qx, qy, acc + _log_norms(norm)


# A lane may overflow on the step that escapes it, and zero-norm lanes
# divide by zero in the branch np.where discards; neither reaches a result.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def lane_kernel(
    r1, r2, c1, c2, c3, c4, x0, y0, n_transient, n_record, n_lyap, threshold, floor, min_steps
):
    """Orbit tail and lambda1 of many parameter points, one numpy lane each.

    r1..c4 are per-lane arrays; every lane starts from (x0, y0).  Lane k
    reproduces orbit_kernel(..., n_transient + n_record, n_transient, ...)
    and lyapunov_kernel(..., n_transient, n_lyap, ...) at its parameters,
    fused: the transient is iterated once, then max(n_record, n_lyap)
    shared steps record the tail during the first n_record and accumulate
    the exponents during the first n_lyap.  Escaped lanes are dropped from
    the live arrays.

    Returns (tail, n_rec, at_step, last, lam1), all indexed by lane:
    tail (n, n_record, 2) holds the recorded states, rows n_rec[k] and
    beyond unset; at_step is the 1-based step at which the lane escaped
    (0 if it did not within n_transient + max(n_record, n_lyap) steps);
    last (n, 2) is the last finite state; lam1 is the largest exponent,
    NaN when fewer than min_steps Lyapunov steps completed.
    """
    r1, r2, c1, c2, c3, c4 = (np.array(a, dtype=np.float64) for a in (r1, r2, c1, c2, c3, c4))
    n = len(r1)
    tail = np.empty((n, n_record, 2))
    n_rec = np.full(n, n_record)
    at_step = np.zeros(n, dtype=np.int64)
    last = np.empty((n, 2))
    lam1 = np.full(n, np.nan)

    # Loop invariants of the Jacobian, each the same leading operation as
    # in lyapunov_kernel, so every product is evaluated in the same order.
    two_c1 = 2.0 * c1
    two_c4 = 2.0 * c4
    m_r1c2 = -r1 * c2
    m_r2c3 = -r2 * c3

    live = np.arange(n)
    x = np.full(n, x0, dtype=np.float64)
    y = np.full(n, y0, dtype=np.float64)
    q1x, q1y = np.ones(n), np.zeros(n)
    q2x, q2y = np.zeros(n), np.ones(n)
    acc1, acc2 = np.zeros(n), np.zeros(n)

    for step in range(1, n_transient + max(n_record, n_lyap) + 1):
        i = step - n_transient - 1  # post-transient index, as in lyapunov_kernel
        if 0 <= i < n_lyap:
            j11 = r1 * (1.0 - two_c1 * x - c2 * y)
            j12 = m_r1c2 * x
            j21 = m_r2c3 * y
            j22 = r2 * (1.0 - c3 * x - two_c4 * y)

            v1x = j11 * q1x + j12 * q1y
            v1y = j21 * q1x + j22 * q1y
            v2x = j11 * q2x + j12 * q2y
            v2y = j21 * q2x + j22 * q2y

            n1 = np.sqrt(v1x * v1x + v1y * v1y)
            if n1.min() > 0.0:
                q1x = v1x / n1
                q1y = v1y / n1
                acc1 = acc1 + np.log(n1)
            else:
                q1x, q1y, acc1 = _zero_norm_update(n1, v1x, v1y, q1x, q1y, acc1)

            proj = q1x * v2x + q1y * v2y
            wx = v2x - proj * q1x
            wy = v2y - proj * q1y
            n2 = np.sqrt(wx * wx + wy * wy)
            if n2.min() > 0.0:
                q2x = wx / n2
                q2y = wy / n2
                acc2 = acc2 + np.log(n2)
            else:
                q2x, q2y, acc2 = _zero_norm_update(n2, wx, wy, -q1y, q1x, acc2)

        xn, yn = _step_xy(r1, r2, c1, c2, c3, c4, x, y)
        ok = _inside(xn, yn, threshold)
        if not ok.all():
            gone = ~ok
            ids = live[gone]
            at_step[ids] = step
            last[ids, 0] = x[gone]
            last[ids, 1] = y[gone]
            n_rec[ids] = min(max(i, 0), n_record)
            if 0 <= i < n_lyap and i + 1 >= min_steps:
                lam1[ids] = _lambda1(acc1[gone], acc2[gone], i + 1, floor)
            live, r1, r2, c1, c2, c3, c4, two_c1, two_c4, m_r1c2, m_r2c3 = (
                a[ok] for a in (live, r1, r2, c1, c2, c3, c4, two_c1, two_c4, m_r1c2, m_r2c3)
            )
            xn, yn, q1x, q1y, q2x, q2y, acc1, acc2 = (
                a[ok] for a in (xn, yn, q1x, q1y, q2x, q2y, acc1, acc2)
            )
            if not len(live):
                return tail, n_rec, at_step, last, lam1
        if 0 <= i < n_record:
            tail[live, i, 0] = xn
            tail[live, i, 1] = yn
        if i + 1 == n_lyap and n_lyap >= min_steps:
            lam1[live] = _lambda1(acc1, acc2, n_lyap, floor)
        x, y = xn, yn

    last[live, 0] = x
    last[live, 1] = y
    return tail, n_rec, at_step, last, lam1

