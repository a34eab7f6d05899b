"""Lyapunov spectrum of the map by Jacobian products with renormalization.

A direct product of Jacobians over- or underflows after a few hundred
steps, so the limit is evaluated the standard way (Benettin et al.): push
a unit tangent vector q1 through the tangent dynamics, renormalize it every
step, and accumulate the log norms.  The second norm of each step is the
area the Jacobian spans over q1's quarter turn, measured against the new
q1: in 2-D that is the norm Gram-Schmidt gives its second vector, which is
always perpendicular to q1, so no second vector is carried.  The per-step
means converge to the two exponents; the full running series is kept for
convergence plots.  Reported exponents are floored at LAMBDA_FLOOR,
dynamics' constant, which this module re-exports: a super-stable orbit
(zero eigenvalue somewhere along it) has a true exponent of -inf.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_STEPS, DEFAULT_TRANSIENT, LAMBDA_FLOOR, MIN_STEPS, SWEEP_STEPS
from .dynamics import EscapedTooEarly, ModelParams, State, check_count

__all__ = [
    "LyapunovResult",
    "EscapedTooEarly",
    "lyapunov_spectrum",
    "lambda_series",
    "LAMBDA_FLOOR",
    "MIN_STEPS",
    "DEFAULT_TRANSIENT",
    "DEFAULT_STEPS",
    "SWEEP_STEPS",
]


@dataclass(frozen=True)
class LyapunovResult:
    """Exponent pair (lambda1 >= lambda2) plus the running-estimate series.

    lambda1 and lambda2 are the larger and the smaller mean of the two
    rows of log norms, each summed pairwise (np.add.reduce), floored.
    series has shape (n_used, 3) with columns (n, lambda1(n), lambda2(n)),
    the running means of sequential sums (np.cumsum), except its last row,
    which equals (n_used, lambda1, lambda2).  escaped marks a partial
    result whose base orbit left the admissible region.
    """

    lambda1: float
    lambda2: float
    series: np.ndarray
    n_used: int
    escaped: bool


def lyapunov_spectrum(
    p: ModelParams,
    s0: State,
    n_transient: int = DEFAULT_TRANSIENT,
    n_iter: int = DEFAULT_STEPS,
) -> LyapunovResult:
    """Estimate both exponents over n_iter steps after an n_transient warm-up.

    The frame starts as the identity (axis-aligned unit vectors).  If the
    base orbit escapes, a partial result with escaped=True is returned,
    provided at least MIN_STEPS steps completed; otherwise EscapedTooEarly
    is raised.  A budget n_iter below MIN_STEPS is rejected with ValueError.
    """
    check_count("n_iter", n_iter, MIN_STEPS)
    check_count("n_transient", n_transient, 0)
    lam1_series, lam2_series = _kernels.buffer((2, n_iter), "n_iter", n_iter)
    lam1, lam2, n_used, escaped, at_step = _kernels.lyapunov_kernel(
        p.r1, p.r2, p.c1, p.c2, p.c3, p.c4,
        s0.x, s0.y,
        n_transient, n_iter,
        LAMBDA_FLOOR,
        lam1_series, lam2_series,
    )
    if n_used < MIN_STEPS:
        raise EscapedTooEarly(
            f"orbit escaped at step {at_step} with only {n_used} post-transient steps "
            f"(need {MIN_STEPS})"
        )
    series = np.column_stack(
        (np.arange(1, n_used + 1, dtype=float), lam1_series[:n_used], lam2_series[:n_used])
    )
    return LyapunovResult(
        lambda1=lam1, lambda2=lam2, series=series, n_used=n_used, escaped=escaped
    )


def lambda_series(result: LyapunovResult, stride: int = 1) -> np.ndarray:
    """Running-estimate series downsampled by stride.

    Keeps rows with n divisible by stride and always includes the final
    row, which holds the reported exponents, so a convergence plot ends
    at them.
    """
    check_count("stride", stride, 1)
    s = result.series
    keep = (s[:, 0] % stride) == 0
    keep[-1] = True
    return s[keep]
