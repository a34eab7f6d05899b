"""Orbit iteration, transient handling, escape detection and periodicity.

An orbit record keeps the post-transient window of an orbit together with
its detected outcome: settled on a k-cycle, aperiodic within the tested
period range, or escaped (any component beyond ESCAPE_THRESHOLD or
non-finite).  Escape is an outcome, not an error; the record is truncated
at the step where it was detected and never stores a non-finite state.
OrbitRecord.columns() gives the tail as the (n, x, y) columns that both the
CSV writer and the plots take.  ESCAPE_THRESHOLD is dynamics' constant,
which the point loop reads itself; this module re-exports it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_RECORD, DEFAULT_TRANSIENT, ESCAPE_THRESHOLD, PERIOD_TOL
from .dynamics import NON_NEGATIVE, ModelParams, State, check_count, check_float

__all__ = [
    "Settled",
    "Aperiodic",
    "Escaped",
    "Outcome",
    "outcome_label",
    "OrbitRecord",
    "iterate",
    "detect_period",
    "ESCAPE_THRESHOLD",
    "DEFAULT_TRANSIENT",
    "DEFAULT_RECORD",
    "PERIOD_TOL",
    "MAX_PERIOD",
]

MAX_PERIOD = 64


@dataclass(frozen=True)
class Settled:
    period: int


@dataclass(frozen=True)
class Aperiodic:
    pass


@dataclass(frozen=True)
class Escaped:
    at_step: int


Outcome = Settled | Aperiodic | Escaped


def outcome_label(outcome: Outcome) -> str:
    if isinstance(outcome, Settled):
        return f"period-{outcome.period}"
    if isinstance(outcome, Escaped):
        return "escaped"
    return "aperiodic"


@dataclass(frozen=True, eq=False)
class OrbitRecord:
    """Post-transient window of one orbit.

    `tail` is a read-only float64 array of shape (n, 2) holding the states
    (x, y) at global iteration indices transient_len + 1 ... transient_len + n;
    for an escaped orbit it is truncated at the last finite pre-escape
    state (and has shape (0, 2) if the orbit escaped during the transient).
    The constructor copies the tail it is given, so the record owns its
    data.  Records compare equal when every field matches and the tails
    are bitwise identical.
    """

    initial: State
    transient_len: int
    tail: np.ndarray
    outcome: Outcome

    def __post_init__(self):
        tail = np.array(self.tail, dtype=np.float64)
        if tail.ndim != 2 or tail.shape[1] != 2:
            raise ValueError(f"tail must have shape (n, 2), got {tail.shape}")
        if not np.isfinite(tail).all():
            raise ValueError("tail states must be finite")
        tail.flags.writeable = False
        object.__setattr__(self, "tail", tail)

    def _key(self):
        return self.initial, self.transient_len, self.outcome, self.tail.shape, self.tail.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, OrbitRecord) else NotImplemented

    __hash__ = None

    @property
    def first_index(self) -> int:
        """Global iteration index of tail[0]."""
        return self.transient_len + 1

    def columns(self) -> tuple[range, np.ndarray, np.ndarray]:
        """The tail as columns (n, x, y), n the global iteration index; x and
        y are read-only views of the tail."""
        return range(self.first_index, self.first_index + len(self.tail)), *self.tail.T


def detect_period(tail, max_period: int = MAX_PERIOD, period_tol: float = PERIOD_TOL) -> Outcome:
    """Smallest period k <= max_period under a relative sup-norm test.

    The tail is k-periodic when for every index i,
    ||tail[i] - tail[i+k]||_inf <= period_tol * (1 + ||tail[i]||_inf).
    Candidates are tried in increasing order, so the returned period is
    minimal.  Accepts an (n, 2) array-like.
    """
    a = np.asarray(tail, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"tail array must have shape (n, 2), got {a.shape}")
    n = len(a)
    if n == 0:
        raise ValueError("tail must be non-empty")
    check_count("max_period", max_period, 1)
    check_float("period_tol", period_tol, NON_NEGATIVE)
    bound = period_tol * (1.0 + _sup(a))
    # A k-periodic tail passes on row 0 against row k: only those k get the full test.
    candidates = np.flatnonzero(_sup(a[1 : min(max_period, n - 1) + 1] - a[0]) <= bound[0]) + 1
    for k in candidates.tolist():
        if np.all(_sup(a[:-k] - a[k:]) <= bound[: n - k]):
            return Settled(k)
    return Aperiodic()


def _sup(d):
    """Row-wise sup norm of an (n, 2) array."""
    d = np.abs(d)
    return np.maximum(d[:, 0], d[:, 1])


def iterate(
    p: ModelParams,
    s0: State,
    n_total: int,
    n_transient: int,
    max_period: int = MAX_PERIOD,
    period_tol: float = PERIOD_TOL,
) -> OrbitRecord:
    """Apply the map n_total times from s0 and record the post-transient tail.

    The first n_transient generated states are discarded.  Escape (any
    component with |value| > ESCAPE_THRESHOLD, or non-finite) truncates the
    record at the offending step and yields an Escaped outcome; otherwise
    the tail is classified by detect_period.
    """
    check_count("n_transient", n_transient, 0)
    check_count("n_total", n_total, n_transient + 1)
    check_float("period_tol", period_tol, NON_NEGATIVE)
    n_out = n_total - n_transient
    out = _kernels.buffer((n_out, 2), "n_total - n_transient", n_out)
    n_rec, escaped, at_step = _kernels.orbit_kernel(
        p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, s0.x, s0.y, n_total, n_transient, out
    )
    # Without escape all n_total - n_transient >= 1 states were recorded.
    outcome = Escaped(at_step) if escaped else detect_period(out[:n_rec], max_period, period_tol)
    return OrbitRecord(initial=s0, transient_len=n_transient, tail=out[:n_rec], outcome=outcome)
