"""Orbit iteration, escape handling and period detection.

The engineered escape family keeps one species pinned at its equilibrium
(x = 0.5 exactly) while the other is multiplied by exactly -r2 each step
(c4 = 0), so |y| = y0 * r2^n and the escape step is a clean geometric
prediction.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ecokmap.dynamics import ModelParams, State, step
from ecokmap.orbit import (
    ESCAPE_THRESHOLD,
    Aperiodic,
    Escaped,
    Settled,
    detect_period,
    iterate,
)

SLOW_ESCAPE = ModelParams(2, 1.05, 1, 0, 4, 0)  # escapes around step 425
FAST_ESCAPE = ModelParams(2, 1.5, 1, 0, 4, 0)  # escapes around step 52
ESCAPE_S0 = State(0.5, 1e-3)


class TestIterate:
    def test_settles_on_boundary_equilibrium(self):
        # x follows the logistic map with r = 2: x* = (r-1)/r = 0.5
        p = ModelParams(2, 0.5, 1, 0, 0, 1)
        rec = iterate(p, State(0.45, 0.01), 2000, 1000)
        assert rec.outcome == Settled(1)
        assert len(rec.tail) == 1000
        assert rec.first_index == 1001
        for x, y in rec.tail[:5]:
            assert x == pytest.approx(0.5, abs=1e-8)
            assert y == pytest.approx(0.0, abs=1e-8)

    def test_zero_growth_settles_at_origin(self):
        rec = iterate(ModelParams(0, 0, 1, 1, 1, 1), State(0.7, -0.3), 50, 10)
        assert rec.outcome == Settled(1)
        assert all(State(x, y) == State(0.0, 0.0) for x, y in rec.tail)

    def test_two_cycle_matches_closed_form(self):
        # y follows the logistic map with r = 3.2, whose 2-cycle is
        # p± = (r + 1 ± sqrt((r - 3)(r + 1))) / (2r).  x sits at the
        # r1 = 3 period-doubling threshold and needs a long transient.
        r = 3.2
        root = math.sqrt((r - 3.0) * (r + 1.0))
        hi = (r + 1.0 + root) / (2.0 * r)
        lo = (r + 1.0 - root) / (2.0 * r)
        rec = iterate(ModelParams(3, r, 1, 0, 0, 1), State(0.2, 0.1), 10_200, 10_000)
        assert rec.outcome == Settled(2)
        ys = sorted({round(y, 9) for _, y in rec.tail.tolist()})
        assert len(ys) == 2
        assert ys[0] == pytest.approx(lo, abs=1e-9)
        assert ys[1] == pytest.approx(hi, abs=1e-9)
        assert hi == pytest.approx(0.799456, abs=1e-6)
        assert lo == pytest.approx(0.513044, abs=1e-6)

    def test_invalid_budgets_rejected(self):
        p = ModelParams(2, 2, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            iterate(p, State(0.2, 0.2), 100, 100)
        with pytest.raises(ValueError):
            iterate(p, State(0.2, 0.2), 100, -1)


class TestEscape:
    def test_escape_truncates_record(self):
        rec = iterate(SLOW_ESCAPE, ESCAPE_S0, 2000, 0)
        assert isinstance(rec.outcome, Escaped)
        at = rec.outcome.at_step
        # |y| = 1e-3 * 1.05^n crosses 1e6 at n = ceil(log(1e9)/log(1.05))
        assert at == math.ceil(math.log(1e9) / math.log(1.05))
        assert len(rec.tail) == at - 1
        for x, y in rec.tail:
            assert abs(x) <= ESCAPE_THRESHOLD and abs(y) <= ESCAPE_THRESHOLD
            assert math.isfinite(x) and math.isfinite(y)

    def test_escape_during_transient_gives_empty_tail(self):
        rec = iterate(FAST_ESCAPE, ESCAPE_S0, 2000, 100)
        assert isinstance(rec.outcome, Escaped)
        assert rec.outcome.at_step < 100
        assert rec.tail.shape == (0, 2)

    def test_never_resumes_after_escape(self):
        rec = iterate(SLOW_ESCAPE, ESCAPE_S0, 100_000, 0)
        assert isinstance(rec.outcome, Escaped)
        assert len(rec.tail) == rec.outcome.at_step - 1


class TestDeterminism:
    def test_identical_calls_identical_records(self):
        p = ModelParams(3, 3.9, 1.8, 0.6, 0.6, 2.5)
        a = iterate(p, State(0.2, 0.1), 3000, 1000)
        b = iterate(p, State(0.2, 0.1), 3000, 1000)
        assert a == b

    def test_kernel_reproduces_reference_step_bitwise(self):
        # The orbit kernel and dynamics.step must generate the
        # same chaotic orbit bit for bit; several cross-module oracles
        # (Lyapunov sum rule, 1-D reduction) rest on this.
        p = ModelParams(3, 3.9, 1.8, 0.6, 0.6, 2.5)
        s = State(0.2, 0.1)
        rec = iterate(p, s, 2000, 0)
        cur = s
        for x, y in rec.tail:
            cur = step(p, cur)
            assert (cur.x, cur.y) == (x, y)


class TestDetectPeriod:
    def test_constant_tail(self):
        tail = np.tile([0.3, 0.4], (50, 1))
        assert detect_period(tail) == Settled(1)

    def test_alternating_tail(self):
        tail = np.tile([[0.1, 0.9], [0.8, 0.2]], (25, 1))
        assert detect_period(tail) == Settled(2)

    def test_full_logistic_is_aperiodic(self):
        rec = iterate(ModelParams(2, 4, 1, 0, 0, 1), State(0.2, 0.3), 1256, 1000)
        assert detect_period(rec.tail, max_period=64) == Aperiodic()
        assert rec.outcome == Aperiodic()

    def test_reports_minimal_period(self):
        # a block of length 4 whose halves coincide is a 2-cycle
        tail = np.tile([[0.1, 0.0], [0.7, 0.0], [0.1, 0.0], [0.7, 0.0]], (10, 1))
        assert detect_period(tail, max_period=8) == Settled(2)

    def test_four_cycle_not_reported_as_shorter(self):
        rec = iterate(ModelParams(2, 3.5, 1, 0, 0, 1), State(0.2, 0.3), 2100, 2000)
        assert rec.outcome == Settled(4)

    def test_relative_tolerance_scales_with_magnitude(self):
        big = 1e5
        tail = np.tile([[big, 0.0], [big * (1 + 1e-8), 0.0]], (10, 1))
        # absolute difference 1e-3 but relative ~1e-8: still period 1
        assert detect_period(tail, period_tol=1e-6) == Settled(1)

    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            detect_period(np.empty((0, 2)))

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
    def test_invalid_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="period_tol"):
            detect_period(np.tile([0.3, 0.4], (50, 1)), period_tol=tol)

    def test_zero_tolerance_requires_exact_repeats(self):
        assert detect_period(np.tile([0.3, 0.4], (50, 1)), period_tol=0.0) == Settled(1)
        tail = np.tile([[0.3, 0.4], [0.3 + 1e-15, 0.4]], (25, 1))
        assert detect_period(tail, period_tol=0.0) == Settled(2)

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=100)
    def test_tiled_block_detected_at_most_block_length(self, reps, block):
        k = len(block)
        tail = np.array(block * (reps + 2))
        out = detect_period(tail, max_period=16)
        assert isinstance(out, Settled)
        assert out.period <= k
        # found period must itself satisfy the periodicity predicate
        j = out.period
        diffs = np.abs(tail[:-j] - tail[j:]).max(axis=1)
        scale = 1.0 + np.abs(tail[:-j]).max(axis=1)
        assert np.all(diffs <= 1e-6 * scale)


def reference_period(tail, max_period, period_tol):
    """detect_period's definition, tested row by row on every candidate."""
    rows = tail.tolist()
    n = len(rows)
    for k in range(1, min(max_period, n - 1) + 1):
        if all(
            max(abs(rows[i][0] - rows[i + k][0]), abs(rows[i][1] - rows[i + k][1]))
            <= period_tol * (1.0 + max(abs(rows[i][0]), abs(rows[i][1])))
            for i in range(n - k)
        ):
            return Settled(k)
    return Aperiodic()


coords = st.floats(min_value=-2, max_value=2, allow_nan=False)
tolerances = st.sampled_from([0.0, 1e-9, 1e-6, 1e-2])


@st.composite
def late_breaking_tails(draw):
    """A tiled block, periodic on at least its first 64 rows, with one row
    changed at or after row 64 (or nowhere)."""
    block = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
    n = draw(st.integers(min_value=65, max_value=200))
    tail = np.array((block * n)[:n])
    where = draw(st.none() | st.integers(min_value=64, max_value=n - 1))
    if where is not None:
        col = draw(st.integers(min_value=0, max_value=1))
        tail[where, col] += draw(st.sampled_from([1e-12, 1e-7, 1e-5, 0.5]))
    return tail


class TestDetectPeriodReference:
    """detect_period against an exhaustive row-by-row reference."""

    @given(late_breaking_tails(), st.integers(min_value=1, max_value=70), tolerances)
    @settings(max_examples=150, deadline=None)
    def test_tails_breaking_after_the_prefix(self, tail, max_period, period_tol):
        assert detect_period(tail, max_period, period_tol) == reference_period(
            tail, max_period, period_tol
        )

    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=65),
        st.integers(min_value=1, max_value=70),
        tolerances,
    )
    # Row 0 repeats at k = 2, whose full test fails on row 1; the period is 3.
    @example([(0.1, 0.2), (0.5, 0.6), (0.1, 0.2)] * 10, 64, 1e-6)
    @settings(max_examples=150, deadline=None)
    def test_short_tails(self, rows, max_period, period_tol):
        tail = np.array(rows)
        assert detect_period(tail, max_period, period_tol) == reference_period(
            tail, max_period, period_tol
        )

    def test_break_in_last_row(self):
        tail = np.tile([[0.1, 0.9], [0.8, 0.2]], (50, 1))
        tail[-1, 1] += 1e-3
        assert detect_period(tail) == reference_period(tail, 64, 1e-6) == Aperiodic()
