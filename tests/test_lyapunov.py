"""Lyapunov spectrum tests against analytic and algebraic oracles.

Decoupled settings reduce to scalar logistic maps with known exponents:
ln 2 for r = 4, and half the log of the 2-cycle multiplier |f'(p+)f'(p-)|
for 3 < r < 1 + sqrt(6).  The sum rule lambda1 + lambda2 = mean
log|det J| is an algebraic identity of the scheme (n1 * n2 = |det J| at
every step where n1 > 0) and is checked against an independent
accumulation of |det J| over the states of `iterate`.  The kernel's
formulas are pinned bitwise against benettin_reference, a plain-Python
copy in the kernel's operation order whose series ends at the pairwise
means of its logs, and its running series against
gram_schmidt_reference, the two-vector Gram-Schmidt scheme, within a
rounding budget.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from ecokmap import _kernels
from ecokmap.dynamics import ModelParams, State, jacobian, step
from ecokmap.lyapunov import (
    LAMBDA_FLOOR,
    MIN_STEPS,
    EscapedTooEarly,
    lambda_series,
    lyapunov_spectrum,
)
from ecokmap.orbit import iterate

SLOW_ESCAPE = ModelParams(2, 1.05, 1, 0, 4, 0)
FAST_ESCAPE = ModelParams(2, 1.5, 1, 0, 4, 0)
ESCAPE_S0 = State(0.5, 1e-3)


def orbit_states(p, s0, n_transient, n):
    """States at which the tangent frame is updated: s_{T}, ..., s_{T+n-1}."""
    assert n_transient >= 1
    return [State(x, y) for x, y in iterate(p, s0, n_transient - 1 + n, n_transient - 1).tail]


class TestAnalyticOracles:
    def test_full_logistic_gives_ln_2(self):
        p = ModelParams(2.5, 4.0, 1, 0, 0, 1)
        r = lyapunov_spectrum(p, State(0.2, 0.3), 400, 100_000)
        assert r.lambda1 == pytest.approx(math.log(2), abs=0.01)
        # x axis is a settled logistic map with multiplier 2 - r1
        assert r.lambda2 == pytest.approx(math.log(abs(2 - 2.5)), abs=0.01)
        assert not r.escaped

    def test_two_cycle_multiplier(self):
        # closed-form 2-cycle of the r = 3.2 logistic map: the product of
        # derivatives over the cycle is 4 + 2r - r^2 = 0.16
        r2 = 3.2
        mult = abs(4 + 2 * r2 - r2 * r2)
        assert mult == pytest.approx(0.16, abs=1e-12)
        p = ModelParams(2, r2, 1, 0, 0, 1)
        res = lyapunov_spectrum(p, State(0.2, 0.1), 400, 100_000)
        assert res.lambda1 == pytest.approx(math.log(mult) / 2, abs=0.01)

    def test_constant_jacobian_at_superstable_point(self):
        # start exactly at the boundary equilibrium (0.5, 0): the Jacobian
        # is constant with eigenvalues (0, 0.5), so lambda1 = ln 0.5 and
        # lambda2 collapses to the floor sentinel
        p = ModelParams(2, 0.5, 1, 0, 0, 1)
        r = lyapunov_spectrum(p, State(0.5, 0.0), 0, 1000)
        assert r.lambda1 == pytest.approx(math.log(0.5), abs=1e-9)
        assert r.lambda2 == LAMBDA_FLOOR
        # constant Jacobian: the running series never moves
        assert np.all(np.abs(r.series[:, 1] - math.log(0.5)) < 1e-12)

    def test_chaotic_coupled_regime_positive_exponent(self):
        p = ModelParams(3.0, 3.93, 1.8, 0.6, 0.6, 2.5)
        r = lyapunov_spectrum(p, State(0.2, 0.1), 400, 20_000)
        assert r.lambda1 > 0.1


class TestSumRule:
    @pytest.mark.parametrize(
        "p,s0",
        [
            (ModelParams(2.5, 4.0, 1, 0, 0, 1), State(0.2, 0.3)),
            (ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1)),
            (ModelParams(3.0, 3.2, 1.8, 0.1, 0.6, 2.5), State(0.2, 0.1)),
        ],
    )
    def test_sum_equals_log_det_average(self, p, s0):
        n_tr, n = 400, 20_000
        r = lyapunov_spectrum(p, s0, n_tr, n)
        dets = [abs(jacobian(p, s).det) for s in orbit_states(p, s0, n_tr, n)]
        want = math.fsum(math.log(d) for d in dets) / n
        assert r.lambda1 + r.lambda2 == pytest.approx(want, abs=1e-8)


class TestDecoupledReduction:
    @pytest.mark.parametrize(
        "p,s0",
        [
            (ModelParams(2.5, 3.9, 1.3, 0, 0, 0.9), State(0.3, 0.2)),
            (ModelParams(3.7, 3.2, 0.8, 0, 0, 1.1), State(0.1, 0.4)),
        ],
    )
    def test_axis_exponents_match_scalar_logistic_averages(self, p, s0):
        n_tr, n = 400, 20_000
        r = lyapunov_spectrum(p, s0, n_tr, n)
        states = orbit_states(p, s0, n_tr, n)
        lam_x = math.fsum(math.log(abs(p.r1 * (1 - 2 * p.c1 * s.x))) for s in states) / n
        lam_y = math.fsum(math.log(abs(p.r2 * (1 - 2 * p.c4 * s.y))) for s in states) / n
        got = sorted((r.lambda1, r.lambda2))
        want = sorted((lam_x, lam_y))
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)


class TestSeries:
    def test_series_shape_and_final_row(self):
        p = ModelParams(2.5, 3.6, 1, 0, 0, 1)
        r = lyapunov_spectrum(p, State(0.2, 0.3), 100, 5000)
        assert r.series.shape == (5000, 3)
        assert r.n_used == 5000
        np.testing.assert_array_equal(r.series[:, 0], np.arange(1, 5001))
        assert tuple(r.series[-1]) == (5000.0, r.lambda1, r.lambda2)
        assert np.all(r.series[:, 1] >= r.series[:, 2])

    def test_full_logistic_series_converges_into_band(self):
        p = ModelParams(2.5, 4.0, 1, 0, 0, 1)
        r = lyapunov_spectrum(p, State(0.2, 0.3), 400, 100_000)
        tail = r.series[-10_000:, 1]
        assert np.all((0.68 <= tail) & (tail <= 0.71))

    def test_downsampling_keeps_stride_multiples_and_last(self):
        p = ModelParams(2.5, 3.6, 1, 0, 0, 1)
        r = lyapunov_spectrum(p, State(0.2, 0.3), 100, 1000)
        sub = lambda_series(r, stride=7)
        ns = sub[:, 0].astype(int)
        assert ns[-1] == 1000
        assert all(n % 7 == 0 for n in ns[:-1])
        assert len(ns) == 1000 // 7 + 1
        full = lambda_series(r, stride=1)
        np.testing.assert_array_equal(full, r.series)

    def test_bad_stride_rejected(self):
        p = ModelParams(2.5, 3.6, 1, 0, 0, 1)
        r = lyapunov_spectrum(p, State(0.2, 0.3), 0, 200)
        with pytest.raises(ValueError):
            lambda_series(r, stride=0)


class TestEscape:
    def test_partial_result_when_escape_after_minimum(self):
        r = lyapunov_spectrum(SLOW_ESCAPE, ESCAPE_S0, 0, 2000)
        assert r.escaped
        at = math.ceil(math.log(1e9) / math.log(1.05))
        assert r.n_used == at
        assert r.series.shape == (at, 3)
        # the surviving direction stretches by about r2 = 1.05 per step
        assert r.lambda1 == pytest.approx(math.log(1.05), abs=0.05)

    def test_escape_too_early_raises(self):
        with pytest.raises(EscapedTooEarly):
            lyapunov_spectrum(FAST_ESCAPE, ESCAPE_S0, 0, 2000)

    def test_escape_during_transient_raises(self):
        with pytest.raises(EscapedTooEarly):
            lyapunov_spectrum(FAST_ESCAPE, ESCAPE_S0, 1000, 2000)

    def test_bad_budgets_rejected(self):
        p = ModelParams(2, 2, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            lyapunov_spectrum(p, State(0.2, 0.2), 0, 0)
        with pytest.raises(ValueError):
            lyapunov_spectrum(p, State(0.2, 0.2), -1, 100)

    def test_budget_below_min_steps_rejected(self):
        p = ModelParams(2, 2, 1, 0, 0, 1)
        with pytest.raises(ValueError, match=f">= {MIN_STEPS}, got {MIN_STEPS - 1}"):
            lyapunov_spectrum(p, State(0.2, 0.2), 0, MIN_STEPS - 1)
        assert lyapunov_spectrum(p, State(0.2, 0.2), 0, MIN_STEPS).n_used == MIN_STEPS


rates = st.floats(min_value=0.5, max_value=4.0)
coeffs = st.floats(min_value=0.0, max_value=2.0)
inits = st.floats(min_value=0.05, max_value=0.6)


class TestOrderingProperty:
    @given(rates, rates, coeffs, coeffs, coeffs, coeffs, inits, inits)
    @settings(max_examples=60, deadline=None)
    def test_lambda1_never_below_lambda2(self, r1, r2, c1, c2, c3, c4, x0, y0):
        p = ModelParams(r1, r2, c1, c2, c3, c4)
        try:
            r = lyapunov_spectrum(p, State(x0, y0), 100, 500)
        except EscapedTooEarly:
            assume(False)
        assert r.lambda1 >= r.lambda2
        assert np.all(r.series[:, 1] >= r.series[:, 2])


def jacobians(p, s0, n_transient, n_iter):
    """The Jacobians at the n_iter states after the transient, in order."""
    s = s0
    for _ in range(n_transient):
        s = step(p, s)
    for _ in range(n_iter):
        yield jacobian(p, s)
        s = step(p, s)


def running_series(norms, floor):
    """Running (lambda1, lambda2) series from each step's pair of norms, a
    norm that is not positive counted as LOG_ZERO: the means of sequential
    sums, except the last entry, which is the reported pair."""
    norms = list(norms)
    acc1 = acc2 = 0.0
    lam1, lam2 = [], []
    for n, (n1, n2) in enumerate(norms, 1):
        acc1 += np.log(n1) if n1 > 0.0 else _kernels.LOG_ZERO
        acc2 += np.log(n2) if n2 > 0.0 else _kernels.LOG_ZERO
        hi, lo = sorted((acc1 / n, acc2 / n), reverse=True)
        lam1.append(max(hi, floor))
        lam2.append(max(lo, floor))
    if norms:
        lam1[-1], lam2[-1] = reported_pair(norms, floor)
    return np.array(lam1), np.array(lam2)


def reported_pair(norms, floor):
    """The exponent pair a run reports from each step's pair of norms: the
    larger and the smaller mean of the two rows of logs, each summed
    pairwise by np.add.reduce, floored."""
    logs = [[np.log(v) if v > 0.0 else _kernels.LOG_ZERO for v in row] for row in zip(*norms)]
    hi, lo = sorted((np.add.reduce(row) / len(row) for row in logs), reverse=True)
    return max(hi, floor), max(lo, floor)


def benettin_norms(js):
    """The kernel's norms in plain Python, in its operation order: one unit
    vector q1, pushed and normalized (norm n1), and n2 the area that J
    spans over q1's quarter turn, measured against the new q1."""
    q1x, q1y = 1.0, 0.0
    for j in js:
        v1x, v1y = j.a11 * q1x + j.a12 * q1y, j.a21 * q1x + j.a22 * q1y
        v2x, v2y = j.a12 * q1x - j.a11 * q1y, j.a22 * q1x - j.a21 * q1y
        n1 = np.sqrt(v1x * v1x + v1y * v1y)
        if n1 > 0.0:
            q1x, q1y = v1x / n1, v1y / n1
        yield n1, abs(q1x * v2y - q1y * v2x)


def gram_schmidt_norms(js):
    """The norms of the textbook scheme, independent of the area formula:
    two tangent vectors re-orthonormalized by Gram-Schmidt every step, the
    second turned a quarter from q1 where it vanishes."""
    q1x, q1y, q2x, q2y = 1.0, 0.0, 0.0, 1.0
    for j in js:
        v1x, v1y = j.a11 * q1x + j.a12 * q1y, j.a21 * q1x + j.a22 * q1y
        v2x, v2y = j.a11 * q2x + j.a12 * q2y, j.a21 * q2x + j.a22 * q2y
        n1 = np.sqrt(v1x * v1x + v1y * v1y)
        if n1 > 0.0:
            q1x, q1y = v1x / n1, v1y / n1
        proj = q1x * v2x + q1y * v2y
        wx, wy = v2x - proj * q1x, v2y - proj * q1y
        n2 = np.sqrt(wx * wx + wy * wy)
        q2x, q2y = (wx / n2, wy / n2) if n2 > 0.0 else (-q1y, q1x)
        yield n1, n2


def benettin_reference(p, s0, n_transient, n_iter, floor):
    """Running (lambda1, lambda2) series of the Benettin scheme in plain Python.

    Built on dynamics.step and dynamics.jacobian with the kernel's
    operation order, so it pins the formulas the kernel repeats inline.
    """
    return running_series(benettin_norms(jacobians(p, s0, n_transient, n_iter)), floor)


def gram_schmidt_reference(p, s0, n_transient, n_iter, floor):
    """The same series from gram_schmidt_norms."""
    return running_series(gram_schmidt_norms(jacobians(p, s0, n_transient, n_iter)), floor)


def kernel_series(p, s0, n_transient, n_iter, floor):
    """lyapunov_kernel's running (lambda1, lambda2) series and n_used."""
    got1, got2 = np.empty(n_iter), np.empty(n_iter)
    _, _, n_used, _, _ = _kernels.lyapunov_kernel(
        p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, s0.x, s0.y, n_transient, n_iter, floor, got1, got2
    )
    return got1[:n_used], got2[:n_used], n_used


class TestKernelFormulas:
    # The largest |difference| between the kernel's running series and
    # gram_schmidt_reference's, over 800 random bounded 2 000-step runs
    # (the ranges of TestOrderingProperty), was 5.3e-14: q1 is the same in
    # both, and only the rounding of n2 differs.
    GRAM_SCHMIDT_TOL = 1e-12

    @pytest.mark.parametrize(
        "p, s0",
        [
            (ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1)),
            # r1 = r2 = 0: every Jacobian is zero, so both norms take the LOG_ZERO branch
            (ModelParams(0, 0, 1, 1, 1, 1), State(0.7, -0.3)),
        ],
    )
    def test_kernel_matches_benettin_reference_bitwise(self, p, s0):
        # A floor below LOG_ZERO lets the zero-norm stand-in show through.
        n_transient, n_iter, floor = 100, 300, 2 * _kernels.LOG_ZERO
        want1, want2 = benettin_reference(p, s0, n_transient, n_iter, floor)
        got1, got2 = np.empty(n_iter), np.empty(n_iter)
        lam1, lam2, n_used, escaped, _ = _kernels.lyapunov_kernel(
            p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, s0.x, s0.y, n_transient, n_iter, floor, got1, got2
        )
        assert (n_used, escaped) == (n_iter, False)
        assert got1.tobytes() == want1.tobytes()
        assert got2.tobytes() == want2.tobytes()
        assert (lam1, lam2) == (want1[-1], want2[-1])

    @pytest.mark.parametrize(
        "p, s0",
        [
            (ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1)),
            (ModelParams(3.0, 3.2, 1.8, 0.1, 0.6, 2.5), State(0.2, 0.1)),
            (ModelParams(2.5, 4.0, 1, 0, 0, 1), State(0.2, 0.3)),
            # r2 = 0: the second norm is zero every step
            (ModelParams(3.0, 0.0, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1)),
            # r1 = r2 = 0: both norms are zero every step
            (ModelParams(0, 0, 1, 1, 1, 1), State(0.7, -0.3)),
            # the superstable point: J = diag(0, 0.5), n1 = 0 and n2 = 0.5
            (ModelParams(2, 0.5, 1, 0, 0, 1), State(0.5, 0.0)),
        ],
    )
    def test_kernel_tracks_gram_schmidt(self, p, s0):
        n_transient, n_iter, floor = 100, 2000, 2 * _kernels.LOG_ZERO
        got1, got2, n_used = kernel_series(p, s0, n_transient, n_iter, floor)
        want1, want2 = gram_schmidt_reference(p, s0, n_transient, n_iter, floor)
        assert n_used == n_iter
        np.testing.assert_allclose(got1, want1, rtol=0, atol=self.GRAM_SCHMIDT_TOL)
        np.testing.assert_allclose(got2, want2, rtol=0, atol=self.GRAM_SCHMIDT_TOL)

    @given(rates, rates, coeffs, coeffs, coeffs, coeffs, inits, inits)
    @settings(max_examples=40, deadline=None)
    def test_random_points_track_gram_schmidt(self, r1, r2, c1, c2, c3, c4, x0, y0):
        # Each scheme rounds n2 to within a few eps * |J| (Frobenius), so
        # its log to within about eps * |J| / n2, and the two running sums
        # differ by the sum of these plus each sum's own rounding.  Where n2
        # is itself rounding noise the schemes part ways (one may read 0, and
        # Gram-Schmidt's next q2 may point anywhere), so those runs are left
        # out.  Over 1 465 such examples the gap never passed 0.93 times
        # eps * (that sum); the test allows 8 times.
        p, s0 = ModelParams(r1, r2, c1, c2, c3, c4), State(x0, y0)
        floor = 2 * _kernels.LOG_ZERO
        got1, got2, n_used = kernel_series(p, s0, 100, 500, floor)
        assume(n_used > 0)
        js = list(jacobians(p, s0, 100, n_used))
        norms = list(gram_schmidt_norms(js))
        n2 = np.array([n for _, n in norms])
        size = np.array([math.hypot(j.a11, j.a12, j.a21, j.a22) for j in js])
        assume(np.all(n2 > 1e-10 * size))
        want1, want2 = running_series(norms, floor)
        rounding = np.cumsum(size / n2) + np.cumsum(np.abs(np.cumsum(np.log(n2))))
        budget = 8 * np.finfo(float).eps * rounding / np.arange(1, n_used + 1)
        assert np.all(np.abs(got1 - want1) <= budget)
        assert np.all(np.abs(got2 - want2) <= budget)


def spectrum_and_norms(p, s0, n_transient, n_iter):
    """lyapunov_spectrum's result and the norms of the same run, from a
    one-lane point_lanes call: (result, [(n1, n2), ...])."""
    r = lyapunov_spectrum(p, s0, n_transient, n_iter)
    norms = np.empty((2, 1, n_iter))
    _kernels.point_lanes(
        [(p.r1, p.r2, p.c1, p.c2, p.c3, p.c4)], s0.x, s0.y, n_transient, 0, n_iter,
        np.empty((1, 0, 2)), *norms,
    )
    return r, list(zip(*norms[:, 0, : r.n_used].tolist()))


class TestReportedPair:
    """The reported exponents are the ordered, floored pairwise means of
    the run's own logs, and its series ends at them."""

    # Over 3 900 seeded random bounded runs (the ranges of
    # TestOrderingProperty; 20 000 and 2 000 steps), |lambda1 - the
    # math.fsum mean of the same logs| was at most 3.1 eps * mean|log|,
    # the rounding of the final divisions included; a sequential sum of
    # the same logs (np.cumsum's last entry) was off by up to 2 655 at
    # 20 000 steps.  The bound allows 8.
    FSUM_BOUND = 8

    @pytest.mark.parametrize(
        "p, s0, n_iter",
        [
            (ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1), 3001),
            (ModelParams(2, 3.2, 1, 0, 0, 1), State(0.2, 0.1), 3000),
            # a partial run: the orbit escapes inside the window
            (SLOW_ESCAPE, ESCAPE_S0, 3000),
            # r1 = r2 = 0: both means are LOG_ZERO, floored
            (ModelParams(0, 0, 1, 1, 1, 1), State(0.7, -0.3), MIN_STEPS),
        ],
        ids=["chaotic", "two-cycle", "escaped", "floored"],
    )
    def test_pair_is_the_ordered_pairwise_mean_of_its_logs(self, p, s0, n_iter):
        r, norms = spectrum_and_norms(p, s0, 50, n_iter)
        pair = reported_pair(norms, LAMBDA_FLOOR)
        assert np.array([r.lambda1, r.lambda2]).tobytes() == np.array(pair).tobytes()
        assert tuple(r.series[-1]) == (r.n_used, *pair)

    def test_lambda1_is_within_rounding_of_the_exact_mean(self):
        rng = np.random.default_rng(23)
        eps, kept = np.finfo(float).eps, 0
        while kept < 40:
            p = ModelParams(*rng.uniform(0.5, 4.0, 2), *rng.uniform(0.0, 2.0, 4))
            s0 = State(*rng.uniform(0.05, 0.6, 2))
            try:
                r, norms = spectrum_and_norms(p, s0, 100, 20_000)
            except EscapedTooEarly:
                continue
            if r.escaped:
                continue
            logs = np.array(norms).T
            _kernels._log_norms(logs)
            means = [math.fsum(row) / r.n_used for row in logs.tolist()]
            top = int(np.argmax(means))
            if means[top] <= LAMBDA_FLOOR:
                continue
            kept += 1
            scale = eps * np.abs(logs[top]).mean()
            assert abs(r.lambda1 - means[top]) <= self.FSUM_BOUND * scale
