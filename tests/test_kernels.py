"""The point loop: compiled against Python bitwise, its loader, its cost.

The compiled lanes, at every lane count k from 1, run against k separate
_py_loop calls on the same arguments; every output (escape step, last
finite state, tail rows, norm pairs) must agree bit for bit, and neither
may write outside its windows.  Each such class runs on both builds of
the C block loop: as written on the loop the library bound when it
loaded (avx2_blocks on a CPU that has AVX2), and through OnScalarLoop on
point_loop_scalar, the build for CPUs without AVX2.  The loader tests
point _kernels at an empty cache in a temporary directory and resolve
the backend anew, so they never touch the package's own cache.
"""
import functools
import math
import os
import platform
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import ecokmap
from ecokmap import _kernels
from ecokmap.dynamics import ModelParams, State, jacobian
from ecokmap.lyapunov import LAMBDA_FLOOR, MIN_STEPS, lyapunov_spectrum
from ecokmap.orbit import iterate
from ecokmap.sweep import SweepSpec, bifurcation_sweep

SRC = Path(ecokmap.__file__).parents[1]
REF = ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5)
ESCAPE_S0 = (0.5, 1e-3)
SENTINEL = -1.5  # buffer filler: no loop may write outside its windows


def escaping_at(k: int) -> ModelParams:
    """From ESCAPE_S0, x stays 0.5 and y is multiplied by -r2 each step, so
    this member of the family escapes at step k (k >= 16)."""
    return ModelParams(2, 1e9 ** (1 / (k - 0.5)), 1, 0, 4, 0)


@pytest.fixture(scope="module")
def lanes(compiled):
    return compiled[0]


class OnScalarLoop:
    """Mixin: a test class's compiled lanes on point_loop_scalar."""

    @pytest.fixture(scope="class")
    def compiled(self, compiled):
        return _kernels._c_loop(compiled.lib, "point_loop_scalar")

    @pytest.fixture(scope="class")
    def lanes(self, compiled):
        return compiled.lanes


def outputs(p, s0, n_tr, n_rec, n_lyap):
    """_py_loop's escape step, last state, tail rows and norm pairs, as bytes."""
    tail = np.full((n_rec, 2), SENTINEL)
    norms = np.full((2, n_lyap), SENTINEL)
    at_step, x, y = _kernels._py_loop(
        p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, *s0, n_tr, n_rec, n_lyap, tail, *norms
    )
    last = np.array([x, y]).tobytes()
    return at_step, last, tail.tobytes(), norms.tobytes()


def row(p):
    return (p.r1, p.r2, p.c1, p.c2, p.c3, p.c4)


class TestCompiledAgainstPython:
    """One compiled lane against _py_loop, the form of every orbit_kernel
    and lyapunov_kernel call, and each case again as one of two lanes."""

    N_TR, N_REC, N_LYAP = 20, 30, 300

    CASES = [
        # y0 = 5e5 times -r2: r2 = 4 escapes at step 1; at r2 = 2,
        # |y| = 1e6 exactly is not beyond the bound, so step 2 escapes.
        pytest.param(replace(escaping_at(100), r2=4.0), (0.5, 5e5), 5, 10, 200, 1, id="step-1"),
        pytest.param(replace(escaping_at(100), r2=2.0), (0.5, 5e5), 5, 10, 200, 2, id="1e6"),
        pytest.param(escaping_at(16), ESCAPE_S0, N_TR, N_REC, N_LYAP, 16, id="transient"),
        pytest.param(
            escaping_at(N_TR + 10), ESCAPE_S0, N_TR, N_REC, N_LYAP, N_TR + 10, id="record"
        ),
        pytest.param(
            escaping_at(N_TR + 180), ESCAPE_S0, N_TR, 250, 120, N_TR + 180, id="record-only"
        ),
        pytest.param(
            escaping_at(N_TR + 200), ESCAPE_S0, N_TR, N_REC, N_LYAP, N_TR + 200, id="lyapunov"
        ),
        pytest.param(
            escaping_at(N_TR + MIN_STEPS - 1), ESCAPE_S0, N_TR, N_REC, N_LYAP,
            N_TR + MIN_STEPS - 1, id="min-steps-less-1",
        ),
        pytest.param(REF, (math.nan, 0.1), 0, 5, 100, 1, id="nan"),
        # x = 1e300 overflows to -inf on the first step, silently.
        pytest.param(
            ModelParams(4.0, 2.0, 0.1, 0, 0, 0.1), (1e300, 0.1), 0, 5, 100, 1, id="overflow"
        ),
        # r2 = 0 zeroes the Jacobian's second row, so the area n2 is zero
        # every step; r1 = r2 = 0 makes every Jacobian zero, so both norms are.
        pytest.param(replace(REF, r2=0.0), (0.2, 0.1), N_TR, N_REC, N_LYAP, 0, id="r2-zero"),
        pytest.param(
            ModelParams(0, 0, 1, 1, 1, 1), (0.7, 0.3), N_TR, N_REC, N_LYAP, 0, id="r1-r2-zero"
        ),
        pytest.param(REF, (0.2, 0.1), N_TR, N_REC, N_LYAP, 0, id="chaotic"),
    ]

    @pytest.mark.parametrize("p, s0, n_tr, n_rec, n_lyap, at_step", CASES)
    def test_engineered_cases(self, lanes, p, s0, n_tr, n_rec, n_lyap, at_step):
        assert assert_lanes_agree(lanes, [row(p)], s0, n_tr, n_rec, n_lyap) == [at_step]

    @pytest.mark.parametrize("p, s0, n_tr, n_rec, n_lyap, at_step", CASES)
    def test_engineered_cases_in_a_block(self, lanes, p, s0, n_tr, n_rec, n_lyap, at_step):
        # The case sits in each slot of a two-lane block, beside the
        # chaotic point.
        for slot in (0, 1):
            rows = [row(REF)]
            rows.insert(slot, row(p))
            assert assert_lanes_agree(lanes, rows, s0, n_tr, n_rec, n_lyap)[slot] == at_step

    def test_zero_norms_take_their_branches(self, lanes):
        for p, zero_rows in ((replace(REF, r2=0.0), [1]), (ModelParams(0, 0, 1, 1, 1, 1), [0, 1])):
            norms = np.empty((2, 1, 50))
            ((at_step, *_),) = lanes(
                [row(p)], 0.2, 0.1, 10, 0, 50, _kernels._NO_WINDOW, *norms
            )
            assert at_step == 0
            for r in zero_rows:
                assert not norms[r].any()

    def test_collapsed_first_vector_keeps_the_area(self, lanes):
        # From the superstable point (0.5, 0) every Jacobian is diag(0, 0.5):
        # q1 = (1, 0) is pushed to zero (n1 = 0, q1 kept) and its quarter
        # turn to (0, 0.5), so n2 = 0.5 exactly, as Gram-Schmidt gives.
        # |det J| / n1 would read 0 / 0.
        p, n = ModelParams(2, 0.5, 1, 0, 0, 1), 50
        for loop in (lanes, _kernels._PYTHON.lanes):
            for k, slot in ((1, 0), *((_kernels.LANES, s) for s in range(_kernels.LANES))):
                rows = [row(REF)] * k
                rows[slot] = row(p)
                norms = np.full((2, k, n), SENTINEL)
                runs = loop(rows, 0.5, 0.0, 0, 0, n, np.empty((k, 0, 2)), *norms)
                assert runs[slot] == (0, 0.5, 0.0)
                assert (norms[0, slot] == 0.0).all() and (norms[1, slot] == 0.5).all()

    def test_norm_product_is_the_determinant(self, lanes):
        # n1 * n2 = |det J| in exact arithmetic.  Each norm is rounded to
        # within a few eps * |J| (Frobenius), so the product to within a few
        # eps * |J|^2, as is det J itself: at most 0.92 of eps * |J|^2 was
        # seen on REF, while against |det J| alone the gap reached 56 ulps
        # where |det J| is small beside |J|^2.
        n_tr, n = 20, 2000
        norms = np.empty((2, 1, n))
        ((at_step, *_),) = lanes(
            [row(REF)], 0.2, 0.1, n_tr, 0, n, _kernels._NO_WINDOW, *norms
        )
        assert at_step == 0
        tail = iterate(REF, State(0.2, 0.1), n_tr - 1 + n, n_tr - 1).tail
        js = [jacobian(REF, State(x, y)) for x, y in tail]
        det = np.array([abs(j.det) for j in js])
        size2 = np.array([j.a11**2 + j.a12**2 + j.a21**2 + j.a22**2 for j in js])
        gap = np.abs(norms[0, 0] * norms[1, 0] - det)
        assert (gap <= 4 * np.finfo(float).eps * size2).all()

    def test_a_nan_norm_is_one_nan(self, lanes):
        # From (inf, nan) at r1 = r2 = 0 both norms of step 0 are NaN, with a
        # sign that depends on the order in which the compiler takes the
        # operands; both loops store math.nan.
        p = ModelParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert assert_lanes_agree(lanes, [row(p)], (math.inf, math.nan), 0, 0, 1) == [1]
        ((*_, norms),) = lane_outputs(lanes, [row(p)], (math.inf, math.nan), 0, 0, 1)
        assert norms == np.array([math.nan, math.nan]).tobytes()

    def test_nan_norms_in_a_block_are_one_nan(self, lanes):
        p = ModelParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        rows = [row(p), row(REF), row(p)]
        assert assert_lanes_agree(lanes, rows, (math.inf, math.nan), 0, 0, 1) == [1, 1, 1]
        for lane in (0, 2):
            norms = lane_outputs(lanes, rows, (math.inf, math.nan), 0, 0, 1)[lane][3]
            assert norms == np.array([math.nan, math.nan]).tobytes()

    @given(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
            st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
            *[st.one_of(st.just(0.0), st.floats(0.0, 3.0))] * 4,
        ),
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, 1e6, -1e6, 1e300])),
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, 5e5, -1e6, 1e300])),
        st.integers(0, 60),
        st.integers(0, 40),
        st.integers(0, MIN_STEPS + 80),
    )
    # Run from the OnScalarLoop subclass too; a stored failing example
    # replays on both loops, which both must pass.
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    def test_random_points(self, lanes, params, x0, y0, n_tr, n_rec, n_lyap):
        assert_lanes_agree(lanes, [params], (x0, y0), n_tr, n_rec, n_lyap)

    def test_build_flags_keep_ieee_arithmetic(self):
        assert {"-std=c99", "-ffp-contract=off"} <= set(_kernels._FLAGS)
        assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"} & set(_kernels._FLAGS)


class TestCompiledAgainstPythonOnScalarLoop(OnScalarLoop, TestCompiledAgainstPython):
    """Every TestCompiledAgainstPython case on point_loop_scalar."""


def lane_outputs(lanes, rows, s0, n_tr, n_rec, n_lyap, spare=2):
    """Per-lane outputs of one k-lane call, in the form of outputs(), on
    buffers with `spare` extra rows that must stay SENTINEL."""
    k = len(rows)
    tail = np.full((k + spare, n_rec, 2), SENTINEL)
    norms = np.full((2, k + spare, n_lyap), SENTINEL)
    runs = lanes(rows, *s0, n_tr, n_rec, n_lyap, tail, *norms)
    assert (tail[k:] == SENTINEL).all() and (norms[:, k:] == SENTINEL).all()
    return [
        (at_step, np.array([x, y]).tobytes(), tail[lane].tobytes(), norms[:, lane].tobytes())
        for lane, (at_step, x, y) in enumerate(runs)
    ]


def assert_lanes_agree(lanes, rows, s0, n_tr, n_rec, n_lyap):
    """The compiled k-lane loop against k separate _py_loop calls, bitwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [outputs(ModelParams(*r), s0, n_tr, n_rec, n_lyap) for r in rows]
        got = lane_outputs(lanes, rows, s0, n_tr, n_rec, n_lyap)
    assert got == want
    return [lane[0] for lane in got]


class TestLanes:
    N_TR, N_REC, N_LYAP = 20, 30, 300
    # One point per kind of lane: escape in the transient, in the record
    # window, in the Lyapunov window, never (chaotic, and both zero-norm
    # branches), and at the last Lyapunov step.
    POOL = [
        (escaping_at(16), 16),
        (escaping_at(N_TR + 10), N_TR + 10),
        (REF, 0),
        (escaping_at(N_TR + 200), N_TR + 200),
        (replace(REF, r2=0.0), 0),
        (escaping_at(N_TR + N_LYAP), N_TR + N_LYAP),
        (ModelParams(0, 0, 1, 1, 1, 1), 0),
    ]

    @pytest.mark.parametrize("k", range(1, _kernels.LANES + 2))
    def test_every_lane_count_and_slot(self, lanes, k):
        # Each rotation of the pool puts every kind of lane in every slot
        # of a k-lane block, beside every other kind.
        for shift in range(len(self.POOL)):
            block = (self.POOL[shift:] + self.POOL[:shift])[:k]
            at_steps = assert_lanes_agree(
                lanes, [row(p) for p, _ in block], ESCAPE_S0,
                self.N_TR, self.N_REC, self.N_LYAP,
            )
            assert at_steps == [at for _, at in block]

    def test_lanes_with_empty_windows(self, lanes):
        rows = [row(p) for p, _ in self.POOL[:_kernels.LANES]]
        for n_rec, n_lyap in ((0, self.N_LYAP), (self.N_REC, 0), (0, 0)):
            assert_lanes_agree(lanes, rows, ESCAPE_S0, self.N_TR, n_rec, n_lyap)

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_buffers_too_small_are_refused(self, request, monkeypatch, backend):
        # Without the lane-row check, the Python lanes would zip the rows
        # against the buffers and silently drop the points past them.
        pair = request.getfixturevalue("compiled") if backend == "c" else _kernels._PYTHON
        monkeypatch.setattr(_kernels, "_loop", lambda: pair)
        rows = [row(REF)] * 3
        for n_tail, n_norm in ((2, 3), (3, 2)):
            tail = np.full((n_tail, self.N_REC, 2), SENTINEL)
            norms = np.full((2, n_norm, self.N_LYAP), SENTINEL)
            with pytest.raises(ValueError, match="lane rows"):
                _kernels.point_lanes(rows, 0.2, 0.1, 5, self.N_REC, self.N_LYAP, tail, *norms)
            assert (tail == SENTINEL).all() and (norms == SENTINEL).all()

    @pytest.mark.parametrize("case", ["float32-tail", "read-only-norms", "wider-norm-rows"])
    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_malformed_buffers_are_refused(self, request, monkeypatch, backend, case):
        # Checked above both backends: the Python lanes would take a
        # float32 tail, and the two would place the lanes of wider rows at
        # different offsets.
        pair = request.getfixturevalue("compiled") if backend == "c" else _kernels._PYTHON
        monkeypatch.setattr(_kernels, "_loop", lambda: pair)
        dtype = np.float32 if case == "float32-tail" else np.float64
        tail = np.full((3, self.N_REC, 2), SENTINEL, dtype=dtype)
        norms = np.full((2, 3, self.N_LYAP + (case == "wider-norm-rows")), SENTINEL)
        norms.flags.writeable = case != "read-only-norms"
        with pytest.raises(ValueError, match="C-contiguous float64"):
            _kernels.point_lanes(
                [row(REF)] * 3, 0.2, 0.1, 5, self.N_REC, self.N_LYAP, tail, *norms
            )
        assert (tail == SENTINEL).all() and (norms == SENTINEL).all()

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                *[st.one_of(st.just(0.0), st.floats(0.0, 3.0))] * 4,
            ),
            min_size=1,
            max_size=_kernels.LANES + 1,
        ),
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, 1e6, -1e6, 1e300])),
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, 5e5, -1e6])),
        st.integers(0, 60),
        st.integers(0, 40),
        st.integers(0, MIN_STEPS + 80),
    )
    # Run from the OnScalarLoop subclass too; a stored failing example
    # replays on both loops, which both must pass.
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    def test_random_blocks(self, lanes, rows, x0, y0, n_tr, n_rec, n_lyap):
        assert_lanes_agree(lanes, rows, (x0, y0), n_tr, n_rec, n_lyap)


class TestLanesOnScalarLoop(OnScalarLoop, TestLanes):
    """Every TestLanes case on point_loop_scalar."""


class Reached(Exception):
    """A budget too long to run in a test reached a backend's lanes."""


class TestBudgets:
    """point_lanes refuses a negative budget and a run longer than the C
    loop's long long step counters hold, which ctypes would wrap."""

    @pytest.fixture(params=["c", "python"])
    def guarded(self, request, monkeypatch):
        """_loop patched to the backend with lanes that run short budgets
        and raise Reached for long ones, so no test can start a long run."""
        pair = request.getfixturevalue("compiled") if request.param == "c" else _kernels._PYTHON

        def lanes(params, x0, y0, n_tr, n_rec, n_lyap, *rest):
            if n_tr + max(n_rec, n_lyap) > 100:
                raise Reached
            return pair[0](params, x0, y0, n_tr, n_rec, n_lyap, *rest)

        monkeypatch.setattr(_kernels, "_loop", lambda: (lanes, pair[1]))

    @staticmethod
    def run(n_tr, n_rec, n_lyap):
        tail, norms = np.empty((1, 10, 2)), np.empty((2, 1, 10))
        return _kernels.point_lanes([row(REF)], 0.2, 0.1, n_tr, n_rec, n_lyap, tail, *norms)

    @pytest.mark.parametrize(
        "n_tr, n_rec, n_lyap",
        [(-1, 10, 10), (5, -1, 10), (5, 10, -1), (2**63 - 10, 10, 0), (2**63 - 10, 0, 10),
         (2**64 + 100, 3, 0), (2**63, 0, 0)],
    )
    def test_out_of_range_budgets_are_refused(self, guarded, n_tr, n_rec, n_lyap):
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            self.run(n_tr, n_rec, n_lyap)

    def test_budgets_in_range_reach_the_lanes(self, guarded):
        ((n_rec, n_used, at_step, *_),) = self.run(5, 10, 10)
        assert (n_rec, n_used, at_step) == (10, 10, 0)
        # The longest run allowed passes the check; the guard stops it.
        with pytest.raises(Reached):
            self.run(2**63 - 11, 10, 10)


class TestLogNorms:
    """_log_norms, the one log path of orbit, Lyapunov and sweep norms."""

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=5e-324, allow_infinity=False),
                st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
                st.sampled_from([0.0, math.inf, math.nan, 5e-324, 1.0]),
            ),
            min_size=2,
            max_size=60,
        ),
        st.integers(0, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_views_match_elementwise_logs(self, values, lane):
        # A (2, n) view of lane `lane` in a (2, 3, width) buffer, a sweep
        # block's norm layout; the other values must stay SENTINEL.
        n = len(values) // 2
        buf = np.full((2, 3, n + 2), SENTINEL)
        view = buf[:, lane, :n]
        view[...] = np.reshape(values[: 2 * n], (2, n))
        want = [np.log(v) if v > 0.0 else _kernels.LOG_ZERO for v in view.ravel().tolist()]
        _kernels._log_norms(view)
        assert view.tobytes() == np.array(want).tobytes()
        view[...] = SENTINEL
        assert (buf == SENTINEL).all()


class TestLaneLambda1:
    """lane_exponents on blocks whose lanes' windows differ, against a
    per-lane oracle (the logs and np.add.reduce over the lane's own window
    only) and against lyapunov_kernel on the same norms."""

    WIDTH = 1000
    FLOOR = 2 * _kernels.LOG_ZERO  # low enough to show every sum

    @classmethod
    def oracle(cls, norms, n_used):
        """Each lane's (lambda1, lambda2) as two rows: the larger and the
        smaller mean of its two rows of logs, floored; NaN where n is 0."""
        want = []
        for lane, n in enumerate(n_used):
            if n == 0:
                want.append((math.nan, math.nan))
                continue
            means = [
                np.add.reduce([np.log(v) if v > 0.0 else _kernels.LOG_ZERO for v in row[:n]]) / n
                for row in norms[:, lane].tolist()
            ]
            want.append([m if m > cls.FLOOR else cls.FLOOR for m in sorted(means, reverse=True)])
        return np.array(want).T

    @classmethod
    def kernel_pair(cls, norms, n):
        """lyapunov_kernel's (lambda1, lambda2) on one lane's norms,
        norms[:, :n]: its backend patched to lanes that write them as an
        n-step run's."""

        def lanes(params, x0, y0, n_tr, n_rec, n_lyap, tail, norm1, norm2):
            norm1[0], norm2[0] = norms[:, :n_lyap]
            return [(0, x0, y0)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_loop", lambda: _kernels._Backend(lanes))
            s1, s2 = np.empty(n), np.empty(n)
            lam1, lam2, *_ = _kernels.lyapunov_kernel(*row(REF), 0.2, 0.1, 0, n, cls.FLOOR, s1, s2)
        return lam1, lam2

    @pytest.mark.parametrize(
        "n_used",
        [
            [WIDTH] * _kernels.LANES,
            [WIDTH, 1, 0, 37],
            [3, 7, 2, 5],
            [0, WIDTH, 60, WIDTH - 1],
            [WIDTH, 17],
            [5],
            [0] * _kernels.LANES,
            [0],
        ],
        ids=["full", "mixed", "short", "empty-first", "k2", "k1", "empty", "k1-empty"],
    )
    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_mixed_windows_match_per_lane_sums(self, request, monkeypatch, backend, n_used):
        # Every value past a lane's window, and every value of the slots
        # past k, is NaN: any that reached a sum would show.  The sums
        # must not depend on which backend is selected.
        pair = request.getfixturevalue("compiled") if backend == "c" else _kernels._PYTHON
        monkeypatch.setattr(_kernels, "_loop", lambda: pair)
        rng = np.random.default_rng(len(n_used) + sum(n_used))
        norms = np.full((2, _kernels.LANES, self.WIDTH), math.nan)
        for lane, n in enumerate(n_used):
            norms[:, lane, :n] = 10.0 ** rng.uniform(-8, 8, (2, n))
        if n_used[0] > 2:
            norms[1, 0, 2] = 0.0  # a collapsed vector: the LOG_ZERO branch
        want = self.oracle(norms, n_used)
        kernel = [self.kernel_pair(norms[:, lane], n) if n else (math.nan, math.nan)
                  for lane, n in enumerate(n_used)]
        got = _kernels.lane_exponents(*norms, n_used, self.FLOOR)
        assert np.array(got).tobytes() == want.tobytes()
        assert np.array(kernel).T.tobytes() == want.tobytes()
        for lane in range(_kernels.LANES):
            n = n_used[lane] if lane < len(n_used) else 0
            assert np.isnan(norms[:, lane, n:]).all()

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_misaligned_rows_match_the_kernel(self, request, monkeypatch, backend):
        # An odd n_lyap starts every other lane's rows 8 bytes past a
        # 16-byte boundary; each lane's pair must still be bitwise a
        # single lyapunov_kernel run of its point.
        pair = request.getfixturevalue("compiled") if backend == "c" else _kernels._PYTHON
        monkeypatch.setattr(_kernels, "_loop", lambda: pair)
        n_tr, n_lyap = 50, 2001
        points = [replace(REF, r2=r2) for r2 in (3.9, 3.75, 3.5, 3.95)]
        norms = np.empty((2, len(points), n_lyap))
        assert {norms[r, lane].ctypes.data % 16 for r in (0, 1) for lane in range(4)} == {0, 8}
        runs = _kernels.point_lanes(
            [row(p) for p in points], 0.2, 0.1, n_tr, 0, n_lyap,
            np.empty((len(points), 0, 2)), *norms,
        )
        got = _kernels.lane_exponents(*norms, [n for _, n, *_ in runs], LAMBDA_FLOOR)
        want = []
        for p in points:
            s1, s2 = np.empty(n_lyap), np.empty(n_lyap)
            lam1, lam2, *_ = _kernels.lyapunov_kernel(
                *row(p), 0.2, 0.1, n_tr, n_lyap, LAMBDA_FLOOR, s1, s2
            )
            want.append((lam1, lam2))
        assert np.array(got).tobytes() == np.array(want).T.tobytes()


class TestBackend:
    def test_names_the_loop_that_runs(self, monkeypatch, compiled):
        assert "backend" in ecokmap.__all__
        monkeypatch.setattr(_kernels, "_loop", lambda: compiled)
        assert ecokmap.backend() == "c"
        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._PYTHON)
        assert ecokmap.backend() == "python"
        # Any backend without a library runs Python lanes, not only _PYTHON.
        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._Backend(_kernels._py_lanes))
        assert ecokmap.backend() == "python"

    def test_names_the_lane_loop(self, monkeypatch, compiled):
        # On an x86-64 Linux CPU that lists avx2, a load that binds the
        # scalar loop fails here.
        monkeypatch.setattr(_kernels, "_loop", lambda: compiled)
        loop = _kernels.lane_loop()
        assert loop == ("avx2" if compiled.lib.vector_loop() else "scalar")
        if sys.platform == "linux" and platform.machine() == "x86_64":
            flags = Path("/proc/cpuinfo").read_text().split()
            assert loop == ("avx2" if "avx2" in flags else "scalar")
        # The loop that is bound, not the one the CPU could run.
        scalar = _kernels._c_loop(compiled.lib, "point_loop_scalar")
        monkeypatch.setattr(_kernels, "_loop", lambda: scalar)
        assert _kernels.lane_loop() == "scalar"
        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._PYTHON)
        assert _kernels.lane_loop() == "python"

    def test_build_flags_change_no_value(self):
        # The flags that let GCC vectorize (-fno-math-errno,
        # -fno-trapping-math) are members of -ffast-math; these others
        # would let it reorder, contract or assume away IEEE arithmetic,
        # and -march would tie a shared cache to one CPU.
        value_changing = {
            "-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
            "-freciprocal-math", "-ffinite-math-only", "-fno-signed-zeros", "-ffp-contract=fast",
        }
        assert "-ffp-contract=off" in _kernels._FLAGS
        assert not value_changing & set(_kernels._FLAGS)
        assert not [f for f in _kernels._FLAGS if f.startswith("-march=")]


def results():
    """Bytes of an orbit, a Lyapunov run and a small sweep, through the public API."""
    rec = iterate(REF, State(0.2, 0.1), 600, 100)
    lyap = lyapunov_spectrum(REF, State(0.2, 0.1), 100, 300)
    spec = SweepSpec(
        base=REF, parameter="r2", lo=3.0, hi=4.0, n_points=5, s0=State(0.2, 0.1),
        n_transient=50, n_record=20, n_lyap=150,
    )
    sweep = [
        (pt.orbit.tail.tobytes(), np.float64(pt.lambda1).tobytes())
        for pt in bifurcation_sweep(spec).points
    ]
    return rec.tail.tobytes(), lyap.series.tobytes(), sweep


@pytest.fixture(scope="module")
def want():
    """results() on the point loop this process resolved before any test patched it."""
    return results()


def listing(directory: Path):
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else None


class TestLoader:
    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """An empty cache and an empty temporary directory in tmp_path, and
        a point loop that _kernels has not resolved yet."""
        cache, tmp = tmp_path / "cache", tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(_kernels, "_CACHE_DIR", cache)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setattr(_kernels, "_loop", functools.cache(_kernels._loop.__wrapped__))
        return cache, tmp

    @staticmethod
    def set_cc(monkeypatch, cc):
        real = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig, "get_config_var", lambda name: cc if name == "CC" else real(name)
        )

    @pytest.mark.parametrize("cc", [None, "missing-cc", "false"])
    def test_no_working_compiler_falls_back_to_python(self, want, fresh, monkeypatch, tmp_path, cc):
        # None: CC unset and no cc on PATH; "missing-cc": CC names no
        # program; "false": the compiler runs and fails.
        cache, tmp = fresh
        self.set_cc(monkeypatch, cc)
        if cc != "false":
            monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        package = listing(Path(_kernels.__file__).with_name("__pycache__"))
        assert ecokmap.backend() == "python"
        assert results() == want
        assert listing(cache) in (None, [])
        assert listing(tmp) == []
        assert listing(Path(_kernels.__file__).with_name("__pycache__")) == package

    def test_builds_into_an_empty_cache_and_reuses_it(
        self, want, fresh, monkeypatch, tmp_path, compiled
    ):
        cache, tmp = fresh
        assert ecokmap.backend() == "c"
        (built,) = cache.iterdir()
        assert built.name.startswith("_frame-") and built.suffix == ".so"
        assert listing(tmp) == []
        assert results() == want
        # A second process start finds the library, needs no compiler and
        # deletes a stale build that it did not make.
        stamp = built.stat().st_mtime_ns
        (cache / "_frame-0000000000000000.so").write_bytes(b"")
        monkeypatch.setattr(_kernels, "_loop", functools.cache(_kernels._loop.__wrapped__))
        self.set_cc(monkeypatch, None)
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        assert ecokmap.backend() == "c"
        assert listing(cache) == [built.name]
        assert built.stat().st_mtime_ns == stamp

    def test_a_build_deletes_stale_builds(self, want, fresh, compiled):
        # A build from an earlier source is gone once the new one is built;
        # another build's mkstemp temporary is not a _frame-*.so and stays.
        cache, _ = fresh
        cache.mkdir()
        stale, temporary = cache / "_frame-0000000000000000.so", cache / "tmp1a2b3c4d.so"
        stale.write_bytes(b"")
        temporary.write_bytes(b"")
        assert ecokmap.backend() == "c"
        (built,) = cache.glob("_frame-*.so")
        assert built != stale and temporary.exists()
        assert results() == want

    def test_unwritable_cache_builds_in_a_private_directory(
        self, want, fresh, monkeypatch, tmp_path, compiled
    ):
        _, tmp = fresh
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(_kernels, "_CACHE_DIR", tmp_path / "file" / "cache")
        assert ecokmap.backend() == "c"
        assert results() == want
        assert listing(tmp) == []  # the private directory is gone once loaded


def child_env():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


def test_import_neither_loads_nor_builds_the_kernel():
    # numpy itself imports ctypes, so the pin is that no kernel was
    # resolved and the compiler driver (subprocess) was never imported.
    code = (
        "import sys, ecokmap.cli\n"
        "from ecokmap import _kernels\n"
        "print(_kernels._loop.cache_info().currsize, 'subprocess' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "False"]


@pytest.mark.skipif(sys.platform != "linux", reason="os.wait4's ru_maxrss is in KiB on Linux")
def test_grid_memory_does_not_grow_with_the_record_window(tmp_path):
    # One tail buffer serves every point: 50 000 recorded states per point
    # on a 9 x 9 grid must not cost more than a few MB over 2 000.
    config = tmp_path / "config.json"
    config.write_text('{"r2": 3.9, "c2": 0.6, "c3": 0.6}')

    def peak_mb(steps):
        argv = [sys.executable, "-m", "ecokmap", "chaos-grid", "--config", str(config),
                "--grid", "9", "--steps", steps, "--out", str(tmp_path / steps)]
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        assert status == 0
        return usage.ru_maxrss / 1024

    assert peak_mb("50000") - peak_mb("2000") < 8.0
