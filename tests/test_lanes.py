"""Sweep engine: each sweep point against a per-point oracle, bitwise.

The oracle evaluates one point with the public scalar path: `iterate` for
the orbit record (an orbit that escapes during its transient keeps its
last finite state as a single marker row) and `lyapunov_spectrum` for
lambda1, with EscapedTooEarly mapped to NaN.  The engine, which runs the
fused point loop once per point, must reproduce its lambda1, tail and
outcome bit for bit, on both compiled builds (the loop the library bound
when it loaded, avx2_blocks on a CPU that has AVX2, and
point_loop_scalar) and on the Python loop.

Escape steps are placed with the engineered family of tests/test_orbit.py:
from (0.5, 1e-3), ModelParams(2, r2, 1, 0, 4, 0) keeps x = 0.5 exactly and
multiplies y by -r2 each step, so it escapes at step ceil(ln(1e9)/ln(r2)).
"""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from ecokmap import _kernels, sweep
from ecokmap.dynamics import ModelParams, State
from ecokmap.lyapunov import MIN_STEPS, EscapedTooEarly, lyapunov_spectrum
from ecokmap.orbit import MAX_PERIOD, Escaped, iterate
from ecokmap.sweep import SweepSpec, bifurcation_sweep

ESCAPE_S0 = State(0.5, 1e-3)
REF = ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5)


def escaping_at(k: int) -> ModelParams:
    """Member of the engineered family that escapes at step k (k >= 16)."""
    return ModelParams(2, 1e9 ** (1 / (k - 0.5)), 1, 0, 4, 0)


def spec_for(s0, n_transient, n_record, n_lyap):
    return SweepSpec(
        base=REF, parameter="r2", lo=1.0, hi=2.0, n_points=2, s0=s0,
        n_transient=n_transient, n_record=n_record, n_lyap=n_lyap,
    )


def oracle(spec, p):
    """(orbit record, lambda1) of one point from iterate + lyapunov_spectrum."""
    s0, n_tr = spec.s0, spec.n_transient
    rec = iterate(p, s0, n_tr + spec.n_record, n_tr, MAX_PERIOD, spec.period_tol)
    if isinstance(rec.outcome, Escaped) and len(rec.tail) == 0:
        pre = iterate(p, s0, rec.outcome.at_step, 0).tail
        if len(pre):
            rec = replace(rec, transient_len=rec.outcome.at_step - 2, tail=pre[-1:])
    try:
        lam1 = lyapunov_spectrum(p, s0, n_tr, spec.n_lyap).lambda1
    except EscapedTooEarly:
        lam1 = math.nan
    return rec, lam1


def bits(v: float) -> bytes:
    return np.float64(v).tobytes()


def assert_matches_oracle(spec, params):
    got = list(sweep._evaluate(spec, params))
    assert len(got) == len(params)
    for p, (rec, lam1) in zip(params, got):
        want_rec, want_lam1 = oracle(spec, p)
        assert rec == want_rec, p
        assert bits(lam1) == bits(want_lam1), (p, lam1, want_lam1)
    return got


def escape_step(p, s0, limit):
    out = iterate(p, s0, limit, 0).outcome
    return out.at_step if isinstance(out, Escaped) else None


class TestAgainstOracle:
    """On the compiled point loop; TestAgainstOracleOnPython reruns every
    case on the Python loop."""

    @pytest.fixture(autouse=True)
    def kernel_loop(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "_loop", lambda: compiled)

    def test_escape_at_every_stage(self):
        n_tr, n_rec, n_lyap = 40, 30, 300
        steps = {
            "transient": 20,
            "first post-transient step": n_tr + 1,
            "record window": n_tr + 10,
            "before MIN_STEPS": n_tr + MIN_STEPS - 1,
            "at MIN_STEPS": n_tr + MIN_STEPS,
            "after MIN_STEPS": n_tr + 200,
        }
        params = [escaping_at(k) for k in steps.values()] + [replace(REF, r2=1.0)]
        for p, k in zip(params, steps.values()):
            assert escape_step(p, ESCAPE_S0, n_tr + n_lyap) == k
        got = assert_matches_oracle(spec_for(ESCAPE_S0, n_tr, n_rec, n_lyap), params)
        lam = [lam1 for _, lam1 in got]
        assert [math.isnan(v) for v in lam] == [True] * 4 + [False] * 3
        marker = got[1][0]
        assert (marker.transient_len, len(marker.tail)) == (n_tr - 1, 1)

    def test_escape_at_step_one(self):
        # y0 = 5e5 is multiplied by -r2: r2 = 4 escapes at once, 1.5 one
        # step later, 2 too (|y| = 1e6 exactly is not beyond the bound),
        # and 1 never (|y| stays at 5e5).
        s0 = State(0.5, 5e5)
        params = [replace(escaping_at(100), r2=r2) for r2 in (4.0, 1.5, 2.0, 1.0)]
        assert [escape_step(p, s0, 50) for p in params] == [1, 2, 2, None]
        got = assert_matches_oracle(spec_for(s0, 5, 10, 200), params)
        assert got[0][0].tail.shape == (0, 2)
        assert got[1][0].tail.shape == (1, 2)

    def test_overflowing_lanes_are_silent(self):
        # From x = 1e300 the first step overflows to -inf, which scalar
        # Python floats do silently; the lanes must not warn either.
        params = [ModelParams(4.0, r2, 0.1, 0, 0, 0.1) for r2 in (0.0, 2.0, 4.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_matches_oracle(spec_for(State(1e300, 0.1), 0, 5, 100), params)
        assert all(rec.outcome == Escaped(1) for rec, _ in got)

    def test_record_window_longer_than_lyapunov_run(self):
        n_tr, n_rec, n_lyap = 20, 250, 120
        params = [escaping_at(k) for k in (n_tr + 110, n_tr + n_lyap, n_tr + 180)]
        params.append(REF)
        got = assert_matches_oracle(spec_for(ESCAPE_S0, n_tr, n_rec, n_lyap), params)
        assert [len(rec.tail) for rec, _ in got] == [109, 119, 179, n_rec]
        assert not any(math.isnan(lam1) for _, lam1 in got)

    def test_zero_norm_lanes(self):
        # r2 = 0 zeroes the Jacobian's second row, so the area n2 is zero
        # every step; r1 = r2 = 0 makes every Jacobian zero, so both norms
        # take the LOG_ZERO branch.
        params = [
            replace(REF, r2=0.0),
            ModelParams(0, 0, 1, 1, 1, 1),
            REF,
            ModelParams(2.5, 4.0, 1, 0, 0, 1),
        ]
        assert_matches_oracle(spec_for(State(0.7, 0.3), 10, 20, 150), params)

    def test_zero_norm_stand_in_shows_through_a_low_floor(self):
        # Below LOG_ZERO the floor no longer hides the zero-norm stand-in,
        # so lambda1 pins the LOG_ZERO branch of both norms.
        params = [replace(REF, r2=0.0), ModelParams(0, 0, 1, 1, 1, 1), REF]
        n_tr, n_lyap, floor = 10, 150, 2 * _kernels.LOG_ZERO
        got = []
        for p in params:
            tail, norms = np.empty((1, 20, 2)), np.empty((2, 1, n_lyap))
            ((_, n_used, *_),) = _kernels.point_lanes(
                [(p.r1, p.r2, p.c1, p.c2, p.c3, p.c4)], 0.2, 0.1, n_tr, 20, n_lyap, tail, *norms
            )
            assert n_used == n_lyap
            series = np.empty(n_lyap), np.empty(n_lyap)
            want = _kernels.lyapunov_kernel(
                p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, 0.2, 0.1, n_tr, n_lyap, floor, *series
            )[0]
            got.append(_kernels.lane_exponents(*norms, [n_lyap], floor)[0][0])
            assert bits(got[-1]) == bits(want)
        assert got[1] == _kernels.LOG_ZERO

    def test_public_sweep_matches_oracle(self):
        spec = SweepSpec(
            base=ModelParams(2, 1.05, 1, 0, 4, 0), parameter="r2", lo=1.02, hi=3.0,
            n_points=9, s0=ESCAPE_S0, n_transient=30, n_record=25, n_lyap=200,
        )
        res = bifurcation_sweep(spec)
        for v, pt in zip(res.grid, res.points):
            rec, lam1 = oracle(spec, replace(spec.base, r2=v))
            assert pt.orbit == rec
            assert bits(pt.lambda1) == bits(lam1)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                *[st.one_of(st.just(0.0), st.floats(0.0, 3.0))] * 4,
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(-0.5, 1.5),
        st.floats(-0.5, 1.5),
        st.integers(0, 60),
        st.integers(1, 40),
        st.integers(MIN_STEPS, MIN_STEPS + 80),
    )
    # Run from TestAgainstOracleOnPython too, on the other point loop; a
    # stored failing example replays on both, which both must pass.
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.differing_executors]
    )
    def test_random_batches(self, rows, x0, y0, n_tr, n_rec, n_lyap):
        params = [ModelParams(*row) for row in rows]
        assert_matches_oracle(spec_for(State(x0, y0), n_tr, n_rec, n_lyap), params)


class TestAgainstOracleOnScalarLoop(TestAgainstOracle):
    """Every TestAgainstOracle case on point_loop_scalar."""

    @pytest.fixture(scope="class")
    def compiled(self, compiled):
        return _kernels._c_loop(compiled.lib, "point_loop_scalar")


class TestAgainstOracleOnPython(TestAgainstOracle):
    """Every TestAgainstOracle case on the Python point loop."""

    @pytest.fixture(autouse=True)
    def kernel_loop(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._PYTHON)


class TestPointIndependence:
    PARAMS = [
        REF,
        escaping_at(20),
        replace(REF, r2=0.0),
        escaping_at(60 + MIN_STEPS),
        ModelParams(0, 0, 1, 1, 1, 1),
        replace(REF, c2=0.1),
        escaping_at(75),
        ModelParams(2.5, 4.0, 1, 0, 0, 1),
    ]

    @pytest.fixture(autouse=True)
    def kernel_loop(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "_loop", lambda: compiled)

    def test_alone_batched_and_reordered_agree(self):
        # Points share one tail and one norm buffer; whatever ran before
        # a point must not show in its result.
        spec = spec_for(ESCAPE_S0, 60, 30, 400)
        batched = list(sweep._evaluate(spec, self.PARAMS))
        alone = [next(sweep._evaluate(spec, [p])) for p in self.PARAMS]
        reordered = list(sweep._evaluate(spec, self.PARAMS[::-1]))[::-1]
        for b, a, c in zip(batched, alone, reordered):
            assert b[0] == a[0] == c[0]
            assert bits(b[1]) == bits(a[1]) == bits(c[1])

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_every_point_in_every_lane_slot(self, monkeypatch, backend):
        # Points run in blocks of LANES.  Rotating the list moves each point
        # through every slot of a block, beside different neighbours, and
        # the shorter prefixes end in partial blocks.
        if backend == "python":
            monkeypatch.setattr(_kernels, "_loop", lambda: _kernels._PYTHON)
        spec = spec_for(ESCAPE_S0, 60, 30, 400)
        alone = [next(sweep._evaluate(spec, [p])) for p in self.PARAMS]
        n = len(self.PARAMS)
        for shift in range(n):
            order = [(i + shift) % n for i in range(n)]
            for k in (_kernels.LANES - 1, _kernels.LANES + 1, n):
                got = list(sweep._evaluate(spec, [self.PARAMS[i] for i in order[:k]]))
                assert len(got) == k
                for i, (rec, lam1) in zip(order, got):
                    assert rec == alone[i][0]
                    assert bits(lam1) == bits(alone[i][1])


class TestPointIndependenceOnScalarLoop(TestPointIndependence):
    """Every TestPointIndependence case with point_loop_scalar as the
    compiled loop."""

    @pytest.fixture(scope="class")
    def compiled(self, compiled):
        return _kernels._c_loop(compiled.lib, "point_loop_scalar")
