"""Sweep engine: grids, escape handling, oracle coherence."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ecokmap.dynamics import ModelParams, State
from ecokmap.equilibria import Classification, Family, fixed_points
from ecokmap.orbit import Aperiodic, Escaped, Settled, iterate
from ecokmap.sweep import (
    ChaosGridSpec,
    SweepSpec,
    bifurcation_sweep,
    chaos_grid,
    grid_values,
    outcome_label,
)

DECOUPLED = ModelParams(2.0, 3.0, 1.0, 0.0, 0.0, 1.0)
REF_BASE = ModelParams(3.0, 3.0, 1.8, 0.1, 0.6, 2.5)
S0 = State(0.2, 0.1)


def small_spec(**kw):
    base = dict(
        base=REF_BASE,
        parameter="r2",
        lo=2.8,
        hi=4.0,
        n_points=13,
        s0=S0,
        n_transient=300,
        n_record=40,
        n_lyap=2000,
    )
    base.update(kw)
    return SweepSpec(**base)


class TestGrid:
    @given(
        st.floats(min_value=0.0, max_value=3.9),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=2, max_value=500),
    )
    def test_exact_endpoints_and_strict_increase(self, lo, width, n):
        hi = min(lo + width, 4.0)
        g = grid_values(lo, hi, n)
        assert len(g) == n
        assert g[0] == lo and g[-1] == hi
        assert np.all(np.diff(g) > 0)

    def test_values_match_affine_formula(self):
        g = grid_values(2.8, 4.0, 241)
        for i in (0, 1, 100, 239, 240):
            assert g[i] == pytest.approx(2.8 + i * 1.2 / 240, rel=1e-15)


class TestSpecValidation:
    def test_rejects_bad_parameter_name(self):
        with pytest.raises(ValueError, match="parameter"):
            small_spec(parameter="r3")

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            small_spec(lo=4.0, hi=2.8)

    def test_rejects_range_outside_domain(self):
        with pytest.raises(ValueError, match="r2"):
            small_spec(hi=4.5)
        with pytest.raises(ValueError, match="c2"):
            SweepSpec(
                base=REF_BASE, parameter="c2", lo=-0.5, hi=1.0, n_points=5, s0=S0
            )

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.5, 4.5])
    def test_sweep_spec_refuses_nonfinite_or_out_of_domain_end(self, end, value):
        with pytest.raises(ValueError, match=rf"^{end} must be in \[0, 4\] for r2, got"):
            small_spec(**{end: value})

    @pytest.mark.parametrize("end", ["c2_lo", "c2_hi", "c3_lo", "c3_hi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.5])
    def test_grid_spec_refuses_nonfinite_or_out_of_domain_end(self, end, value):
        ends = {"c2_lo": 0.1, "c2_hi": 0.9, "c3_lo": 0.1, "c3_hi": 0.9, end: value}
        with pytest.raises(ValueError, match=rf"^{end} must be finite and >= 0 for {end[:2]}, got"):
            ChaosGridSpec(
                base=REF_BASE, c2_points=3, c3_points=3, r2_values=(3.9,), s0=S0, **ends
            )

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            small_spec(n_points=1)

    def test_rejects_lyapunov_budget_below_min_steps(self):
        with pytest.raises(ValueError, match="n_lyap must be >= 100"):
            small_spec(n_lyap=99)
        small_spec(n_lyap=100)

    def test_grid_spec_checks_r2_values(self):
        with pytest.raises(ValueError, match="r2"):
            ChaosGridSpec(
                base=REF_BASE,
                c2_lo=0.1, c2_hi=0.9, c2_points=3,
                c3_lo=0.1, c3_hi=0.9, c3_points=3,
                r2_values=(4.5,),
                s0=S0,
            )


class TestBifurcationSweep:
    def test_result_aligned_with_grid(self):
        spec = small_spec()
        res = bifurcation_sweep(spec)
        assert len(res.points) == spec.n_points
        assert res.grid[0] == spec.lo and res.grid[-1] == spec.hi
        for v, pt in zip(res.grid, res.points):
            assert pt.value == v
            assert len(pt.orbit.tail) == spec.n_record

    def test_decoupled_cascade_order(self):
        # coarse sweep of the logistic cascade in r2; period labels must
        # appear in the classical order 1, 2, 4 before chaos
        spec = SweepSpec(
            base=DECOUPLED, parameter="r2", lo=2.8, hi=3.56, n_points=20,
            s0=State(0.45, 0.2), n_transient=4000, n_record=160, n_lyap=1000,
        )
        res = bifurcation_sweep(spec)
        labels = [
            pt.orbit.outcome.period if isinstance(pt.orbit.outcome, Settled) else None
            for pt in res.points
        ]
        assert labels[0] == 1
        seen = [k for k, _ in __import__("itertools").groupby(labels) if k in (1, 2, 4)]
        assert seen[:3] == [1, 2, 4]

    def test_settled_tail_collapses_onto_attracting_interior(self):
        # r2 window where the coupled system has an attracting interior
        # point: every settled-1 tail must sit on it
        spec = SweepSpec(
            base=REF_BASE, parameter="r2", lo=1.5, hi=2.5, n_points=11,
            s0=S0, n_transient=2000, n_record=50, n_lyap=2000,
        )
        res = bifurcation_sweep(spec)
        for pt in res.points:
            assert pt.orbit.outcome == Settled(1)
            p = replace(REF_BASE, r2=pt.value)
            interior = next(
                fp for fp in fixed_points(p) if fp.family is Family.INTERIOR
            )
            assert interior.classification is Classification.ATTRACTING
            mean = pt.orbit.tail.mean(axis=0)
            assert mean[0] == pytest.approx(interior.location.x, abs=1e-6)
            assert mean[1] == pytest.approx(interior.location.y, abs=1e-6)
            assert pt.lambda1 < 0

    def test_escaped_points_marked_in_place(self):
        base = ModelParams(2, 1.05, 1, 0, 4, 0)
        spec = SweepSpec(
            base=base, parameter="r2", lo=1.02, hi=1.2, n_points=7,
            s0=State(0.5, 1e-3), n_transient=100, n_record=2000, n_lyap=2000,
        )
        res = bifurcation_sweep(spec)
        assert len(res.points) == 7
        for pt in res.points:
            out = pt.orbit.outcome
            assert isinstance(out, Escaped)
            want_step = math.ceil(math.log(1e9) / math.log(pt.value))
            assert out.at_step == want_step
            if out.at_step - 100 >= 100:  # enough post-transient steps
                assert math.isfinite(pt.lambda1)
            else:
                assert math.isnan(pt.lambda1)

    def test_escape_during_transient_leaves_one_marker_state(self):
        base = ModelParams(2, 1.05, 1, 0, 4, 0)
        spec = SweepSpec(
            base=base, parameter="r2", lo=1.05, hi=1.5, n_points=3,
            s0=State(0.5, 1e-3), n_transient=5000, n_record=100, n_lyap=2000,
        )
        res = bifurcation_sweep(spec)
        for pt in res.points:
            assert isinstance(pt.orbit.outcome, Escaped)
            assert len(pt.orbit.tail) == 1
            assert pt.orbit.first_index == pt.orbit.outcome.at_step - 1
            x, y = pt.orbit.tail[0]
            assert abs(x) <= 1e6 and abs(y) <= 1e6


class TestChaosGrid:
    def grid_spec(self, **kw):
        base = dict(
            base=REF_BASE,
            c2_lo=0.0, c2_hi=0.6, c2_points=3,
            c3_lo=0.0, c3_hi=0.6, c3_points=3,
            r2_values=(3.9,),
            s0=S0,
            n_transient=300,
            n_record=40,
            n_lyap=2000,
        )
        base.update(kw)
        return ChaosGridSpec(**base)

    def test_cell_ordering_is_row_major_per_r2(self):
        spec = self.grid_spec(r2_values=(3.0, 3.9))
        res = chaos_grid(spec)
        assert len(res.cells) == 18
        keys = [(c.r2, c.c2, c.c3) for c in res.cells]
        assert keys == sorted(keys)

    def test_decoupled_cell_equals_max_of_axis_exponents(self):
        spec = self.grid_spec()
        res = chaos_grid(spec)
        cell = next(c for c in res.cells if c.c2 == 0.0 and c.c3 == 0.0)
        p = replace(REF_BASE, r2=3.9, c2=0.0, c3=0.0)
        states = iterate(p, S0, spec.n_transient - 1 + spec.n_lyap, spec.n_transient - 1).tail
        lam_x = math.fsum(
            math.log(abs(p.r1 * (1 - 2 * p.c1 * x))) for x, _ in states.tolist()
        ) / spec.n_lyap
        lam_y = math.fsum(
            math.log(abs(p.r2 * (1 - 2 * p.c4 * y))) for _, y in states.tolist()
        ) / spec.n_lyap
        assert cell.lambda1 == pytest.approx(max(lam_x, lam_y), abs=1e-10)


class TestOutcomeLabel:
    def test_labels(self):
        assert outcome_label(Settled(3)) == "period-3"
        assert outcome_label(Aperiodic()) == "aperiodic"
        assert outcome_label(Escaped(12)) == "escaped"
