"""Fixed-point enumeration, classification and the stability report.

Oracles: an independent 2x2 linear solve (numpy) for the interior point,
the map residual for every returned point, and long-run iteration for the
classification claims.
"""
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from ecokmap.dynamics import ModelParams, NonFiniteStepError, State, jacobian, step
from ecokmap.equilibria import (
    Classification,
    Family,
    decoupled_condition,
    fixed_points,
    interior_is_degenerate,
    residual,
    stability_report,
)
from ecokmap.orbit import iterate


def by_family(p):
    return {fp.family: fp for fp in fixed_points(p)}


def run_to_convergence(p, s, target, n_max=10_000, tol=1e-6):
    """Iterate until within tol (sup norm) of target; return success."""
    for _ in range(n_max // 100):
        rec = iterate(p, s, 100, 0)
        s = State(*rec.tail[-1])
        if max(abs(s.x - target.x), abs(s.y - target.y)) <= tol:
            return True
    return False


class TestFamilies:
    def test_boundary_x_example(self):
        p = ModelParams(2, 0.5, 1, 0, 0, 1)
        pts = by_family(p)
        bx = pts[Family.BOUNDARY_X]
        assert bx.location.x == pytest.approx(0.5, rel=1e-12)
        assert bx.location.y == 0.0
        # 1-D logistic derivative r*(1 - 2*c*x*) = 2 - r1 = 0 on the x axis,
        # r2 = 0.5 on the y axis
        mods = sorted(bx.moduli)
        assert mods[0] == pytest.approx(0.0, abs=1e-12)
        assert mods[1] == pytest.approx(0.5, rel=1e-12)
        assert bx.classification is Classification.ATTRACTING
        assert bx.feasible

    def test_below_threshold_growth_only_origin_feasible(self):
        p = ModelParams(0.5, 0.5, 1, 0, 0, 1)
        pts = fixed_points(p)
        feasible = [fp for fp in pts if fp.feasible]
        assert len(feasible) == 1
        assert feasible[0].family is Family.ORIGIN
        assert feasible[0].classification is Classification.ATTRACTING

    def test_interior_against_linear_solve_oracle(self):
        p = ModelParams(3, 3.5, 1.8, 0.1, 0.6, 2.5)
        want = np.linalg.solve(
            [[p.c1, p.c2], [p.c3, p.c4]], [1 - 1 / p.r1, 1 - 1 / p.r2]
        )
        it = by_family(p)[Family.INTERIOR]
        assert it.location.x == pytest.approx(want[0], rel=1e-12)
        assert it.location.y == pytest.approx(want[1], rel=1e-12)
        assert it.location.x == pytest.approx(0.359288, abs=1e-6)
        assert it.location.y == pytest.approx(0.199485, abs=1e-6)
        assert residual(p, it) <= 1e-10

    def test_boundary_skipped_when_formula_singular(self):
        fams = {fp.family for fp in fixed_points(ModelParams(2, 2, 0, 1, 1, 0))}
        assert Family.BOUNDARY_X not in fams and Family.BOUNDARY_Y not in fams
        # r = 1 lands back on the origin and is skipped as well
        fams = {fp.family for fp in fixed_points(ModelParams(1, 1, 1, 0, 0, 1))}
        assert fams == {Family.ORIGIN, Family.INTERIOR}

    def test_degenerate_interior_absent(self):
        p = ModelParams(3, 3, 1, 1, 1, 1)  # c1*c4 - c2*c3 = 0
        assert interior_is_degenerate(p)
        assert Family.INTERIOR not in {fp.family for fp in fixed_points(p)}

    @pytest.mark.parametrize(
        "p, family, location",
        [
            (ModelParams(3, 3, 5e-324, 0.1, 0.6, 2.5), Family.BOUNDARY_X, "(inf, 0.0)"),
            (ModelParams(3, 3, 1.8, 0.1, 0.6, 5e-324), Family.BOUNDARY_Y, "(0.0, inf)"),
            # x* = 2 / 6e-308 is finite; a12 = -r1 c2 x* is not.
            (
                ModelParams(3, 3, 2e-308, 10, 0.6, 2.5), Family.BOUNDARY_X,
                "(3.3333333333333337e+307, 0.0)",
            ),
        ],
        ids=["x-star", "y-star", "a12"],
    )
    def test_overflowing_point_raises_non_finite_step(self, p, family, location):
        want = re.escape(f"{family.value} fixed point at {location}")
        with pytest.raises(NonFiniteStepError, match=want):
            fixed_points(p)

    def test_infeasible_points_flagged_not_dropped(self):
        p = ModelParams(0.5, 0.5, 1, 0, 0, 1)
        pts = by_family(p)
        assert pts[Family.BOUNDARY_X].location.x == pytest.approx(-1.0)
        assert not pts[Family.BOUNDARY_X].feasible
        assert not pts[Family.INTERIOR].feasible


rates_pos = st.floats(min_value=0.2, max_value=4.0)
coeffs_pos = st.floats(min_value=0.05, max_value=3.0)
params_st = st.builds(
    ModelParams, r1=rates_pos, r2=rates_pos, c1=coeffs_pos, c2=coeffs_pos, c3=coeffs_pos, c4=coeffs_pos
)


class TestFlipOracle:
    def test_equal_growth_rates_give_eigenvalue_two_minus_r(self):
        # With r1 = r2 = r the interior point solves c1 x + c2 y = c3 x + c4 y
        # = 1 - 1/r, so J (x*, y*) = (2 - r) (x*, y*) exactly: the flip at
        # r = 3 of every coupling.  Bounds scale with the Jacobian's largest
        # entry, the size of its rounding: a flat 1e-11 fails at r = 3.07,
        # where entries reach 20.  Measured worst, as a share of that scale:
        # 9.1e-14 (eigenvalue) on these 2 000 draws, 3.4e-12 on 20 000.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            r = rng.uniform(0.0, 4.0)
            p = ModelParams(r, r, *rng.uniform(0.0, 3.0, 4))
            it = by_family(p)[Family.INTERIOR]
            j = jacobian(p, it.location)
            tol = 1e-11 * max(1.0, abs(j.a11), abs(j.a12), abs(j.a21), abs(j.a22))
            assert min(abs(e - (2.0 - r)) for e in it.eigenvalues) <= tol, p
            x, y = it.location.x, it.location.y
            x, y = x / max(abs(x), abs(y)), y / max(abs(x), abs(y))
            jv = (j.a11 * x + j.a12 * y, j.a21 * x + j.a22 * y)
            assert max(abs(jv[0] - (2.0 - r) * x), abs(jv[1] - (2.0 - r) * y)) <= tol, p


class TestResidualInvariant:
    @given(params_st)
    @settings(max_examples=200)
    def test_every_point_is_a_fixed_point(self, p):
        # The residual of the interior point is evaluated through the
        # cancellation 1 - c1*x - c2*y, whose float noise scales with the
        # point's magnitude ~ 1/det; certification at 1e-10 is only
        # meaningful away from the degenerate sliver.
        assume(abs(p.c1 * p.c4 - p.c2 * p.c3) >= 1e-3)
        for fp in fixed_points(p):
            assert residual(p, fp) <= 1e-10

    @given(
        st.floats(min_value=1.05, max_value=2.95),
        st.floats(min_value=1.05, max_value=2.95),
        coeffs_pos,
        coeffs_pos,
    )
    @settings(max_examples=200)
    @example(1.05, 1.050036924666658, 1.0, 1.0)  # roots 3.7e-5 apart
    def test_decoupled_interior_matches_logistic_window(self, r1, r2, c1, c4):
        p = ModelParams(r1, r2, c1, 0.0, 0.0, c4)
        it = by_family(p)[Family.INTERIOR]
        assert it.location.x == pytest.approx((r1 - 1) / (c1 * r1), rel=1e-12)
        assert it.location.y == pytest.approx((r2 - 1) / (c4 * r2), rel=1e-12)
        got = sorted(e.real for e in it.eigenvalues)
        want = sorted((2.0 - r1, 2.0 - r2))
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        assert all(e.imag == 0.0 for e in it.eigenvalues)
        assert it.classification is Classification.ATTRACTING


class TestClassificationOracle:
    def test_attracting_point_pulls_in_perturbations(self):
        rng = np.random.default_rng(7)
        p = ModelParams(2.0, 2.0, 1.8, 0.1, 0.6, 2.5)
        it = by_family(p)[Family.INTERIOR]
        assert it.classification is Classification.ATTRACTING
        assert max(it.moduli) < 0.95
        for _ in range(10):
            s = State(
                it.location.x + rng.uniform(-1e-3, 1e-3),
                it.location.y + rng.uniform(-1e-3, 1e-3),
            )
            assert run_to_convergence(p, s, it.location)

    def test_saddle_point_repels(self):
        p = ModelParams(3.5, 3.5, 1, 0.5, 0.5, 1)
        it = by_family(p)[Family.INTERIOR]
        assert not interior_is_degenerate(p)
        assert it.classification is Classification.SADDLE
        rng = np.random.default_rng(11)
        escaped_neighbourhood = 0
        for _ in range(10):
            s = State(
                it.location.x + rng.uniform(-1e-3, 1e-3),
                it.location.y + rng.uniform(-1e-3, 1e-3),
            )
            rec = iterate(p, s, 10_000, 9_900)
            end_x, end_y = rec.tail[-1]
            if max(abs(end_x - it.location.x), abs(end_y - it.location.y)) > 1e-3:
                escaped_neighbourhood += 1
        assert escaped_neighbourhood >= 9  # the stable manifold has measure zero


class TestStabilityReport:
    def test_origin_row_condition_true_below_threshold(self):
        rep = stability_report(ModelParams(0.5, 0.5, 1, 0, 0, 1))
        assert rep.decoupled
        origin = next(e for e in rep.entries if e.point.family is Family.ORIGIN)
        assert origin.point.classification is Classification.ATTRACTING
        assert origin.condition_row == 1
        assert origin.condition_holds is True

    def test_boundary_attracting_confirmed_by_long_run(self):
        p = ModelParams(2, 0.5, 1, 0, 0, 1)
        rep = stability_report(p)
        bx = next(e for e in rep.entries if e.point.family is Family.BOUNDARY_X)
        assert bx.point.classification is Classification.ATTRACTING
        assert run_to_convergence(p, State(0.45, 0.01), State(0.5, 0.0), tol=1e-8)

    def test_coupled_report_has_no_condition_column(self):
        rep = stability_report(ModelParams(3, 3.5, 1.8, 0.1, 0.6, 2.5))
        assert not rep.decoupled
        assert all(e.condition_row is None and e.condition_holds is None for e in rep.entries)

    def test_condition_disagreement_is_surfaced_not_reconciled(self):
        # r1 = 3.5 > 3 makes the boundary point non-attracting by the
        # eigenvalue criterion (|2 - r1| > 1), yet the closed-form row-2
        # inequalities hold; the report must show both as they are.
        p = ModelParams(3.5, 0.5, 1, 0, 0, 1)
        assert decoupled_condition(Family.BOUNDARY_X, p)
        rep = stability_report(p)
        bx = next(e for e in rep.entries if e.point.family is Family.BOUNDARY_X)
        assert bx.condition_holds is True
        assert bx.point.classification is not Classification.ATTRACTING

    def test_text_rendering_lists_every_point(self):
        p = ModelParams(2, 0.5, 1, 0, 0, 1)
        text = stability_report(p).to_text()
        for token in ("origin", "boundary_x", "boundary_y", "interior", "feasible"):
            assert token in text
