"""Core map, Jacobian and eigenvalue tests.

Derived expected values are computed by independent oracles inside the
tests: central finite differences for the Jacobian, numpy's polynomial
root finder for eigenvalues.
"""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ecokmap.dynamics import (
    Jacobian2,
    ModelParams,
    NonFiniteStepError,
    State,
    eigenvalues_2x2,
    jacobian,
    step,
)
from ecokmap.lyapunov import LyapunovResult, lambda_series, lyapunov_spectrum
from ecokmap.orbit import detect_period, iterate

rates = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
coeffs = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

params_st = st.builds(ModelParams, r1=rates, r2=rates, c1=coeffs, c2=coeffs, c3=coeffs, c4=coeffs)
states_st = st.builds(State, x=coords, y=coords)


def fd_jacobian(p: ModelParams, s: State, h: float = 1e-6) -> np.ndarray:
    """Independent oracle: central finite differences of step."""
    out = np.empty((2, 2))
    for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
        plus = step(p, State(s.x + dx, s.y + dy))
        minus = step(p, State(s.x - dx, s.y - dy))
        out[0, col] = (plus.x - minus.x) / (2 * h)
        out[1, col] = (plus.y - minus.y) / (2 * h)
    return out


class TestStep:
    def test_hand_evaluation(self):
        # 0.2*3*(1 - 0.36 - 0.01) = 0.6*0.63, 0.1*3*(1 - 0.12 - 0.25) = 0.3*0.63
        p = ModelParams(3, 3, 1.8, 0.1, 0.6, 2.5)
        nxt = step(p, State(0.2, 0.1))
        assert nxt.x == pytest.approx(0.378, rel=1e-12)
        assert nxt.y == pytest.approx(0.189, rel=1e-12)

    @given(params_st)
    def test_origin_is_fixed(self, p):
        assert step(p, State(0.0, 0.0)) == State(0.0, 0.0)

    @given(states_st, coeffs, coeffs, coeffs, coeffs)
    def test_zero_growth_annihilates(self, s, c1, c2, c3, c4):
        p = ModelParams(0.0, 0.0, c1, c2, c3, c4)
        assert step(p, s) == State(0.0, 0.0)

    def test_overflow_raises_instead_of_storing_nonfinite(self):
        p = ModelParams(4, 4, 1, 0, 0, 1)
        with pytest.raises(NonFiniteStepError):
            step(p, State(1e200, 0.0))

    @given(params_st, states_st, coords)
    def test_decoupled_x_ignores_y(self, p, s, other_y):
        from dataclasses import replace

        pd = replace(p, c2=0.0, c3=0.0)
        a = step(pd, s)
        b = step(pd, State(s.x, other_y))
        assert a.x == b.x

    @given(
        rates,
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_decoupled_x_conjugate_to_logistic(self, r, c1, u):
        # x-component with self-limitation c1 is the logistic map rescaled
        # by 1/c1: step(x).x == L_r(c1*x)/c1 with L_r(u) = r*u*(1-u).
        x = u / c1
        p = ModelParams(r, 1.0, c1, 0.0, 0.0, 1.0)
        got = step(p, State(x, 0.3)).x
        want = (r * u * (1.0 - u)) / c1
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestJacobian:
    def test_hand_example(self):
        p = ModelParams(3, 3, 1.8, 0.1, 0.6, 2.5)
        s = State(0.2, 0.1)
        j = jacobian(p, s)
        assert j.a11 == pytest.approx(0.81, rel=1e-12)
        assert j.a12 == pytest.approx(-0.06, rel=1e-12)
        assert j.a21 == pytest.approx(-0.18, rel=1e-12)
        assert j.a22 == pytest.approx(1.14, rel=1e-12)
        fd = fd_jacobian(p, s)
        got = np.array([[j.a11, j.a12], [j.a21, j.a22]])
        assert np.max(np.abs(got - fd)) <= 1e-6

    @given(params_st, states_st)
    @settings(max_examples=200)
    def test_matches_finite_differences(self, p, s):
        j = jacobian(p, s)
        fd = fd_jacobian(p, s)
        got = np.array([[j.a11, j.a12], [j.a21, j.a22]])
        assert np.max(np.abs(got - fd)) <= 1e-6

    @given(params_st)
    def test_origin_is_diagonal_of_growth_rates(self, p):
        j = jacobian(p, State(0.0, 0.0))
        assert (j.a11, j.a12, j.a21, j.a22) == (p.r1, 0.0, 0.0, p.r2)

    @given(params_st, states_st)
    def test_decoupled_offdiagonal_exactly_zero(self, p, s):
        from dataclasses import replace

        j = jacobian(replace(p, c2=0.0, c3=0.0), s)
        assert j.a12 == 0.0 and j.a21 == 0.0


entries = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
matrices_st = st.builds(Jacobian2, a11=entries, a12=entries, a21=entries, a22=entries)


class TestEigenvalues:
    def test_diagonal(self):
        assert eigenvalues_2x2(Jacobian2(2, 0, 0, 0.5)) == (2 + 0j, 0.5 + 0j)

    def test_rotation_gives_conjugate_pair(self):
        assert eigenvalues_2x2(Jacobian2(0, -1, 1, 0)) == (1j, -1j)

    def test_against_polynomial_root_oracle(self):
        # characteristic polynomial of the worked Jacobian example
        j = Jacobian2(0.81, -0.06, -0.18, 1.14)
        want = sorted(np.roots([1.0, -1.95, 0.9126]))
        e1, e2 = eigenvalues_2x2(j)
        assert e2.real == pytest.approx(want[0], rel=1e-12)
        assert e1.real == pytest.approx(want[1], rel=1e-12)
        assert e1.imag == 0.0 and e2.imag == 0.0
        assert e1.real == pytest.approx(1.17, rel=1e-12)
        assert e2.real == pytest.approx(0.78, rel=1e-12)

    @given(matrices_st)
    @settings(max_examples=300)
    # a12*a21 < 0: taking (a11 - a22)^2 + 4*a12*a21 here breaks the sum.
    @example(Jacobian2(1e6, 1e6, -988106.1875, -988106.1859860612))
    # a12*a21 > 0, roots 1e-6 apart: tr^2 - 4*det cancels here.
    @example(Jacobian2(0.7000002999999999, 0.3, 5.333333333333333e-13, 0.6999997))
    def test_trace_and_det_identities(self, j):
        e1, e2 = eigenvalues_2x2(j)
        tr, det = j.trace, j.det
        scale = max(1.0, abs(tr), abs(det))
        assert abs((e1 + e2).real - tr) <= 1e-12 * scale
        assert abs((e1 + e2).imag) <= 1e-12 * scale
        assert abs(e1 * e2 - det) <= 1e-12 * scale

    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3])
    def test_coupled_near_repeated_roots_against_decimal_oracle(self, gap):
        # Roots 0.7 +- gap/2 with a12*a21 > 0, as the map's Jacobian has at
        # every feasible state: tr^2 - 4*det would cancel, leaving each root
        # about eps*tr^2/gap off.  The oracle takes the float entries exactly.
        d, a12 = 0.6 * gap, 0.3
        j = Jacobian2(0.7 + d / 2, a12, (gap * gap - d * d) / (4 * a12), 0.7 - d / 2)
        with localcontext() as ctx:
            ctx.prec = 60
            a11, a12, a21, a22 = map(Decimal, (j.a11, j.a12, j.a21, j.a22))
            s = ((a11 - a22) ** 2 + 4 * a12 * a21).sqrt()
            want = [(a11 + a22 + s) / 2, (a11 + a22 - s) / 2]
            for e, w in zip(eigenvalues_2x2(j), want):
                assert e.imag == 0.0
                assert abs(Decimal(e.real) - w) <= Decimal("1e-14") * w

    @given(matrices_st)
    def test_ordering_by_modulus(self, j):
        e1, e2 = eigenvalues_2x2(j)
        assert abs(e1) >= abs(e2)


P, S0 = ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1)
RESULT = LyapunovResult(0.0, 0.0, np.zeros((1, 3)), 1, False)


class TestValidation:
    @pytest.mark.parametrize("field,value", [("r1", 4.5), ("r2", -0.1), ("r1", math.nan)])
    def test_growth_rate_domain(self, field, value):
        kw = dict(r1=3.0, r2=3.0, c1=1.0, c2=0.0, c3=0.0, c4=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kw)

    @pytest.mark.parametrize("field,value", [("c1", -1.0), ("c3", math.inf), ("c4", math.nan)])
    def test_coefficient_domain(self, field, value):
        kw = dict(r1=3.0, r2=3.0, c1=1.0, c2=0.0, c3=0.0, c4=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kw)

    @pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_state_rejects_nonfinite(self, x, y):
        with pytest.raises(ValueError):
            State(x, y)

    def test_jacobian_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Jacobian2(math.nan, 0, 0, 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ModelParams(3.0, 5.0, 1.0, 0.0, 0.0, 1.0), "r2 must be in [0, 4], got 5.0"),
            (lambda: ModelParams(3, 3, 1, -1, 0, 1), "c2 must be finite and >= 0, got -1.0"),
            (lambda: State(0.0, math.nan), "y must be finite, got nan"),
            (lambda: Jacobian2(1, 0, math.inf, 1), "a21 must be a finite Jacobian entry, got inf"),
            # Plain arguments of the engine name themselves as fields do.
            (lambda: iterate(P, S0, 2**63, 0), "n_total must be <= 2**63 - 1"),
            (lambda: iterate(P, S0, 100, -5), "n_transient must be >= 0, got -5"),
            (lambda: lyapunov_spectrum(P, S0, 0, 2**63), "n_iter must be <= 2**63 - 1"),
            (lambda: lambda_series(RESULT, 2**64), "stride must be <= 2**63 - 1"),
            (lambda: detect_period(np.zeros((2, 2)), 0), "max_period must be >= 1, got 0"),
        ],
        ids=[
            "ModelParams-rate", "ModelParams-coupling", "State", "Jacobian2",
            "iterate-n_total", "iterate-n_transient", "lyapunov_spectrum-n_iter",
            "lambda_series-stride", "detect_period-max_period",
        ],
    )
    def test_message_starts_with_field_name(self, build, message):
        # config names the offending key from the first word of the message.
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
