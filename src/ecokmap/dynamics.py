"""Core two-species competition map: single step, exact Jacobian, 2x2 eigenvalues.

The map acts on a population-density pair (x, y):

    x' = x * r1 * (1 - c1*x - c2*y)
    y' = y * r2 * (1 - c3*x - c4*y)

r1, r2 are logistic growth rates, c1/c4 self-limitation coefficients and
c2/c3 cross-species competition coefficients.  Everything else in the
package is built on the three functions defined here.  All operations are
pure; values are frozen dataclasses.

The step-budget defaults and minimum, the period tolerance, the
sweepable parameter names and EscapedTooEarly also live here, because
this module needs no numpy: the config parser and the CLI take them at
import time without loading the engine.  orbit, lyapunov and sweep
re-export them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "State",
    "Jacobian2",
    "NonFiniteStepError",
    "step",
    "jacobian",
    "eigenvalues_2x2",
    "R_MIN",
    "R_MAX",
    "SWEEPABLE_PARAMETERS",
    "DEFAULT_TRANSIENT",
    "DEFAULT_RECORD",
    "DEFAULT_STEPS",
    "SWEEP_STEPS",
    "MIN_STEPS",
    "PERIOD_TOL",
    "EscapedTooEarly",
]

R_MIN = 0.0
R_MAX = 4.0
SWEEPABLE_PARAMETERS = ("r1", "r2", "c1", "c2", "c3", "c4")

# Step budgets: transient and recorded tail of an orbit, Lyapunov steps of
# a single run and the cheaper per-point budget inside parameter sweeps.
DEFAULT_TRANSIENT = 400
DEFAULT_RECORD = 100
DEFAULT_STEPS = 100_000
SWEEP_STEPS = 20_000
# Fewest Lyapunov steps a run needs, both as a budget and as steps
# completed before an escape.
MIN_STEPS = 100
# Relative tolerance of period detection.
PERIOD_TOL = 1e-6


class NonFiniteStepError(ArithmeticError):
    """Raised when a map evaluation overflows to a non-finite value.

    Escape is signalled, never stored: `State` refuses NaN/inf, so callers
    that expect orbits to blow up (the orbit module) treat this as an
    outcome rather than letting NaNs propagate.
    """


class EscapedTooEarly(RuntimeError):
    """Orbit escaped before MIN_STEPS post-transient steps completed."""


@dataclass(frozen=True)
class ModelParams:
    """The six map parameters.

    Growth rates are logistic in character, so 0 <= r1, r2 <= 4 is enforced
    at construction; the four competition coefficients only need to be
    finite and non-negative.
    """

    r1: float
    r2: float
    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("r1", "r2"):
            v = float(getattr(self, name))
            if not (R_MIN <= v <= R_MAX):  # also rejects NaN
                raise ValueError(f"{name} must be in [{R_MIN:g}, {R_MAX:g}], got {v!r}")
            object.__setattr__(self, name, v)
        for name in ("c1", "c2", "c3", "c4"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class State:
    """Population densities of the two species at one generation."""

    x: float
    y: float

    def __post_init__(self):
        for name in ("x", "y"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"state component {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Jacobian2:
    """Entries of the 2x2 derivative matrix of the map at one state."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"Jacobian entry {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


def step(p: ModelParams, s: State) -> State:
    """Advance one generation.

    Computes the raw algebraic value of the map, with no clamping or
    projection onto the positive quadrant; negative densities are carried
    through as-is so that escape can be observed honestly.  Raises
    NonFiniteStepError if the result overflows.
    """
    x, y = s.x, s.y
    xn = x * p.r1 * (1.0 - p.c1 * x - p.c2 * y)
    yn = y * p.r2 * (1.0 - p.c3 * x - p.c4 * y)
    if not (math.isfinite(xn) and math.isfinite(yn)):
        raise NonFiniteStepError(f"map escaped to non-finite value from ({x!r}, {y!r})")
    return State(xn, yn)


def jacobian(p: ModelParams, s: State) -> Jacobian2:
    """Exact derivative matrix of `step` at state `s`."""
    x, y = s.x, s.y
    return Jacobian2(
        a11=p.r1 * (1.0 - 2.0 * p.c1 * x - p.c2 * y),
        a12=-p.r1 * p.c2 * x,
        a21=-p.r2 * p.c3 * y,
        a22=p.r2 * (1.0 - p.c3 * x - 2.0 * p.c4 * y),
    )


def eigenvalues_2x2(j: Jacobian2) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix via the trace/determinant quadratic.

    Returned ordered by descending modulus, ties broken by descending real
    part, then descending imaginary part (so a conjugate pair comes back as
    (a+bi, a-bi) with b > 0).  The real case uses the numerically stable
    form of the quadratic formula (larger root first, smaller as det/root)
    to keep the product of the eigenvalues faithful to the determinant.
    """
    tr = j.trace
    det = j.det
    disc = tr * tr - 4.0 * det
    # Below the cancellation noise of tr^2 - 4*det the sign of the
    # discriminant is not resolvable in double precision; a near-repeated
    # root would otherwise acquire a spurious ~1e-9 imaginary part.
    noise = 4.0 * 2.220446049250313e-16 * (tr * tr + 4.0 * abs(det))
    if abs(disc) <= noise:
        e1 = e2 = complex(0.5 * tr)
    elif disc > 0.0:
        s = math.sqrt(disc)
        big = 0.5 * (tr + s) if tr >= 0.0 else 0.5 * (tr - s)
        small = det / big if big != 0.0 else 0.0
        e1, e2 = complex(big), complex(small)
    else:
        half_im = 0.5 * math.sqrt(-disc)
        e1 = complex(0.5 * tr, half_im)
        e2 = complex(0.5 * tr, -half_im)

    def key(e: complex):
        return (abs(e), e.real, e.imag)

    lo, hi = sorted((e1, e2), key=key)
    return hi, lo
