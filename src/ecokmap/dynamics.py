"""Core two-species competition map: single step, exact Jacobian, 2x2 eigenvalues.

The map acts on a population-density pair (x, y):

    x' = x * r1 * (1 - c1*x - c2*y)
    y' = y * r2 * (1 - c3*x - c4*y)

r1, r2 are logistic growth rates, c1/c4 self-limitation coefficients and
c2/c3 cross-species competition coefficients.  Everything else in the
package is built on the three functions defined here.  All operations are
pure; values are frozen dataclasses.  step and jacobian, like the
Python point loop, evaluate the formulas of step_xy and jacobian_xy.

Every engine constant lives here: the escape threshold, the exponent
floor, the step-budget defaults and minimum and the period tolerance.
So do the parameter DOMAIN, the input checks of fields, plain arguments
and CLI flags, and EscapedTooEarly, because this module needs no numpy:
the config parser and the CLI take them at import time without loading
the engine, and no engine module imports a sibling for a constant.
orbit, lyapunov and sweep re-export the constants.
A check's message starts with the name of the value it checks.
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
    "step_xy",
    "jacobian_xy",
    "eigenvalues_2x2",
    "R_MIN",
    "R_MAX",
    "SWEEPABLE_PARAMETERS",
    "DEFAULT_TRANSIENT",
    "DEFAULT_RECORD",
    "DEFAULT_STEPS",
    "SWEEP_STEPS",
    "MIN_STEPS",
    "MAX_COUNT",
    "PERIOD_TOL",
    "ESCAPE_THRESHOLD",
    "LAMBDA_FLOOR",
    "EscapedTooEarly",
    "DOMAIN",
    "NON_NEGATIVE",
    "check_float",
    "check_count",
    "check_floats",
    "check_at_least",
    "check_axis",
]

R_MIN = 0.0
R_MAX = 4.0
# Each parameter's (test, description) rule, False on NaN: logistic growth
# rates, and NON_NEGATIVE for the couplings (and the period tolerance).
_RATE = (lambda v: R_MIN <= v <= R_MAX, f"in [{R_MIN:g}, {R_MAX:g}]")
NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
DOMAIN = {"r1": _RATE, "r2": _RATE, **dict.fromkeys(("c1", "c2", "c3", "c4"), NON_NEGATIVE)}
SWEEPABLE_PARAMETERS = tuple(DOMAIN)

# Step budgets: transient and recorded tail of an orbit, Lyapunov steps of
# a single run and the cheaper per-point budget inside parameter sweeps.
DEFAULT_TRANSIENT = 400
DEFAULT_RECORD = 100
DEFAULT_STEPS = 100_000
SWEEP_STEPS = 20_000
# Fewest Lyapunov steps a run needs, both as a budget and as steps
# completed before an escape.
MIN_STEPS = 100
# Largest count (a step budget or a number of grid points): the compiled
# point loop counts steps in signed 64-bit integers.
MAX_COUNT = 2**63 - 1
# Relative tolerance of period detection.
PERIOD_TOL = 1e-6
# A state has escaped once either component's magnitude exceeds this (or
# is not finite): the point loop's one rule besides the map.
ESCAPE_THRESHOLD = 1e6
# Reported exponents are floored here; a super-stable orbit (zero
# eigenvalue somewhere along it) has a true exponent of -inf.
LAMBDA_FLOOR = -50.0


class NonFiniteStepError(ArithmeticError):
    """Raised when a map evaluation overflows to a non-finite value.

    Escape is signalled, never stored: `State` refuses NaN/inf, so callers
    that expect orbits to blow up (the orbit module) treat this as an
    outcome rather than letting NaNs propagate.
    """


class EscapedTooEarly(RuntimeError):
    """Orbit escaped before MIN_STEPS post-transient steps completed."""


def check_float(name: str, value, rule: tuple) -> float:
    """value as a float, refused unless rule's (test, description) holds."""
    test, what = rule
    v = float(value)
    if not test(v):
        raise ValueError(f"{name} must be {what}, got {v!r}")
    return v


def check_count(name: str, value: int, least: int) -> None:
    """Refuse a count below least or above MAX_COUNT (naming no huge digits)."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be <= 2**63 - 1")


def check_floats(obj, rule: tuple, *names: str) -> None:
    """check_float each named field of obj (each value of a non-empty tuple), and store it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, (tuple, list)):
            if not value:
                raise ValueError(f"{name} must not be empty")
            value = tuple(check_float(name, v, rule) for v in value)
        else:
            value = check_float(name, value, rule)
        object.__setattr__(obj, name, value)


def check_at_least(obj, **least: int) -> None:
    """check_count each named count field of obj against its bound."""
    for name, bound in least.items():
        check_count(name, getattr(obj, name), bound)


def check_axis(obj, parameter: str, lo: str, hi: str) -> None:
    """Coerce, test against DOMAIN[parameter] and store an axis's ends lo < hi."""
    if parameter not in DOMAIN:
        raise ValueError(f"parameter must be one of {', '.join(DOMAIN)}, got {parameter!r}")
    test, what = DOMAIN[parameter]
    check_floats(obj, (test, f"{what} for {parameter}"), lo, hi)
    a, b = getattr(obj, lo), getattr(obj, hi)
    if not a < b:
        raise ValueError(f"{lo} must be < {hi}, got {a!r} >= {b!r}")


@dataclass(frozen=True)
class ModelParams:
    """The six map parameters, each checked against its domain at
    construction: 0 <= r1, r2 <= 4 and c1..c4 finite and >= 0."""

    r1: float
    r2: float
    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name, rule in DOMAIN.items():
            check_floats(self, rule, name)


@dataclass(frozen=True)
class State:
    """Population densities of the two species at one generation."""

    x: float
    y: float

    def __post_init__(self):
        check_floats(self, (math.isfinite, "finite"), "x", "y")


@dataclass(frozen=True)
class Jacobian2:
    """Entries of the 2x2 derivative matrix of the map at one state."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        check_floats(self, (math.isfinite, "a finite Jacobian entry"), "a11", "a12", "a21", "a22")

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


def step_xy(r1, r2, c1, c2, c3, c4, x, y) -> tuple[float, float]:
    """The map's raw value at (x, y) on plain floats."""
    return x * r1 * (1.0 - c1 * x - c2 * y), y * r2 * (1.0 - c3 * x - c4 * y)


def jacobian_xy(r1, r2, c1, c2, c3, c4, x, y) -> tuple[float, float, float, float]:
    """The entries (a11, a12, a21, a22) of step_xy's derivative at (x, y)."""
    return (
        r1 * (1.0 - 2.0 * c1 * x - c2 * y),
        -r1 * c2 * x,
        -r2 * c3 * y,
        r2 * (1.0 - c3 * x - 2.0 * c4 * y),
    )


def step(p: ModelParams, s: State) -> State:
    """Advance one generation.

    Computes the raw algebraic value of the map, with no clamping or
    projection onto the positive quadrant; negative densities are carried
    through as-is so that escape can be observed honestly.  Raises
    NonFiniteStepError if the result overflows.
    """
    xn, yn = step_xy(p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, s.x, s.y)
    if not (math.isfinite(xn) and math.isfinite(yn)):
        raise NonFiniteStepError(f"map escaped to non-finite value from ({s.x!r}, {s.y!r})")
    return State(xn, yn)


def jacobian(p: ModelParams, s: State) -> Jacobian2:
    """Exact derivative matrix of `step` at state `s`."""
    return Jacobian2(*jacobian_xy(p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, s.x, s.y))


def eigenvalues_2x2(j: Jacobian2) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix via the trace/determinant quadratic.

    Returned ordered by descending modulus, ties broken by descending real
    part, then descending imaginary part (so a conjugate pair comes back as
    (a+bi, a-bi) with b > 0).  The real case uses the numerically stable
    form of the quadratic formula (larger root first, smaller as det/root)
    to keep the product of the eigenvalues faithful to the determinant.
    Where a12*a21 >= 0 (every triangular matrix, and the map's Jacobian at
    every feasible state) the discriminant is (a11 - a22)^2 + 4*a12*a21,
    which cannot cancel as tr^2 - 4*det does for nearly repeated roots;
    elsewhere tr^2 - 4*det keeps the roots' sum and product consistent.
    """
    tr, det = j.trace, j.det
    off = 4.0 * j.a12 * j.a21
    if off >= 0.0:
        d = j.a11 - j.a22
        disc = scale = d * d + off
    else:
        disc, scale = tr * tr - 4.0 * det, tr * tr + 4.0 * abs(det)
    # Below its rounding noise the sign of the discriminant is not
    # resolvable in double precision; a near-repeated root would otherwise
    # acquire a spurious ~1e-9 imaginary part.
    if abs(disc) <= 4.0 * 2.220446049250313e-16 * scale:
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
