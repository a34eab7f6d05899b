"""Closed-form fixed points of the map and their eigenvalue classification.

Four families exist: the origin, one boundary point per axis (the
single-species equilibrium of that axis' logistic factor), and an interior
coexistence point from a 2x2 linear system.  Classification is derived
from Jacobian eigenvalue moduli only; the classical closed-form stability
inequalities for the decoupled case are reported side by side in
stability_report as a cross-check rather than used as the criterion.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .dynamics import (
    Jacobian2, ModelParams, NonFiniteStepError, State, eigenvalues_2x2, jacobian_xy, step,
)

__all__ = [
    "Family",
    "Classification",
    "FixedPoint",
    "StabilityEntry",
    "StabilityReport",
    "fixed_points",
    "stability_report",
    "interior_determinant",
    "interior_is_degenerate",
    "CLASSIFICATION_TOL",
    "DEGENERACY_REL_TOL",
    "RESIDUAL_TOL",
]

# |lambda| within this band of 1 counts as non-hyperbolic.
CLASSIFICATION_TOL = 1e-9
# Relative threshold below which the interior linear system is degenerate.
DEGENERACY_REL_TOL = 1e-12
# Every returned point must satisfy ||step(p, pt) - pt||_inf within this
# (scaled by 1 + ||pt||_inf).
RESIDUAL_TOL = 1e-10


class Family(enum.Enum):
    ORIGIN = "origin"
    BOUNDARY_X = "boundary_x"  # y* = 0
    BOUNDARY_Y = "boundary_y"  # x* = 0
    INTERIOR = "interior"


class Classification(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non-hyperbolic"


@dataclass(frozen=True)
class FixedPoint:
    """An equilibrium with its eigenvalues and stability classification.

    feasible is False for points with a negative coordinate (outside
    population space); they are still reported because sweeps routinely
    cross feasibility boundaries.
    """

    location: State
    family: Family
    eigenvalues: tuple[complex, complex]
    classification: Classification
    feasible: bool

    @property
    def moduli(self) -> tuple[float, float]:
        return abs(self.eigenvalues[0]), abs(self.eigenvalues[1])


def _classify(eigs: tuple[complex, complex]) -> Classification:
    m1, m2 = abs(eigs[0]), abs(eigs[1])
    lo, hi = 1.0 - CLASSIFICATION_TOL, 1.0 + CLASSIFICATION_TOL
    if m1 < lo and m2 < lo:
        return Classification.ATTRACTING
    if m1 > hi and m2 > hi:
        return Classification.REPELLING
    if (m1 > hi and m2 < lo) or (m2 > hi and m1 < lo):
        return Classification.SADDLE
    return Classification.NON_HYPERBOLIC


def _make_point(p: ModelParams, x: float, y: float, family: Family) -> FixedPoint:
    """The fixed point of family at (x, y).  Raises NonFiniteStepError
    where the closed-form location or a Jacobian entry there overflowed."""
    entries = jacobian_xy(p.r1, p.r2, p.c1, p.c2, p.c3, p.c4, x, y)
    if not all(map(math.isfinite, (x, y, *entries))):
        raise NonFiniteStepError(
            f"{family.value} fixed point at ({x!r}, {y!r}) overflows: "
            "its location or Jacobian is not finite"
        )
    eigs = eigenvalues_2x2(Jacobian2(*entries))
    return FixedPoint(
        location=State(x, y),
        family=family,
        eigenvalues=eigs,
        classification=_classify(eigs),
        feasible=(x >= 0.0 and y >= 0.0),
    )


def interior_determinant(p: ModelParams) -> float:
    """Determinant c1*c4 - c2*c3 of the interior linear system."""
    return p.c1 * p.c4 - p.c2 * p.c3


def interior_is_degenerate(p: ModelParams) -> bool:
    det = interior_determinant(p)
    scale = max(1.0, abs(p.c1 * p.c4), abs(p.c2 * p.c3))
    return abs(det) <= DEGENERACY_REL_TOL * scale


def fixed_points(p: ModelParams) -> list[FixedPoint]:
    """All fixed points of the map for parameters p.

    The origin always exists.  The boundary point on each axis solves
    r*(1 - c*u) = 1, i.e. u = (r - 1)/(c*r); the family is skipped when
    the formula is singular (r = 0 or c = 0) or lands back on the origin
    (r = 1).  The interior point solves c1*x + c2*y = 1 - 1/r1,
    c3*x + c4*y = 1 - 1/r2 and is skipped when either growth rate is zero
    or the determinant c1*c4 - c2*c3 is degenerate.  Negative-coordinate
    points are returned with feasible=False.
    """
    pts = [_make_point(p, 0.0, 0.0, Family.ORIGIN)]
    if p.r1 != 0.0 and p.c1 != 0.0 and p.r1 != 1.0:
        pts.append(_make_point(p, (p.r1 - 1.0) / (p.c1 * p.r1), 0.0, Family.BOUNDARY_X))
    if p.r2 != 0.0 and p.c4 != 0.0 and p.r2 != 1.0:
        pts.append(_make_point(p, 0.0, (p.r2 - 1.0) / (p.c4 * p.r2), Family.BOUNDARY_Y))
    if p.r1 != 0.0 and p.r2 != 0.0 and not interior_is_degenerate(p):
        det = interior_determinant(p)
        b1 = 1.0 - 1.0 / p.r1
        b2 = 1.0 - 1.0 / p.r2
        x = (b1 * p.c4 - p.c2 * b2) / det
        y = (p.c1 * b2 - b1 * p.c3) / det
        pts.append(_make_point(p, x, y, Family.INTERIOR))
    return pts


def residual(p: ModelParams, pt: FixedPoint) -> float:
    """Scaled sup-norm residual ||step(p, x*) - x*||_inf / (1 + ||x*||_inf)."""
    loc = pt.location
    nxt = step(p, loc)
    num = max(abs(nxt.x - loc.x), abs(nxt.y - loc.y))
    return num / (1.0 + max(abs(loc.x), abs(loc.y)))


# Classical closed-form stability conditions for the decoupled case
# (c2 = c3 = 0), one inequality set per family.  They are surfaced in the
# report next to the eigenvalue classification; the two do not coincide
# for the boundary and interior rows, and no attempt is made to reconcile
# them here.
_DECOUPLED_ROW = {
    Family.ORIGIN: 1,
    Family.BOUNDARY_X: 2,
    Family.BOUNDARY_Y: 3,
    Family.INTERIOR: 4,
}


def decoupled_condition(family: Family, p: ModelParams) -> bool:
    if family is Family.ORIGIN:
        return 0.0 < p.r1 < 1.0 and 0.0 < p.r2 < 1.0
    if family is Family.BOUNDARY_X:
        return p.r2 < 1.0 and p.r1 - 2.0 < p.c1 * p.r1
    if family is Family.BOUNDARY_Y:
        return p.r1 < 1.0 and p.r2 - 2.0 < p.c4 * p.r2
    return p.r1 - 1.0 < p.c1 * p.r1 and p.r2 - 1.0 < p.c4 * p.r2


@dataclass(frozen=True)
class StabilityEntry:
    point: FixedPoint
    residual: float
    # Only populated in the decoupled case (c2 = c3 = 0):
    condition_row: int | None
    condition_holds: bool | None


@dataclass(frozen=True)
class StabilityReport:
    params: ModelParams
    decoupled: bool
    interior_degenerate: bool
    entries: tuple[StabilityEntry, ...]

    def to_text(self) -> str:
        p = self.params
        lines = [
            "fixed-point stability report",
            f"params: r1={p.r1:g} r2={p.r2:g} c1={p.c1:g} c2={p.c2:g} c3={p.c3:g} c4={p.c4:g}",
            f"decoupled (c2 = c3 = 0): {'yes' if self.decoupled else 'no'}",
            f"interior system determinant c1*c4 - c2*c3 = {interior_determinant(p):.6g}"
            + (" (degenerate: interior family absent)" if self.interior_degenerate else ""),
            "",
        ]
        header = (
            f"{'family':<11} {'location':<28} {'eigenvalues':<34} "
            f"{'moduli':<20} {'class':<15} {'feasible':<9} {'residual':<10}"
        )
        if self.decoupled:
            header += " decoupled-condition"
        lines.append(header)
        lines.append("-" * len(header))
        for e in self.entries:
            fp = e.point
            loc = f"({fp.location.x:.6g}, {fp.location.y:.6g})"
            eig = ", ".join(_fmt_complex(v) for v in fp.eigenvalues)
            mod = f"{fp.moduli[0]:.6g}, {fp.moduli[1]:.6g}"
            row = (
                f"{fp.family.value:<11} {loc:<28} {eig:<34} "
                f"{mod:<20} {fp.classification.value:<15} "
                f"{str(fp.feasible).lower():<9} {e.residual:<10.2e}"
            )
            if self.decoupled:
                row += f" row {e.condition_row}: {str(e.condition_holds).lower()}"
            lines.append(row)
        lines.append("")
        return "\n".join(lines)


def _fmt_complex(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:.6g}"
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.6g}{sign}{abs(v.imag):.6g}i"


def stability_report(p: ModelParams) -> StabilityReport:
    """Full classification of every fixed point, with residual diagnostics.

    In the decoupled case each entry also states whether the classical
    closed-form condition for its family holds for these parameters, so
    disagreements with the eigenvalue criterion are surfaced, not hidden.
    """
    decoupled = p.c2 == 0.0 and p.c3 == 0.0
    entries = []
    for fp in fixed_points(p):
        row = _DECOUPLED_ROW[fp.family] if decoupled else None
        holds = decoupled_condition(fp.family, p) if decoupled else None
        entries.append(
            StabilityEntry(
                point=fp, residual=residual(p, fp), condition_row=row, condition_holds=holds
            )
        )
    return StabilityReport(
        params=p,
        decoupled=decoupled,
        interior_degenerate=interior_is_degenerate(p),
        entries=tuple(entries),
    )
