"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Expected values come from independent oracles computed in place:
finite differences, closed-form logistic results, a from-scratch scalar
logistic simulation, and long-run iteration.
"""
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ecokmap as ek
from ecokmap.csvio import read_csv, render_csv
from ecokmap.dynamics import ModelParams, State, jacobian, step
from ecokmap.equilibria import Classification, Family, fixed_points, residual
from ecokmap.lyapunov import LAMBDA_FLOOR
from ecokmap.orbit import MAX_PERIOD, Aperiodic, Settled, iterate
from ecokmap.svgplot import count_data_elements

REF_BASE = ModelParams(3.0, 3.0, 1.8, 0.1, 0.6, 2.5)
S0 = State(0.2, 0.1)


def ok(n, detail):
    print(f"\nPASS criterion {n}: {detail}")


def reference_sweep(base):
    """A 241-point r2 sweep over [2.8, 4.0] at the reference budgets."""
    return ek.bifurcation_sweep(ek.SweepSpec(
        base=base, parameter="r2", lo=2.8, hi=4.0, n_points=241, s0=S0,
        n_transient=400, n_record=100, n_lyap=20_000,
    ))


@pytest.fixture(scope="module")
def fig1_sweeps():
    return {c2: reference_sweep(replace(REF_BASE, c2=c2)) for c2 in (0.1, 0.2, 0.3)}


@pytest.fixture(scope="module")
def fig2_sweeps():
    return {cc: reference_sweep(replace(REF_BASE, c2=cc, c3=cc)) for cc in (0.5, 0.6, 0.7)}


def test_criterion_1_jacobian_vs_finite_differences():
    rng = np.random.default_rng(101)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        p = ModelParams(*rng.uniform(0, 4, 2), *rng.uniform(0, 3, 4))
        s = State(*rng.uniform(-2, 2, 2))
        j = jacobian(p, s)
        got = np.array([[j.a11, j.a12], [j.a21, j.a22]])
        fd = np.empty((2, 2))
        for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            plus = step(p, State(s.x + dx, s.y + dy))
            minus = step(p, State(s.x - dx, s.y - dy))
            fd[0, col] = (plus.x - minus.x) / (2 * h)
            fd[1, col] = (plus.y - minus.y) / (2 * h)
        worst = max(worst, float(np.max(np.abs(got - fd))))
    assert worst <= 1e-6
    ok(1, f"jacobian matches central differences over 1000 draws, worst |delta| = {worst:.2e}")


def test_criterion_2_fixed_point_residuals_and_decoupled_interior():
    rng = np.random.default_rng(202)
    worst = 0.0
    n_points = 0
    done = 0
    while done < 1000:
        p = ModelParams(*rng.uniform(0.2, 4, 2), *rng.uniform(0.05, 3, 4))
        # the 1e-10 residual is certifiable only away from the degenerate
        # interior sliver, where evaluation noise alone exceeds it
        if abs(p.c1 * p.c4 - p.c2 * p.c3) < 1e-3:
            continue
        done += 1
        for fp in fixed_points(p):
            n_points += 1
            worst = max(worst, residual(p, fp))
    assert worst <= 1e-10

    worst_eig = 0.0
    worst_loc = 0.0
    for _ in range(1000):
        r1, r2 = rng.uniform(0.2, 4, 2)
        c1, c4 = rng.uniform(0.2, 3, 2)
        p = ModelParams(r1, r2, c1, 0.0, 0.0, c4)
        it = next(fp for fp in fixed_points(p) if fp.family is Family.INTERIOR)
        worst_loc = max(
            worst_loc,
            abs(it.location.x - (r1 - 1) / (c1 * r1)),
            abs(it.location.y - (r2 - 1) / (c4 * r2)),
        )
        got = sorted(e.real for e in it.eigenvalues)
        want = sorted((2 - r1, 2 - r2))
        worst_eig = max(
            worst_eig,
            abs(got[0] - want[0]),
            abs(got[1] - want[1]),
            abs(it.eigenvalues[0].imag),
            abs(it.eigenvalues[1].imag),
        )
    assert worst_eig <= 1e-12
    assert worst_loc <= 1e-12
    ok(
        2,
        f"{n_points} fixed points over 1000 param sets, worst residual {worst:.2e}; "
        f"decoupled interior eigenvalues off (2-r1, 2-r2) by at most {worst_eig:.2e}",
    )


def log_det_mean(p, s0, n_transient, n):
    states = iterate(p, s0, n_transient - 1 + n, n_transient - 1).tail
    return math.fsum(math.log(abs(jacobian(p, State(x, y)).det)) for x, y in states.tolist()) / n


def test_criterion_3_lyapunov_analytic_oracles_and_sum_rule():
    full = ModelParams(2.5, 4.0, 1, 0, 0, 1)
    res_full = ek.lyapunov_spectrum(full, State(0.2, 0.3), 400, 100_000)
    err_full = abs(res_full.lambda1 - math.log(2))
    assert err_full <= 0.01

    cyc = ModelParams(2, 3.2, 1, 0, 0, 1)
    res_cyc = ek.lyapunov_spectrum(cyc, State(0.2, 0.1), 400, 100_000)
    # 2-cycle multiplier of the r = 3.2 logistic map: |4 + 2r - r^2| = 0.16
    err_cyc = abs(res_cyc.lambda1 - math.log(0.16) / 2)
    assert err_cyc <= 0.01

    worst_sum = 0.0
    for p, s0 in (
        (full, State(0.2, 0.3)),
        (cyc, State(0.2, 0.1)),
        (ModelParams(3.0, 3.9, 1.8, 0.6, 0.6, 2.5), State(0.2, 0.1)),
    ):
        r = ek.lyapunov_spectrum(p, s0, 400, 20_000)
        gap = abs((r.lambda1 + r.lambda2) - log_det_mean(p, s0, 400, 20_000))
        worst_sum = max(worst_sum, gap)
    assert worst_sum <= 1e-8
    ok(
        3,
        f"lambda(r=4) = {res_full.lambda1:.4f} (ln 2 off {err_full:.1e}), "
        f"lambda(r=3.2) = {res_cyc.lambda1:.4f} (oracle off {err_cyc:.1e}), "
        f"sum rule gap <= {worst_sum:.1e}",
    )


def scalar_logistic_periods(r_values, x0, n_transient, n_record, tol=1e-6, max_period=64):
    """Independent 1-D oracle: plain-Python logistic simulation and a
    from-scratch minimal-period scan."""
    out = []
    for r in r_values:
        x = x0
        for _ in range(n_transient):
            x = r * x * (1 - x)
        tail = []
        for _ in range(n_record):
            x = r * x * (1 - x)
            tail.append(x)
        period = None
        for k in range(1, max_period + 1):
            if all(
                abs(tail[i] - tail[i + k]) <= tol * (1 + abs(tail[i]))
                for i in range(len(tail) - k)
            ):
                period = k
                break
        out.append(period)
    return out


def transition(grid, labels, a, b):
    """Midpoint between the last grid value labeled a and the first labeled b."""
    last_a = max(g for g, k in zip(grid, labels) if k == a)
    first_b = min(g for g, k in zip(grid, labels) if k == b)
    assert last_a < first_b
    return 0.5 * (last_a + first_b)


def test_criterion_4_period_doubling_cascade():
    base = ModelParams(2.0, 3.0, 1.0, 0.0, 0.0, 1.0)
    spec = ek.SweepSpec(
        base=base, parameter="r2", lo=2.8, hi=4.0, n_points=241,
        s0=State(0.45, 0.2), n_transient=5000, n_record=200, n_lyap=5000,
    )
    res = ek.bifurcation_sweep(spec)
    labels = [
        pt.orbit.outcome.period if isinstance(pt.orbit.outcome, Settled) else None
        for pt in res.points
    ]
    t12 = transition(res.grid, labels, 1, 2)
    t24 = transition(res.grid, labels, 2, 4)
    assert abs(t12 - 3.0) <= 0.01
    assert abs(t24 - (1 + math.sqrt(6))) <= 0.01

    oracle = scalar_logistic_periods(res.grid, 0.2, 5000, 200)
    o12 = transition(res.grid, oracle, 1, 2)
    o24 = transition(res.grid, oracle, 2, 4)
    step_size = res.grid[1] - res.grid[0]
    assert abs(t12 - o12) <= step_size
    assert abs(t24 - o24) <= step_size
    ok(
        4,
        f"period 1->2 at r2 = {t12:.4f} (target 3.0), 2->4 at {t24:.4f} "
        f"(target {1 + math.sqrt(6):.4f}); independent 1-D oracle agrees",
    )


def test_criterion_5_regular_regime_for_separated_couplings(fig1_sweeps):
    details = []
    for c2, res in fig1_sweeps.items():
        n_pos = sum(1 for pt in res.points if pt.lambda1 > 0.05)
        n_esc = sum(1 for pt in res.points if math.isnan(pt.lambda1))
        frac = n_pos / len(res.points)
        details.append(f"c2={c2}: {n_pos}/241 points with lambda1 > 0.05 ({frac:.1%})")
        assert frac <= 0.10, (
            f"discrepancy with the regular-regime claim at c2={c2}: "
            f"{n_pos}/241 grid points have lambda1 > 0.05"
        )
        assert n_esc == 0
    ok(5, "; ".join(details))


def test_criterion_6_chaos_for_close_couplings(fig2_sweeps):
    details = []
    for cc, res in fig2_sweeps.items():
        chaotic = [
            pt.value
            for pt in res.points
            if pt.lambda1 > 0.1 and pt.orbit.outcome == Aperiodic()
        ]
        assert len(chaotic) >= 3, f"no chaotic window found for c2=c3={cc}"
        details.append(
            f"c2=c3={cc}: lambda1 > 0.1 and aperiodic on {len(chaotic)} points "
            f"in r2 [{min(chaotic):.3f}, {max(chaotic):.3f}]"
        )

    spec = ek.ChaosGridSpec(
        base=replace(REF_BASE, r2=3.9), c2_lo=0.1, c2_hi=0.9, c2_points=17,
        c3_lo=0.5, c3_hi=0.9, c3_points=9, r2_values=(3.9,), s0=S0,
        n_transient=400, n_record=100, n_lyap=20_000,
    )
    grid = ek.chaos_grid(spec)
    near = [c.lambda1 for c in grid.cells if abs(c.c2 - c.c3) <= 0.1 + 1e-9]
    far = [c.lambda1 for c in grid.cells if c.c3 - c.c2 >= 0.3 - 1e-9]
    assert max(near) > 0.1
    assert max(far) < 0.05
    assert np.mean(near) > np.mean(far)
    details.append(
        f"grid at r2=3.9: near-diagonal max lambda1 = {max(near):.3f} vs "
        f"separated-couplings max {max(far):.3f}"
    )
    ok(6, "; ".join(details))


def test_criterion_7_classification_simulation_coherence(fig1_sweeps, fig2_sweeps):
    rng = np.random.default_rng(707)
    tested = 0
    tries = 0
    while tested < 20:
        tries += 1
        assert tries < 5000
        p = ModelParams(*rng.uniform(0, 4, 2), *rng.uniform(0.05, 3, 4))
        target = next(
            (
                fp
                for fp in fixed_points(p)
                if fp.classification is Classification.ATTRACTING and max(fp.moduli) < 0.95
            ),
            None,
        )
        if target is None:
            continue
        tested += 1
        for _ in range(10):
            s = State(
                target.location.x + rng.uniform(-1e-3, 1e-3),
                target.location.y + rng.uniform(-1e-3, 1e-3),
            )
            rec = iterate(p, s, 10_000, 9_999)
            end_x, end_y = rec.tail[-1]
            dist = max(abs(end_x - target.location.x), abs(end_y - target.location.y))
            assert dist <= 1e-6, f"no convergence to attracting point for {p}"

    n_settled = 0
    for res in list(fig1_sweeps.values()) + list(fig2_sweeps.values()):
        for pt in res.points:
            if isinstance(pt.orbit.outcome, Settled) and abs(pt.lambda1) > 1e-2:
                n_settled += 1
                assert pt.lambda1 < 0, (
                    f"settled orbit with positive exponent at "
                    f"{res.spec.parameter}={pt.value}"
                )
    ok(
        7,
        f"20 attracting points re-attract 10 perturbed starts each "
        f"({tries} parameter draws); lambda1 < 0 on {n_settled} settled sweep points",
    )


def cycle_exponent(p, cycle):
    """Exact largest exponent of a k-cycle: (1/k) log of the spectral radius
    of the Jacobian product around it, floored like a reported lambda1."""
    product = np.eye(2)
    for x, y in cycle:
        j = jacobian(p, State(x, y))
        product = np.array([[j.a11, j.a12], [j.a21, j.a22]]) @ product
    mu = float(np.max(np.abs(np.linalg.eigvals(product))))
    return max(LAMBDA_FLOOR, math.log(mu) / len(cycle)) if mu > 0 else LAMBDA_FLOOR


def test_settled_points_carry_their_cycle_exponent(fig1_sweeps, fig2_sweeps):
    # A 20 000-step estimate carries an O(1/n) start-up error; measured at
    # most 3.6e-4 over the 1185 settled points of the six reference sweeps.
    eps = 1e-3
    errors = []
    for res in (*fig1_sweeps.values(), *fig2_sweeps.values()):
        for pt in res.points:
            if isinstance(pt.orbit.outcome, Settled):
                p = replace(res.spec.base, **{res.spec.parameter: pt.value})
                exact = cycle_exponent(p, pt.orbit.tail[: pt.orbit.outcome.period])
                errors.append((abs(exact - pt.lambda1), pt.value, res.spec.base))
    worst = max(errors, key=lambda e: e[0])
    assert worst[0] <= eps, f"lambda1 off the exact cycle exponent by {worst[0]:.2e} at {worst[1:]}"
    ok(
        "settled-exponent",
        f"{len(errors)} settled sweep points within {eps:g} of their exact cycle exponent, "
        f"median error {np.median([e[0] for e in errors]):.1e}, worst {worst[0]:.1e}",
    )


def settled_labels(points):
    return [pt.orbit.outcome.period if isinstance(pt.orbit.outcome, Settled) else None for pt in points]


def unsettled(res):
    """Grid values labelled aperiodic whose lambda1 says the orbit is regular."""
    return [
        round(float(pt.value), 6)
        for pt in res.points
        if pt.orbit.outcome == Aperiodic() and pt.lambda1 < -1e-3
    ]


def test_flip_at_r2_3_on_the_reference_sweeps(fig1_sweeps, fig2_sweeps):
    # With r1 = r2 = r the interior fixed point has the eigenvalue 2 - r
    # exactly, for any couplings (tests/test_equilibria.py::TestFlipOracle),
    # so every reference sweep (r1 = 3) flips from period 1 to period 2 at
    # r2 = 3 exactly: the coupled twin of criterion 4.  Near the flip a
    # step contracts by almost 1, so at transient 400 many points have not
    # settled; at 4 000 every point of r2 in [2.8, 3.1] has, and each
    # sweep's 1 -> 2 midpoint lies in `band`, just below 3 (measured
    # 2.9675 to 2.9925 on the 0.005 grid).  The band comes from that
    # measurement and the exact flip; it is not to be widened.
    band = (2.96, 3.0)
    sweeps = {**{(c2, 0.6): res for c2, res in fig1_sweeps.items()},
              **{(cc, cc): res for cc, res in fig2_sweeps.items()}}
    midpoints, before, after = {}, {}, {}
    for couplings, short in sweeps.items():
        res = ek.bifurcation_sweep(replace(short.spec, n_transient=4000))
        near = [(v, pt) for v, pt in zip(res.grid, res.points) if v <= 3.1 + 1e-9]
        assert not [v for v, pt in near if pt.orbit.outcome == Aperiodic()], couplings
        grid = [v for v, _ in near]
        midpoints[couplings] = transition(grid, settled_labels(pt for _, pt in near), 1, 2)
        assert band[0] <= midpoints[couplings] < band[1], (couplings, midpoints[couplings])
        before[couplings], after[couplings] = len(unsettled(short)), unsettled(res)

    # Report: at transient 400 about one point in ten is labelled aperiodic
    # although its lambda1 says it is settling; at 4 000 only two remain,
    # stable cycles longer than MAX_PERIOD (periods 100 and 96).
    assert list(before.values()) == [51, 30, 26, 14, 16, 15], before
    left = {c: v for c, v in after.items() if v}
    assert left == {(0.6, 0.6): [3.85], (0.7, 0.7): [3.935]}, left
    periods = []
    for (c2, c3), (r2,) in left.items():
        p = replace(REF_BASE, c2=c2, c3=c3, r2=r2)
        outcome = iterate(p, S0, 5000, 4000, max_period=400).outcome
        assert isinstance(outcome, Settled) and outcome.period > MAX_PERIOD, outcome
        periods.append(outcome.period)
    ok(
        "flip-at-3",
        f"1 -> 2 midpoints in [{band[0]}, {band[1]}) at transient 4000: "
        + ", ".join(f"c2,c3={c}: {t:.4f}" for c, t in midpoints.items())
        + f"; aperiodic with lambda1 < -1e-3: {sum(before.values())} at transient 400, "
        f"{sum(map(len, left.values()))} at 4000 ({left}, cycles of periods {periods})",
    )


def test_chaos_plane_splits_at_r2_3p9():
    # README's account of the plane: no chaos where c3 - c2 >= 0.3, chaos
    # on most of the mirror side c2 - c3 >= 0.3, both at c3 >= 0.5.
    spec = ek.ChaosGridSpec(
        base=REF_BASE, c2_lo=0.1, c2_hi=0.9, c2_points=33,
        c3_lo=0.1, c3_hi=0.9, c3_points=33, r2_values=(3.9,), s0=S0,
        n_transient=400, n_record=100, n_lyap=20_000,
    )
    upper = [c for c in ek.chaos_grid(spec).cells if c.c3 >= 0.5]
    separated = [c.lambda1 for c in upper if c.c3 - c.c2 >= 0.3 - 1e-12]
    mirror = [c.lambda1 for c in upper if c.c2 - c.c3 >= 0.3 - 1e-12]
    chaotic_separated = sum(lam > 0.05 for lam in separated)
    chaotic_mirror = sum(lam > 0.05 for lam in mirror)
    assert separated and chaotic_separated == 0, f"largest separated lambda1 {max(separated)}"
    assert 2 * chaotic_mirror > len(mirror), f"{chaotic_mirror}/{len(mirror)} mirror cells chaotic"
    ok(
        "chaos-plane",
        f"33x33 plane at r2=3.9: {chaotic_separated}/{len(separated)} separated cells "
        f"(max {max(separated):.1e}) and {chaotic_mirror}/{len(mirror)} mirror cells "
        f"(min {min(mirror):.2f}) with lambda1 > 0.05",
    )


# r1 -> whether criteria 5 and 6 hold on the six reference sweeps there.
R1_BAND = {
    2.8: (True, False),
    2.9: (True, True),
    3.0: (True, True),
    3.1: (True, True),
    3.2: (False, True),
}


def test_paper_verdicts_hold_for_r1_near_3():
    # Every reference experiment uses r1 = 3, where the x factor sits on
    # its own flip: a special slice.  The six sweeps of criteria 5 and 6,
    # rerun at nearby r1, show the band where both verdicts hold: "5"
    # (lambda1 > 0.05 on at most 10% of each fig-1 sweep, none escaped)
    # and "6" (at least 3 aperiodic points with lambda1 > 0.1 on each
    # fig-2 sweep).
    details = []
    for r1, want in R1_BAND.items():
        regular = []
        for c2 in (0.1, 0.2, 0.3):
            res = reference_sweep(replace(REF_BASE, r1=r1, c2=c2))
            assert not any(math.isnan(pt.lambda1) for pt in res.points), (r1, c2)
            regular.append(sum(pt.lambda1 > 0.05 for pt in res.points))
        chaotic = []
        for cc in (0.5, 0.6, 0.7):
            res = reference_sweep(replace(REF_BASE, r1=r1, c2=cc, c3=cc))
            assert not any(math.isnan(pt.lambda1) for pt in res.points), (r1, cc)
            chaotic.append(
                sum(pt.lambda1 > 0.1 and pt.orbit.outcome == Aperiodic() for pt in res.points)
            )
        got = (all(n / 241 <= 0.10 for n in regular), all(n >= 3 for n in chaotic))
        verdicts = ", ".join(f"'{c}' {'holds' if g else 'fails'}" for c, g in zip("56", got))
        details.append(
            f"r1={r1}: fig-1 lambda1 > 0.05 on {regular}, "
            f"fig-2 aperiodic lambda1 > 0.1 on {chaotic}; {verdicts}"
        )
        assert got == want, details[-1]
    ok("r1-band", "; ".join(details))


def bitwise_equal_sweeps(a, b):
    if not np.array_equal(a.grid, b.grid):
        return False
    for x, y in zip(a.points, b.points):
        lam_same = (x.lambda1 == y.lambda1) or (
            math.isnan(x.lambda1) and math.isnan(y.lambda1)
        )
        if not (x.value == y.value and lam_same and x.orbit == y.orbit):
            return False
    return True


def test_criterion_8_determinism_across_runs_and_grid_sizes(tmp_path):
    spec = ek.SweepSpec(
        base=REF_BASE, parameter="r2", lo=2.8, hi=4.0, n_points=41,
        s0=S0, n_transient=300, n_record=50, n_lyap=3000,
    )
    ref = ek.bifurcation_sweep(spec)
    assert bitwise_equal_sweeps(ref, ek.bifurcation_sweep(spec))
    # A point's result depends only on its value: the 2-point sweep over
    # grid[i], grid[i + 1] (linspace keeps both endpoints exact) repeats
    # points i and i + 1 of the 41-point sweep bit for bit.
    for i in (0, 20, 39):
        pair = ek.bifurcation_sweep(replace(spec, lo=ref.grid[i], hi=ref.grid[i + 1], n_points=2))
        part = replace(ref, grid=ref.grid[i : i + 2], points=ref.points[i : i + 2])
        assert bitwise_equal_sweeps(pair, part)

    gspec = ek.ChaosGridSpec(
        base=replace(REF_BASE, r2=3.9), c2_lo=0.1, c2_hi=0.9, c2_points=5,
        c3_lo=0.1, c3_hi=0.9, c3_points=5, r2_values=(3.9,), s0=S0,
        n_transient=300, n_record=50, n_lyap=3000,
    )
    gref = ek.chaos_grid(gspec)
    assert ek.chaos_grid(gspec).cells == gref.cells
    # The 2x2 sub-grid at (i, j) repeats the matching cells of the 5x5 grid.
    c2s, c3s = gref.c2_grid, gref.c3_grid
    for i, j in ((0, 0), (2, 1), (3, 3)):
        sub = ek.chaos_grid(
            replace(gspec, c2_lo=c2s[i], c2_hi=c2s[i + 1], c2_points=2,
                    c3_lo=c3s[j], c3_hi=c3s[j + 1], c3_points=2)
        )
        assert sub.cells == tuple(gref.cells[5 * a + b] for a in (i, i + 1) for b in (j, j + 1))

    budgets = {"transient": 200, "record": 40, "lyap": 1500}
    grid = {"c2_points": 3, "c3_points": 3, "r2_values": [3.9], "lyap": 800}
    doc = {"r2": 3.5, "budgets": budgets, "sweep": {"points": 7, "lyap": 800}, "grid": grid}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    for cmd, stem in (("bifurcate", "bifurcation"), ("chaos-grid", "chaos_grid")):
        digests = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{cmd}-{run_id}"
            argv = ["-m", "ecokmap", cmd, "--config", str(cfg), "--out", str(out), "--plot"]
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append([(out / f"{stem}.{ext}").read_bytes() for ext in ("csv", "svg")])
        assert digests[0] == digests[1]
    ok(8, "sweep and grid bitwise identical across runs and against 2-point sweeps and "
          "2x2 sub-grids; CLI outputs byte-identical across two subprocess runs")


def test_criterion_9_io_round_trips(tmp_path):
    docs = [
        '{"r2": 3.5}',
        '{"r2": 3.93, "c2": 0.6, "c3": 0.6, "initial": {"x": 0.1, "y": 0.1}, '
        '"budgets": {"transient": 500, "record": 100, "lyap": 20000}, '
        '"sweep": {"parameter": "c2", "lo": 0.0, "hi": 1.0, "points": 11}, '
        '"grid": {"r2_values": [3.8, 3.9]}, "out_dir": "results"}',
    ]
    for doc in docs:
        cfg = ek.parse_config(doc)
        assert ek.parse_config(ek.serialize_config(cfg)) == cfg

    spec = ek.SweepSpec(
        base=REF_BASE, parameter="r2", lo=2.8, hi=4.0, n_points=5,
        s0=S0, n_transient=150, n_record=20, n_lyap=1000,
    )
    res = ek.bifurcation_sweep(spec)
    rows = []
    for pt in res.points:
        n, x, y = pt.orbit.columns()
        rows.extend((pt.value, i, a, b, pt.lambda1) for i, a, b in zip(n, x.tolist(), y.tolist()))
    path = tmp_path / "roundtrip.csv"
    path.write_text(render_csv(["param", "n", "x", "y", "lambda1"], list(zip(*rows))))
    _, got = read_csv(path)
    assert len(got) == len(rows)
    for row, want in zip(got, rows):
        assert float(row[0]) == want[0]
        assert int(row[1]) == want[1]
        assert float(row[2]) == want[2]
        assert float(row[3]) == want[3]
        assert float(row[4]) == want[4]

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"r2": 3.9, "budgets": {"transient": 150, "record": 30, "lyap": 1200}}')
    from ecokmap.cli import main

    for cmd, csv_name, svg_name in (
        ("phase", "phase.csv", "phase.svg"),
        ("lyapunov", "lyapunov.csv", "lyapunov.svg"),
        ("simulate", "orbit.csv", "orbit.svg"),
    ):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfg_path), "--out", str(out), "--plot"]) == 0
        _, data_rows = read_csv(out / csv_name)
        assert count_data_elements((out / svg_name).read_text()) == len(data_rows)
    ok(
        9,
        f"config round-trips exact; CSV re-read exact on {len(rows)} rows; "
        "SVG data-point count equals CSV row count for phase/lyapunov/simulate",
    )
