"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the helpers in conftest provide the
independent oracles (truncated series, dense-inverse dynamics, brute-force
grids).
"""

import itertools
import math
import time

import numpy as np

from opinion_game import (
    BAD,
    GOOD,
    Budgets,
    DependencyCoefficients,
    WeightScheme,
    ba_graph,
    bounded_greedy,
    compute_profile,
    evaluate_two_phase,
    multi_election_scores,
    myopic_loss,
    myopic_strategy,
    run_phases,
    single_camp_optimal,
    solve_zero_sum,
    steady_state,
    sweep_w0,
    two_camp_equilibrium,
)
from opinion_game.strategy_dependent import _box_saddle

from conftest import (
    compositions,
    dense_steady_state,
    dependency_two_phase_sum,
    interior_saddle,
    neumann_transpose_apply,
    oracle_profile,
    plain_phase,
    quad_coefficients,
    random_network,
)


def report(number, name, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({name}): {status} ({detail}, {elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_centrality_series_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        net = random_network(rng, int(rng.integers(1, 9)), nonneg=True)
        r_oracle = neumann_transpose_apply(net, np.ones(net.n))
        s_oracle = neumann_transpose_apply(net, r_oracle * net.w0)
        third_oracle = neumann_transpose_apply(net, s_oracle * net.w0)
        prof = compute_profile(net, 3)
        worst = max(
            worst,
            float(np.max(np.abs(prof.r - r_oracle))),
            float(np.max(np.abs(prof.s - s_oracle))),
            float(np.max(np.abs(prof.higher[0] - third_oracle))),
        )
    report(1, "centrality vs truncated series", worst < 1e-8, f"max dev {worst:.2e}", started, 5.0)


def test_criterion_2_dynamics_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(203)
    worst_solver = 0.0
    worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        net = random_network(rng, n, nonneg=bool(rng.integers(0, 2)))
        x, y = rng.uniform(0.0, 1.0, size=(2, n))
        direct = dense_steady_state(net, net.v0, x, y)
        iterated, _ = plain_phase(net, net.v0, x, y)
        solved = steady_state(net, net.v0, x, y)
        worst_solver = max(worst_solver, float(np.max(np.abs(direct - iterated))),
                           float(np.max(np.abs(direct - solved))))
        r = compute_profile(net).r
        total = float(r @ (net.w0 * net.v0) + r @ (net.wg * x - net.wb * y))
        worst_identity = max(worst_identity, abs(float(direct.sum()) - total))
    ok = worst_solver < 1e-9 and worst_identity < 1e-8
    report(2, "fixed point vs direct solve", ok,
           f"solver dev {worst_solver:.2e}, sum identity dev {worst_identity:.2e}", started, 10.0)


def test_criterion_3_closed_form_objective():
    started = time.perf_counter()
    rng = np.random.default_rng(205)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        net = random_network(rng, n, nonneg=bool(rng.integers(0, 2)))
        x1, x2, y1, y2 = rng.uniform(0.0, 2.0, size=(4, n))
        _, sums = run_phases(net, [(x1, y1), (x2, y2)])
        closed = evaluate_two_phase(net, x1, x2, y1, y2)
        worst = max(worst, abs(closed - sums[1]))
    report(3, "two-phase closed form vs chaining", worst < 1e-8, f"max dev {worst:.2e}", started, 10.0)


def test_criterion_4_fixed_setting_equilibrium():
    started = time.perf_counter()
    rng = np.random.default_rng(207)
    worst_gap = -np.inf
    for _ in range(6):
        n = int(rng.integers(2, 5))
        net = random_network(rng, n)
        budget = float(rng.uniform(1.0, 8.0))
        prof = compute_profile(net)
        best = bounded_greedy(net, budget, GOOD, cap=math.inf, profile=prof)
        best_val = evaluate_two_phase(net, best.x1, best.x2, None, None, prof)
        step = budget / 10.0
        for units in compositions(10, 2 * n):
            alloc = np.asarray(units, dtype=float) * step
            val = evaluate_two_phase(net, alloc[:n], alloc[n:], None, None, prof)
            worst_gap = max(worst_gap, val - best_val)
    worst_loss_dev = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 8))
        net = random_network(rng, n, dependency=True)
        kb = float(rng.uniform(0.5, 5.0))
        prof = compute_profile(net)
        far = bounded_greedy(net, kb, BAD, cap=math.inf, profile=prof)
        myo = myopic_strategy(net, kb, BAD, prof)
        val_far = evaluate_two_phase(net, None, None, far.x1, far.x2, prof)
        val_myo = evaluate_two_phase(net, None, None, myo.x1, myo.x2, prof)
        worst_loss_dev = max(worst_loss_dev, abs(myopic_loss(net, kb, prof) - (val_myo - val_far)))
    ok = worst_gap <= 1e-9 and worst_loss_dev < 1e-9
    report(4, "farsighted optimality and myopic loss", ok,
           f"best grid gain {worst_gap:.2e}, loss dev {worst_loss_dev:.2e}", started, 30.0)


def test_criterion_5_bounded_greedy_vs_exhaustive():
    started = time.perf_counter()
    rng = np.random.default_rng(211)
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ok = True
    detail = ""
    for trial in range(5):
        n = int(rng.integers(2, 4))
        net = random_network(rng, n)
        prof = compute_profile(net)
        budget = float(rng.choice([1.0, 1.5, 2.0, 2.75]))
        plan = bounded_greedy(net, budget, GOOD, profile=prof)
        greedy_val = evaluate_two_phase(net, plan.x1, plan.x2, None, None, prof)
        best_val = -np.inf
        for combo in itertools.product(levels, repeat=2 * n):
            alloc = np.asarray(combo)
            if alloc.sum() > budget + 1e-12:
                continue
            best_val = max(best_val, evaluate_two_phase(net, alloc[:n], alloc[n:], None, None, prof))
        worths = np.concatenate([prof.s * net.wg, prof.r * net.wg])
        one_step = 0.25 * max(float(worths.max()), 0.0)
        if not (best_val - 1e-9 <= greedy_val <= best_val + one_step + 1e-9):
            ok = False
            detail = f"trial {trial}: greedy {greedy_val:.6g} vs grid {best_val:.6g}"
            break
    report(5, "bounded greedy vs discretized search", ok, detail or "within one grid step", started, 30.0)


def test_criterion_6_dependency_single_camp():
    started = time.perf_counter()
    rng = np.random.default_rng(213)
    worst_gap = -np.inf
    for _ in range(20):
        n = int(rng.integers(2, 6))
        net = random_network(rng, n, dependency=True)
        kg = float(rng.uniform(1.0, 10.0))
        _, value = single_camp_optimal(net, kg)
        zero = np.zeros(n)
        grid = np.linspace(0.0, kg, 1001)
        oracle = -np.inf
        for alpha in range(n):
            for beta in range(n):
                x1 = np.zeros(n)
                x2 = np.zeros(n)
                for k1 in grid:
                    x1[alpha] = k1
                    x2[beta] = kg - k1
                    oracle = max(oracle, dependency_two_phase_sum(net, x1, x2, zero, zero))
                    x1[alpha] = 0.0
                    x2[beta] = 0.0
        worst_gap = max(worst_gap, oracle - value)
    report(6, "single-camp split vs budget grid oracle", worst_gap <= 1e-6,
           f"best oracle gain {worst_gap:.2e}", started, 60.0)


def test_criterion_7_dependency_two_camps():
    started = time.perf_counter()
    rng = np.random.default_rng(217)
    ok = True
    details = []
    worst_closed = 0.0
    interior_count = 0
    for trial in range(10):
        net = random_network(rng, 3, dependency=True)
        # budgets large enough that some profile pairs have their split
        # saddle strictly inside the budget box
        kg, kb = float(rng.uniform(10.0, 60.0)), float(rng.uniform(10.0, 60.0))
        coef = DependencyCoefficients(net)
        solution = two_camp_equilibrium(net, kg, kb)
        payoff = solution.payoff
        maximin = float(payoff.min(axis=1).max())
        minimax = float(payoff.max(axis=0).min())
        if not (maximin - 1e-9 <= solution.value <= minimax + 1e-9):
            ok = False
            details.append(f"trial {trial}: value outside pure sandwich")
        if abs(solution.row_mix.sum() - 1.0) > 1e-9 or abs(solution.col_mix.sum() - 1.0) > 1e-9:
            ok = False
            details.append(f"trial {trial}: mixes not distributions")
        row_gain = float((payoff @ solution.col_mix).max()) - solution.value
        col_gain = solution.value - float((solution.row_mix @ payoff).min())
        if row_gain > 1e-6 or col_gain > 1e-6:
            ok = False
            details.append(f"trial {trial}: pure deviation gains {row_gain:.2e}/{col_gain:.2e}")
        m = net.n ** 2 + 1
        for i in range(m):
            for j in range(m):
                good, bad = oracle_profile(i, net.n), oracle_profile(j, net.n)
                if good is None or bad is None:
                    continue
                u00, qa, qb, qaa, qbb, qab = quad_coefficients(net, coef, good, bad, kg, kb)
                interior = interior_saddle(qa, qb, qaa, qbb, qab)
                if interior is None:
                    continue
                a, b = interior
                if not (0 <= a <= kg and 0 <= b <= kb):
                    continue
                _, an, bn = _box_saddle(u00, qa, qb, qaa, qbb, qab, kg, kb)
                worst_closed = max(worst_closed, abs(a - an), abs(b - bn))
                interior_count += 1
    if interior_count == 0:
        ok = False
        details.append("no interior saddle cases were exercised")
    if worst_closed >= 1e-7:
        ok = False
        details.append(f"closed form vs saddle kernel dev {worst_closed:.2e}")
    report(7, "two-camp equilibrium properties", ok,
           "; ".join(details) or f"{interior_count} interior agreements, max dev {worst_closed:.2e}",
           started, 120.0)


def test_criterion_8_lp_solver():
    started = time.perf_counter()
    rng = np.random.default_rng(219)
    worst_gap = 0.0
    for _ in range(20):
        shape = (int(rng.integers(2, 51)), int(rng.integers(2, 51)))
        payoff = rng.uniform(-5.0, 5.0, size=shape)
        row, col, value = solve_zero_sum(payoff)
        floor = float((row @ payoff).min())
        ceiling = float((payoff @ col).max())
        worst_gap = max(worst_gap, abs(floor - ceiling))
    worked = [
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.0),
        (np.array([[3.0, 2.0], [1.0, 0.0]]), 2.0),
        (np.array([[2.0, 0.0], [0.0, 1.0]]), 2.0 / 3.0),
    ]
    worst_value = max(abs(solve_zero_sum(m)[2] - v) for m, v in worked)
    ok = worst_gap <= 1e-9 and worst_value <= 1e-9
    report(8, "zero-sum solver duality and worked games", ok,
           f"duality gap {worst_gap:.2e}, worked-game dev {worst_value:.2e}", started, 10.0)


def test_criterion_9_trend_surrogate():
    started = time.perf_counter()
    topology = ba_graph(300, 2, seed=2)
    budgets = Budgets(100.0, 100.0)

    def point(w0, mode):
        (row,) = sweep_w0(topology, WeightScheme(w0_grid=(w0,)), mode, budgets)
        return row

    low = point(0.05, "bounded")
    high = point(0.9, "bounded")
    loss_low = point(0.1, "bounded")["myopic_loss"]
    loss_high = high["myopic_loss"]
    dep_zero = point(0.0, "dependency1")
    dep_high = point(0.9, "dependency1")
    frac_low = low["k1_good"] / budgets.kg
    frac_high = high["k1_good"] / budgets.kg
    checks = {
        "bounded first-phase share at 0.05 below 0.1": frac_low < 0.1,
        "bounded first-phase share at 0.9 above 0.5": frac_high > 0.5,
        "myopic loss larger at 0.1 than at 0.9": loss_low > loss_high,
        "single-camp first-phase budget zero at 0": dep_zero["k1_good"] == 0.0,
        "single-camp first-phase budget positive at 0.9": dep_high["k1_good"] > 0.0,
    }
    failed = [name for name, passed in checks.items() if not passed]
    detail = (
        f"shares {frac_low:.3f}/{frac_high:.3f}, losses {loss_low:.1f}/{loss_high:.1f}, "
        f"split budgets {dep_zero['k1_good']:.1f}/{dep_high['k1_good']:.1f}"
    )
    report(9, "bias-weight trend surrogate", not failed,
           "; ".join(failed) or detail, started, 300.0)


def test_criterion_10_multi_election_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(223)
    ok = True
    for _ in range(20):
        net = random_network(rng, int(rng.integers(2, 12)), nonneg=False)
        prof = compute_profile(net)
        only_now = multi_election_scores(net, 1.0, 0.0, prof)
        only_later = multi_election_scores(net, 0.0, 1.0, prof)
        if not np.array_equal(np.argsort(only_now), np.argsort(prof.r)):
            ok = False
        if not np.array_equal(np.argsort(only_later), np.argsort(prof.s)):
            ok = False
        if not (np.array_equal(only_now, prof.r) and np.array_equal(only_later, prof.s)):
            ok = False
    report(10, "election-weight reductions", ok, "rankings identical", started, 1.0)
