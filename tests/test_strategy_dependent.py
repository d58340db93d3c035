import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opinion_game.centrality as centrality
import opinion_game.cli as cli
import opinion_game.dynamics as dynamics
import opinion_game.harness as harness
import opinion_game.strategy_dependent as dep
from opinion_game import (
    GOOD,
    Budgets,
    DependencyCoefficients,
    GameSolverError,
    InvestmentPlan,
    Network,
    WeightScheme,
    ba_graph,
    compute_profile,
    dependency_camp_weights,
    generate_weights,
    run_phases,
    save_edge_list,
    single_camp_optimal,
    two_camp_equilibrium,
)
from opinion_game.strategy_dependent import _box_saddle, _profile_nodes, _split_values

from conftest import (
    dependency_two_phase_sum,
    full_game_solution,
    interior_saddle,
    mirrored_box_saddle,
    oracle_profile,
    quad_coefficients,
    random_network,
    resolvent_row,
    saddle_entry,
    two_node_net,
)


def dep_pair(theta=0.2, w0=0.3, v0=0.0):
    return two_node_net(w0=w0, v0=v0, wg=theta / 2, wb=theta / 2, theta=theta)


def profile_to_plans(n, good, bad, kg1, kg2, kb1, kb2):
    x1 = np.zeros(n)
    x2 = np.zeros(n)
    y1 = np.zeros(n)
    y2 = np.zeros(n)
    if good is not None:
        x1[good[0]] = kg1
        x2[good[1]] = kg2
    if bad is not None:
        y1[bad[0]] = kb1
        y2[bad[1]] = kb2
    return x1, x2, y1, y2


class TestCampWeights:
    def test_neutral_entry_splits_evenly(self):
        net = dep_pair()
        wg, wb = dependency_camp_weights(net.theta, net.w0, [0.0, 0.0])
        assert_allclose(wg, [0.1, 0.1])
        assert_allclose(wb, [0.1, 0.1])

    def test_leaning_entry(self):
        net = dep_pair(w0=0.5)
        wg, wb = dependency_camp_weights(net.theta, net.w0, [1.0, 0.0])
        assert wg[0] == pytest.approx(0.15)
        assert wb[0] == pytest.approx(0.05)

    def test_sum_is_theta(self):
        rng = np.random.default_rng(97)
        net = random_network(rng, 8, dependency=True)
        wg, wb = dependency_camp_weights(net.theta, net.w0, rng.uniform(-1, 1, 8))
        assert_allclose(wg + wb, net.theta, atol=1e-14)


class TestDependencyCoefficients:
    def test_row_definition_and_column_sums(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            net = random_network(rng, int(rng.integers(2, 10)), dependency=True)
            coef = DependencyCoefficients(net)
            assert np.array_equal(coef.scale, coef.r * net.w0)
            stacked = np.array([coef.scale[j] * resolvent_row(net, j) for j in range(net.n)])
            assert np.max(np.abs(stacked.sum(axis=0) - compute_profile(net).s)) < 1e-8

    def test_idle_total_is_bias_weighted_s(self):
        net = dep_pair(theta=0.0, v0=1.0)
        coef = DependencyCoefficients(net)
        assert coef.s_total == pytest.approx(0.72)


class TestSingleCampOptimal:
    def test_worked_pair_puts_everything_in_phase_two(self):
        plan, value = single_camp_optimal(dep_pair(), 10.0)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert plan.camp == GOOD
        assert plan.x1.tolist() == [0.0, 0.0]
        assert plan.x2.tolist() == [pytest.approx(10.0), 0.0]

    def test_zero_theta_stays_out(self):
        plan, value = single_camp_optimal(dep_pair(theta=0.0, v0=1.0), 10.0)
        assert plan.x1.tolist() == [0.0, 0.0] and plan.x2.tolist() == [0.0, 0.0]
        assert value == pytest.approx(0.72)

    def test_zero_budget_stays_out(self):
        net = dep_pair(v0=1.0)
        coef = DependencyCoefficients(net)
        plan, value = single_camp_optimal(net, 0.0)
        assert not plan.x1.any() and not plan.x2.any()
        assert value == pytest.approx(coef.s_total)

    def test_beats_fine_budget_grid(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            net = random_network(rng, n, dependency=True)
            kg = float(rng.uniform(1.0, 8.0))
            _, value = single_camp_optimal(net, kg)
            grid = np.linspace(0.0, kg, 201)
            for alpha in range(n):
                for beta in range(n):
                    for k1 in grid:
                        x1, x2, y1, y2 = profile_to_plans(n, (alpha, beta), None, k1, kg - k1, 0, 0)
                        assert dependency_two_phase_sum(net, x1, x2, y1, y2) <= value + 1e-8

    def test_no_multi_node_grid_allocation_beats_it(self):
        # spreading the budget over several nodes per phase cannot improve on
        # the single-node-per-phase optimum
        from conftest import compositions

        rng = np.random.default_rng(107)
        for _ in range(3):
            n = int(rng.integers(2, 4))
            net = random_network(rng, n, dependency=True)
            kg = float(rng.uniform(1.0, 6.0))
            _, value = single_camp_optimal(net, kg)
            step = kg / 5.0
            zero = np.zeros(n)
            for units in compositions(5, 2 * n):
                alloc = np.asarray(units, dtype=float) * step
                total = dependency_two_phase_sum(net, alloc[:n], alloc[n:], zero, zero)
                assert total <= value + 1e-8

    def test_streaming_scan_matches_dense_scan(self, monkeypatch):
        # the scan on iterative solves (what large networks take) against the
        # scan on the dense inverse; a network chooses its path once, so the
        # iterative side is a network of its own with the same weights
        rng = np.random.default_rng(109)
        for _ in range(5):
            net = random_network(rng, 7, dependency=True)
            kg = float(rng.uniform(0.5, 5.0))
            dense_plan, dense_value = single_camp_optimal(net, kg)
            monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
            twin = Network.build(net.n, net.topology(), w0=net.w0, v0=net.v0, wg=net.wg,
                                 wb=net.wb, theta=net.theta)
            stream_plan, stream_value = single_camp_optimal(twin, kg)
            monkeypatch.undo()
            assert not twin._solver.dense
            assert stream_value == pytest.approx(dense_value, abs=1e-10)
            for phase in ("x1", "x2"):
                dense_x, stream_x = getattr(dense_plan, phase), getattr(stream_plan, phase)
                assert np.argmax(stream_x) == np.argmax(dense_x)

    def test_blocked_scan_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(127)
        nets = [random_network(rng, 7, dependency=True) for _ in range(4)]
        # identical isolated nodes: every pair ties with the pairs of the
        # same kind, so the first pair in scan order must win across blocks
        nets.append(Network.build(6, [], w0=0.3, v0=0.5, wg=0.1, wb=0.1, theta=0.2))
        for net in nets:
            kg = float(rng.uniform(0.5, 5.0))
            whole, whole_value = single_camp_optimal(net, kg)
            for entries in (1, 2 * net.n, 3 * net.n):
                monkeypatch.setattr(dep, "SCAN_BLOCK_ENTRIES", entries)
                plan, value = single_camp_optimal(net, kg)
                assert value == whole_value
                assert np.array_equal(plan.x1, whole.x1) and np.array_equal(plan.x2, whole.x2)
                monkeypatch.undo()
        # the isolated nodes: the plan spends on the first pair's nodes only
        assert set(np.flatnonzero(whole.x1)) <= {0} and set(np.flatnonzero(whole.x2)) <= {0, 1}
        assert whole.x1.any() or whole.x2.any()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            single_camp_optimal(dep_pair(), -1.0)

    def test_iterative_scan_solves_only_r_and_s_transposed(self, monkeypatch):
        # the winner is neither re-solved by the saddle kernel nor given a
        # resolvent row of its own: r and s are the only transposed solves
        net = random_network(np.random.default_rng(181), 9, dependency=True)
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        transposed = []
        for module in (centrality, dep):
            solve = module.solve_linear

            def spy(*args, _solve=solve, **kwargs):
                transposed.append(kwargs.get("transpose", False))
                return _solve(*args, **kwargs)

            monkeypatch.setattr(module, "solve_linear", spy)

        def refused(*args, **kwargs):
            raise AssertionError("the single-camp scan left its closed form")

        monkeypatch.setattr(dep, "_box_saddle", refused)
        plan, _ = single_camp_optimal(net, 4.0)
        assert plan.x1.any() or plan.x2.any()
        assert transposed.count(True) == 2

    def test_reports_the_closed_form_entry_the_kernel_agrees_with(self):
        rng = np.random.default_rng(191)
        scanned = 0
        for _ in range(40):
            n = int(rng.integers(2, 9))
            net = random_network(rng, n, dependency=True)
            kg = float(rng.uniform(0.5, 50.0))
            coef = DependencyCoefficients(net)
            plan, value = single_camp_optimal(net, kg)
            k1, k2 = float(plan.x1.sum()), float(plan.x2.sum())
            if k1 == k2 == 0.0:
                continue
            # a phase that spends nothing names no node; its terms vanish, so
            # node 0 stands in
            a, b = int(np.argmax(plan.x1)), int(np.argmax(plan.x2))
            first = 0.5 * coef.theta[a] * (1.0 + coef.c[a])
            second = 0.5 * coef.theta[b]
            closed = (
                coef.s_total + first * coef.s[a] * k1 + second * (coef.cb[b] + coef.r[b]) * k2
                + first * second * coef.scale[b] * resolvent_row(net, b)[a] * k1 * k2
            )
            assert value == pytest.approx(closed, rel=1e-12)
            kernel_value, kernel_k1, _ = saddle_entry(net, (a, b), None, kg, 0.0)
            assert abs(value - kernel_value) <= 1e-12 * (1.0 + abs(value))
            assert abs(k1 - kernel_k1) <= 1e-9 * kg
            scanned += 1
        assert scanned >= 30


class TestSplitValues:
    def test_endpoint_choice_and_clamped_stationary_point(self):
        # s_total 3, kg 4; gains (first, second) against coupling: without
        # strict concavity the better endpoint wins and a tie goes to 0
        # (exactly: a zero expected value leaves assert_allclose no slack)
        first = np.array([2.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.0])
        second = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0])
        coupling = np.array([0.0, 0.0, 0.0, -0.5, -0.5, 1e-300, 1e-300, 1e-300, 0.5])
        values, k1 = _split_values(3.0, 4.0, first, second, coupling)
        assert_allclose(k1, [4.0, 0.0, 0.0, 4.0, 0.0, 4.0, 0.0, 2.0, 2.0], rtol=1e-15)
        assert_allclose(values, [11.0, 11.0, 7.0, 11.0, 7.0, 11.0, 11.0, 7.0, 9.0], rtol=1e-15)


class TestBudgetChecks:
    @pytest.mark.parametrize("budget", [np.nan, np.inf])
    def test_non_finite_budgets_refused(self, budget):
        # nan once passed `kg < 0` and printed a nan value; inf printed one too
        net = dep_pair()
        with pytest.raises(ValueError, match="^budget must be finite and nonnegative$"):
            single_camp_optimal(net, budget)
        for kg, kb in ((budget, 1.0), (1.0, budget)):
            with pytest.raises(ValueError, match="^budgets must be finite and nonnegative$"):
                two_camp_equilibrium(net, kg, kb)

    @pytest.mark.parametrize("k1, k2", [(-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan)])
    def test_negative_or_nan_phase_budgets_refused(self, k1, k2):
        # nan once passed `k1 < 0` in the single-camp result type, so a phase
        # budget of nan constructed
        with pytest.raises(ValueError, match="^x[12] has (negative|non-finite) entries$"):
            InvestmentPlan(GOOD, [k1, 0.0], [0.0, k2])


class TestPayoffEntry:
    def test_both_out_is_idle_total(self):
        net = dep_pair(v0=1.0)
        coef = DependencyCoefficients(net)
        value, kg1, kb1 = saddle_entry(net, None, None, 5.0, 5.0)
        assert value == pytest.approx(coef.s_total)
        assert kg1 == 0.0 and kb1 == 0.0

    def test_zero_theta_profiles_are_all_idle(self):
        net = Network.build(2, [(0, 1, 0.5), (1, 0, 0.5)], w0=0.3, v0=[0.5, -0.5], theta=0.0)
        for good in ((0, 1), (1, 0), None):
            for bad in ((0, 0), None):
                value, _, _ = saddle_entry(net, good, bad, 10.0, 5.0)
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_value_matches_raw_dynamics_at_returned_splits(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            net = random_network(rng, n, dependency=True)
            kg, kb = float(rng.uniform(0, 6)), float(rng.uniform(0, 6))
            good = tuple(int(v) for v in rng.integers(0, n, 2))
            bad = tuple(int(v) for v in rng.integers(0, n, 2))
            value, kg1, kb1 = saddle_entry(net, good, bad, kg, kb)
            plans = profile_to_plans(n, good, bad, kg1, kg - kg1, kb1, kb - kb1)
            assert value == pytest.approx(dependency_two_phase_sum(net, *plans), abs=1e-8)

    def test_saddle_property_of_returned_splits(self):
        rng = np.random.default_rng(127)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            net = random_network(rng, n, dependency=True)
            kg, kb = float(rng.uniform(0.5, 30)), float(rng.uniform(0.5, 30))
            good = tuple(int(v) for v in rng.integers(0, n, 2))
            bad = tuple(int(v) for v in rng.integers(0, n, 2))
            coef = DependencyCoefficients(net)
            value, kg1, kb1 = saddle_entry(net, good, bad, kg, kb)
            u00, qa, qb, qaa, qbb, qab = quad_coefficients(net, coef, good, bad, kg, kb)

            def u(a, b):
                return u00 + qa * a + qb * b + qaa * a * a + qbb * b * b + qab * a * b

            for frac in np.linspace(0.0, 1.0, 21):
                assert u(frac * kg, kb1) <= value + 1e-8
                assert u(kg1, frac * kb) >= value - 1e-8

    def test_single_sided_profiles_reduce_cleanly(self):
        rng = np.random.default_rng(131)
        net = random_network(rng, 4, dependency=True)
        value_good, kg1, kb1 = saddle_entry(net, (1, 2), None, 4.0, 9.0)
        assert kb1 == 0.0
        plans = profile_to_plans(4, (1, 2), None, kg1, 4.0 - kg1, 0, 0)
        assert value_good == pytest.approx(dependency_two_phase_sum(net, *plans), abs=1e-9)
        value_bad, kg1, kb1 = saddle_entry(net, None, (0, 3), 4.0, 9.0)
        assert kg1 == 0.0
        plans = profile_to_plans(4, None, (0, 3), 0, 0, kb1, 9.0 - kb1)
        assert value_bad == pytest.approx(dependency_two_phase_sum(net, *plans), abs=1e-9)
        # the bad camp minimizes: staying in can only lower the objective
        assert value_bad <= saddle_entry(net, None, None, 4.0, 9.0)[0] + 1e-12

    def test_closed_form_agrees_with_kernel_when_interior(self):
        rng = np.random.default_rng(137)
        checked = 0
        for _ in range(400):
            n = int(rng.integers(2, 5))
            net = random_network(rng, n, dependency=True)
            kg, kb = float(rng.uniform(1, 50)), float(rng.uniform(1, 50))
            good = tuple(int(v) for v in rng.integers(0, n, 2))
            bad = tuple(int(v) for v in rng.integers(0, n, 2))
            coef = DependencyCoefficients(net)
            u00, qa, qb, qaa, qbb, qab = quad_coefficients(net, coef, good, bad, kg, kb)
            interior = interior_saddle(qa, qb, qaa, qbb, qab)
            if interior is None:
                continue
            a, b = interior
            if not (0 <= a <= kg and 0 <= b <= kb):
                continue
            _, an, bn = _box_saddle(u00, qa, qb, qaa, qbb, qab, kg, kb)
            assert a == pytest.approx(float(an), abs=1e-9)
            assert b == pytest.approx(float(bn), abs=1e-9)
            checked += 1
        assert checked >= 10

    def test_flat_split_resolves_to_zero(self):
        # zero slope and zero curvature in both budgets: every split is
        # optimal, and the first candidate, 0, is kept
        assert _box_saddle(2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 3.0) == (2.5, 0.0, 0.0)
        # a flat good camp facing a bad camp that gains from spending early
        value, a, b = _box_saddle(2.5, 0.0, -1.0, 0.0, 0.0, 0.0, 4.0, 3.0)
        assert (value, a, b) == (-0.5, 0.0, 3.0)
        net = Network.build(2, [(0, 1, 0.5), (1, 0, 0.5)], w0=0.3, v0=[0.5, -0.5], theta=0.0)
        assert saddle_entry(net, (0, 1), (1, 0), 10.0, 5.0)[1:] == (0.0, 0.0)

    def test_clamped_reply_is_positive_zero(self):
        # the bad camp's best reply -(qb + qab a) / (2 qbb) is -0.0 here
        _, _, b = _box_saddle(2.5, 0.0, 0.0, 0.0, 1.0, 0.0, 4.0, 3.0)
        assert b == 0.0 and not np.signbit(b)

    def test_best_reply_matches_mirrored_search(self):
        # 2,400 coefficient sets in eight families against the two-search
        # kernel: concave-convex, qbb = 0, qaa = 0, qaa > 0 (no saddle
        # guaranteed), qab = 0, a zero budget, qbb near the underflow limit
        # and small qbb, where the clamp would amplify a's rounding
        rng = np.random.default_rng(173)
        per = 300

        def draw():
            return [
                rng.normal(0.0, 5.0, per),
                rng.normal(0.0, 3.0, per),
                rng.normal(0.0, 3.0, per),
                -rng.exponential(0.3, per),
                rng.exponential(0.3, per),
                rng.normal(0.0, 0.5, per),
                rng.uniform(0.5, 40.0, per),
                rng.uniform(0.5, 40.0, per),
            ]

        families = {}
        families["concave-convex"] = draw()
        for name, k, values in (
            ("qbb = 0", 4, np.zeros(per)),
            ("qaa = 0", 3, np.zeros(per)),
            ("qab = 0", 5, np.zeros(per)),
            ("qbb ~ 1e-300", 4, 1e-300 * rng.uniform(0.5, 2.0, per)),
            ("small qbb", 4, 10.0 ** rng.uniform(-14.0, -2.0, per)),
        ):
            families[name] = draw()
            families[name][k] = values
        families["qaa > 0"] = draw()
        families["qaa > 0"][3] *= -1.0
        coefs = draw()
        # a zero budget, half of them with the stay-out coefficients (the
        # idle camp's linear, square and coupling terms vanish)
        good_out = rng.random(per) < 0.5
        idle = rng.random(per) < 0.5
        for k in (6, 1, 3, 5):
            coefs[k] = np.where(good_out & (idle | (k == 6)), 0.0, coefs[k])
        for k in (7, 2, 4, 5):
            coefs[k] = np.where(~good_out & (idle | (k == 7)), 0.0, coefs[k])
        families["zero budget"] = coefs

        grid = np.linspace(0.0, 1.0, 201)
        for name, coefs in families.items():
            kg, kb = coefs[6], coefs[7]
            value, a, b = _box_saddle(*coefs)
            value_o, a_o, b_o = mirrored_box_saddle(*coefs)
            tol = 1e-9 * (1.0 + np.abs(value_o))
            assert np.array_equal(a, a_o), name
            assert np.all(np.abs(b - b_o) <= tol), name
            assert np.all(np.abs(value - value_o) <= tol), name
            if name == "qaa > 0":
                continue

            c = [x[:, None] for x in coefs]

            def u(t, s):
                return c[0] + c[1] * t + c[2] * s + c[3] * t * t + c[4] * s * s + c[5] * t * s

            assert np.all(u(grid * kg[:, None], b[:, None]).max(axis=1) <= value + tol), name
            assert np.all(u(a[:, None], grid * kb[:, None]).min(axis=1) >= value - tol), name


class TestObjectiveStructure:
    def test_multilinearity_in_each_investment_block(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            net = random_network(rng, n, dependency=True)
            blocks = [rng.uniform(0, 2, size=(2, n)) for _ in range(4)]
            lam = float(rng.uniform(0, 1))
            for idx in range(4):
                base = [blocks[0][0], blocks[1][0], blocks[2][0], blocks[3][0]]
                alt = list(base)
                alt[idx] = blocks[idx][1]
                mix = list(base)
                mix[idx] = lam * base[idx] + (1 - lam) * alt[idx]
                val = (
                    lam * dependency_two_phase_sum(net, *base)
                    + (1 - lam) * dependency_two_phase_sum(net, *alt)
                )
                assert dependency_two_phase_sum(net, *mix) == pytest.approx(val, abs=1e-10)

    def test_two_regroupings_of_single_camp_objective_agree(self):
        # grouping the objective by phase-1 investments or by phase-2
        # investments is pure algebra; both must match the raw dynamics
        rng = np.random.default_rng(149)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            net = random_network(rng, n, dependency=True)
            x1, x2 = rng.uniform(0, 2, size=(2, n))
            delta = np.linalg.inv(np.eye(n) - net.weights.toarray())
            r = np.linalg.solve(np.eye(n) - net.weights.toarray().T, np.ones(n))
            b = (r * net.w0)[:, None] * delta
            c = net.w0 * net.v0
            half = net.theta / 2.0
            grouped_by_x1 = (
                float(x1 @ (half * (c + 1.0) * (b * (1.0 + half * x2)[:, None]).sum(axis=0)))
                + float(c @ (b * (1.0 + half * x2)[:, None]).sum(axis=0).T)
                + float(r @ (half * x2))
            )
            inner = c + half * x1 * (c + 1.0)
            grouped_by_x2 = (
                float(x2 @ (half * (b @ inner) + half * r))
                + float((b @ inner).sum())
            )
            raw = dependency_two_phase_sum(net, x1, x2, np.zeros(n), np.zeros(n))
            assert grouped_by_x1 == pytest.approx(grouped_by_x2, abs=1e-10)
            assert grouped_by_x1 == pytest.approx(raw, abs=1e-9)


class TestTwoCampEquilibrium:
    def test_profile_index_decodes_to_its_nodes(self):
        # a 3-node game has 10 profiles: the node pairs in row-major order,
        # then stay-out
        assert _profile_nodes(0, 3) == (0, 0)
        assert _profile_nodes(5, 3) == (1, 2)
        assert _profile_nodes(8, 3) == (2, 2)
        assert _profile_nodes(9, 3) == (None, None)

    def test_zero_theta_gives_constant_game(self):
        net = Network.build(2, [(0, 1, 0.5), (1, 0, 0.5)], w0=0.3, v0=[0.5, -0.5], theta=0.0)
        solution = two_camp_equilibrium(net, 3.0, 4.0)
        assert np.max(np.abs(solution.payoff - solution.payoff[0, 0])) < 1e-12
        assert solution.value == pytest.approx(float(solution.payoff[0, 0]), abs=1e-9)
        assert solution.row_mix.sum() == pytest.approx(1.0, abs=1e-9)
        assert solution.col_mix.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_budgets_give_idle_value(self):
        net = dep_pair(v0=1.0)
        coef = DependencyCoefficients(net)
        solution = two_camp_equilibrium(net, 0.0, 0.0)
        assert solution.value == pytest.approx(coef.s_total, abs=1e-9)

    def test_equilibrium_sandwich_and_deviations(self):
        rng = np.random.default_rng(151)
        for _ in range(3):
            net = random_network(rng, 3, dependency=True)
            kg, kb = float(rng.uniform(1, 10)), float(rng.uniform(1, 10))
            solution = two_camp_equilibrium(net, kg, kb)
            payoff = solution.payoff
            maximin = float(payoff.min(axis=1).max())
            minimax = float(payoff.max(axis=0).min())
            assert maximin - 1e-9 <= solution.value <= minimax + 1e-9
            assert float((payoff @ solution.col_mix).max()) <= solution.value + 1e-6
            assert float((solution.row_mix @ payoff).min()) >= solution.value - 1e-6

    def test_pure_equilibrium_reproduced_by_dynamics(self):
        rng = np.random.default_rng(157)
        reproduced = 0
        for _ in range(6):
            n = 3
            net = random_network(rng, n, dependency=True)
            kg, kb = float(rng.uniform(1, 6)), float(rng.uniform(1, 6))
            solution = two_camp_equilibrium(net, kg, kb)
            i = int(np.argmax(solution.row_mix))
            j = int(np.argmax(solution.col_mix))
            if solution.row_mix[i] < 1.0 - 1e-9 or solution.col_mix[j] < 1.0 - 1e-9:
                continue
            good, bad = oracle_profile(i, n), oracle_profile(j, n)
            value, kg1, kb1 = saddle_entry(net, good, bad, kg, kb)
            plans = profile_to_plans(
                n, good, bad, kg1, (kg - kg1) if good else 0.0, kb1, (kb - kb1) if bad else 0.0
            )
            _, sums = run_phases(net, [(plans[0], plans[2]), (plans[1], plans[3])], mode="dependency")
            assert sums[1] == pytest.approx(value, abs=1e-8)
            assert value == pytest.approx(solution.value, abs=1e-9)
            reproduced += 1
        assert reproduced >= 1

    def test_blocked_payoff_matches_scalar_oracle(self):
        # every entry of the blocked payoff against the scalar coefficients
        # and the saddle property of its splits on a 201-point budget grid;
        # node 0 has no camp weight and node n-1 no bias weight, so many
        # quadratics degenerate (zero curvature or no coupling)
        rng = np.random.default_rng(167)
        grid = np.linspace(0.0, 1.0, 201)
        degenerate = 0
        for n in range(2, 6):
            base = random_network(rng, n, dependency=True)
            theta = base.theta.copy()
            w0 = base.w0.copy()
            theta[0] = 0.0
            w0[n - 1] = 0.0
            net = Network.build(
                n, base.topology(), w0=w0, v0=base.v0, wg=base.wg, wb=base.wb, theta=theta
            )
            kg, kb = float(rng.uniform(1, 40)), float(rng.uniform(1, 40))
            coef = DependencyCoefficients(net)
            solution = two_camp_equilibrium(net, kg, kb)
            full = full_game_solution(net, kg, kb)
            m = n * n + 1
            for i in range(m):
                good = oracle_profile(i, n)
                for j in range(m):
                    bad = oracle_profile(j, n)
                    u00, qa, qb, qaa, qbb, qab = quad_coefficients(net, coef, good, bad, kg, kb)
                    if good is not None and bad is not None:
                        degenerate += qaa == 0.0 or qbb == 0.0

                    def u(t, s):
                        return u00 + qa * t + qb * s + qaa * t * t + qbb * s * s + qab * t * s

                    value = solution.payoff[i, j]
                    a, b = full.kg1[i, j], full.kb1[i, j]
                    ka = kg if good is not None else 0.0
                    kd = kb if bad is not None else 0.0
                    assert 0.0 <= a <= ka and 0.0 <= b <= kd
                    assert u(a, b) == pytest.approx(value, abs=1e-9)
                    assert np.max(u(grid * ka, b)) <= value + 1e-8
                    assert np.min(u(a, grid * kd)) >= value - 1e-8
                    single = saddle_entry(net, good, bad, kg, kb)
                    assert single == pytest.approx((value, a, b), abs=1e-9)
        assert degenerate > 0

    def test_node_guard_refuses_large_networks(self):
        rng = np.random.default_rng(163)
        net = random_network(rng, 41, dependency=True)
        with pytest.raises(ValueError, match="2829124-entry payoff; refusing n=41"):
            two_camp_equilibrium(net, 1.0, 1.0)
        assert "_solver" not in vars(net)  # refused before any solve


class TestDoubleOracle:
    # the oracle solves the game whole: every payoff entry, then one LP

    @staticmethod
    def check_against_full_game(net, kg, kb, start=None):
        solution = two_camp_equilibrium(net, kg, kb, start=start)
        full = full_game_solution(net, kg, kb)
        value = solution.value
        assert value == pytest.approx(full.value, abs=1e-9)
        exploit = max(float((full.payoff @ solution.col_mix).max()) - value,
                      value - float((solution.row_mix @ full.payoff).min()))
        # the best responses are summed over the sets, the full products over
        # every profile: the two round differently, by a few ulps of the payoff
        rounding = 16 * np.finfo(float).eps * (1.0 + float(np.abs(full.payoff).max()))
        assert exploit <= 1e-9
        assert exploit <= solution.gap + rounding
        assert np.array_equal(solution.payoff, full.payoff)
        rows, cols = np.ix_(solution.row_set, solution.col_set)
        assert np.array_equal(solution.restricted_kg1, full.kg1[rows, cols])
        assert np.array_equal(solution.restricted_kb1, full.kb1[rows, cols])
        outside = np.ones(net.n * net.n + 1, dtype=bool)
        outside[solution.row_set] = False
        assert not solution.row_mix[outside].any()
        outside[:] = True
        outside[solution.col_set] = False
        assert not solution.col_mix[outside].any()

    def test_random_small_networks_match_the_full_game(self):
        rng = np.random.default_rng(173)
        for n in range(2, 7):
            for _ in range(3):
                net = random_network(rng, n, dependency=True)
                kg, kb = float(rng.uniform(1, 20)), float(rng.uniform(1, 20))
                self.check_against_full_game(net, kg, kb)

    @pytest.mark.parametrize("n, seed", [(12, seed) for seed in range(6)]
                             + [(20, seed) for seed in range(3)])
    @pytest.mark.parametrize("w0", [0.3, 0.7])
    def test_preferential_attachment_matches_the_full_game(self, n, seed, w0):
        topology = ba_graph(n, 2, seed)
        net = generate_weights(topology, w0)
        # seeded from the supports of the other bias weight's equilibrium
        other = two_camp_equilibrium(generate_weights(topology, 1.0 - w0), 100.0, 50.0)
        for start in (None, other):
            self.check_against_full_game(net, 100.0, 50.0, start)

    def test_start_from_another_strategy_space_is_refused(self):
        start = two_camp_equilibrium(generate_weights(ba_graph(12, 2, 0), 0.3), 100.0, 50.0)
        net = generate_weights(ba_graph(13, 2, 0), 0.3)
        with pytest.raises(ValueError, match=r"over 145 profiles per camp, .* this 13-node "
                                             r"network has n\^2 \+ 1 = 170"):
            two_camp_equilibrium(net, 100.0, 50.0, start=start)
        assert "_solver" not in vars(net)  # refused before any solve

    def test_wrong_restricted_mix_fails_the_certificate(self, monkeypatch):
        solve = dep.solve_zero_sum

        def perturbed(payoff):
            row_mix, col_mix, value = solve(payoff)
            col_mix = col_mix.copy()
            col_mix[0] += 0.25
            return row_mix, col_mix, value

        monkeypatch.setattr(dep, "solve_zero_sum", perturbed)
        net = random_network(np.random.default_rng(179), 3, dependency=True)
        number = r"-?\d[\d.e+-]*"
        with pytest.raises(GameSolverError, match=rf"best row response {number} "
                                                  rf"and best column response {number}"):
            two_camp_equilibrium(net, 5.0, 4.0)

    def test_solution_pickles(self):
        solution = two_camp_equilibrium(generate_weights(ba_graph(8, 2, 0), 0.3), 100.0, 50.0)
        copy = pickle.loads(pickle.dumps(solution))
        assert "payoff" not in vars(copy)
        assert np.array_equal(copy.payoff, solution.payoff)
        assert copy.payoff.tobytes() == solution.payoff.tobytes()

    def test_sweep_and_cli_leave_the_full_payoff_unbuilt(self, monkeypatch, tmp_path):
        solutions = []

        def recording(*args, **kwargs):
            solutions.append(two_camp_equilibrium(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(harness, "two_camp_equilibrium", recording)
        topology = ba_graph(12, 2, 5)
        harness.sweep_w0(topology, WeightScheme(w0_grid=(0.7,)), "dependency2", Budgets(100.0, 50.0))
        graph = tmp_path / "pa.txt"
        save_edge_list(topology, graph)
        argv = ["strategy-dep", "--graph", str(graph), "--w0-grid", "0.7", "--kb", "50"]
        assert cli.main(argv) == 0
        assert len(solutions) == 2
        for solution in solutions:
            assert np.count_nonzero(solution.col_mix) > 1  # a mixed equilibrium
            assert "payoff" not in vars(solution)
