import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from opinion_game import (
    BAD,
    GOOD,
    ba_graph,
    bounded_greedy,
    compute_profile,
    evaluate_two_phase,
    generate_weights,
    multi_election_scores,
    myopic_loss,
    myopic_strategy,
    CentralityProfile,
    Network,
    run_phases,
)

from opinion_game.strategy_fixed import _by_worth

from conftest import (
    compositions,
    greedy_oracle,
    plan_total,
    plan_violations,
    random_network,
    scored_slots,
    two_node_net,
)


def pair_net(w0=0.3, wg=(0.2, 0.1), wb=(0.1, 0.2)):
    return two_node_net(w0=w0, v0=1.0, wg=list(wg), wb=list(wb))


class TestFarsightedUnbounded:
    def test_second_phase_wins_at_low_bias(self):
        plan = bounded_greedy(pair_net(), 10.0, GOOD, cap=math.inf)
        assert plan.x1.tolist() == [0.0, 0.0] and plan.x2.tolist() == [10.0, 0.0]

    def test_first_phase_wins_at_high_bias(self):
        plan = bounded_greedy(pair_net(w0=0.8), 10.0, GOOD, cap=math.inf)
        assert plan.x1.tolist() == [10.0, 0.0] and plan.x2.tolist() == [0.0, 0.0]

    def test_zero_weights_mean_no_investment(self):
        plan = bounded_greedy(pair_net(wg=(0.0, 0.0)), 10.0, GOOD, cap=math.inf)
        assert not plan.x1.any() and not plan.x2.any()

    def test_tie_prefers_second_phase(self):
        # a single self-loop-free node with w0 chosen so both slots tie
        net = two_node_net(w0=0.0, wg=[0.2, 0.2])
        # here s = 0, r > 0, so phase 2 wins; scale w0 for an exact tie instead
        plan = bounded_greedy(net, 1.0, GOOD, cap=math.inf)
        assert not plan.x1.any() and plan.x2.sum() == 1.0

    def test_budget_scaling_keeps_the_slot(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            net = random_network(rng, int(rng.integers(2, 10)))
            base = bounded_greedy(net, 1.0, GOOD, cap=math.inf)
            scaled = bounded_greedy(net, 37.5, GOOD, cap=math.inf)
            assert np.array_equal(base.x1 * 37.5, scaled.x1)
            assert np.array_equal(base.x2 * 37.5, scaled.x2)

    def test_grid_allocations_cannot_beat_it(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
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
                assert val <= best_val + 1e-9

    def test_uncapped_greedy_is_the_unbounded_optimum(self):
        # the scalar oracle's first slot of largest worth takes the whole
        # budget, or nothing fills when no worth is positive
        rng = np.random.default_rng(67)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(1, 12))
            base = random_network(rng, n, nonneg=bool(rng.integers(2)))
            unused = 1.0 - base.row_abs_sums - base.wg - base.wb
            for share in (0.0, 0.5, 1.0):
                # negated bad-camp weights: on a nonnegative network every
                # slot of that camp is worth <= 0, so it stays out
                net = replace(base, w0=share * unused, wb=-base.wb)
                prof = compute_profile(net)
                for camp, budget in itertools.product((GOOD, BAD), (0.0, 1.0, 100.0)):
                    plan = bounded_greedy(net, budget, camp, cap=math.inf, profile=prof)
                    x1, x2 = greedy_oracle(net, budget, camp, math.inf, prof)
                    assert np.array_equal(plan.x1, x1) and np.array_equal(plan.x2, x2)
                    filled = np.flatnonzero(np.concatenate([plan.x2, plan.x1]))
                    assert len(filled) <= 1 and plan_total(plan) in (0.0, budget)
                    outcomes.add((budget > 0, 2 - int(filled[0]) // n if len(filled) else None))
        # every outcome is reached: both phases, and staying out with a budget
        assert {(True, 1), (True, 2), (True, None), (False, None)} <= outcomes


class TestMyopic:
    def test_picks_top_single_phase_worth(self):
        plan = myopic_strategy(pair_net(), 5.0, BAD)
        assert plan.camp == BAD
        assert plan.x1.tolist() == [0.0, 5.0] and plan.x2.tolist() == [0.0, 0.0]

    def test_zero_weights_mean_no_investment(self):
        plan = myopic_strategy(pair_net(wb=(0.0, 0.0)), 5.0, BAD)
        assert not plan.x1.any() and not plan.x2.any()

    def test_zero_budget_means_no_investment(self):
        plan = myopic_strategy(pair_net(), 0.0, BAD)
        assert not plan.x1.any() and not plan.x2.any()

    def test_single_node(self):
        net = two_node_net(wb=[0.5, 0.0], w0=0.3)
        plan = myopic_strategy(net, 2.0, BAD)
        assert plan.x1.tolist() == [2.0, 0.0] and not plan.x2.any()

    def test_loss_on_low_bias_pair(self):
        assert myopic_loss(pair_net(), 1.0) == pytest.approx(0.16, abs=1e-12)

    def test_loss_vanishes_when_myopic_slot_is_optimal(self):
        assert myopic_loss(pair_net(w0=0.8), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_loss_zero_without_weights(self):
        assert myopic_loss(pair_net(wb=(0.0, 0.0)), 3.0) == 0.0

    def test_loss_matches_direct_utility_differencing(self):
        # the clipped term in the loss formula coincides with the myopic
        # camp's realized worth whenever parameters are nonnegative, which
        # is the regime of every worked setting
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            net = random_network(rng, n, dependency=True)
            kb = float(rng.uniform(0.5, 5.0))
            prof = compute_profile(net)
            far = bounded_greedy(net, kb, BAD, cap=math.inf, profile=prof)
            myo = myopic_strategy(net, kb, BAD, prof)
            val_far = evaluate_two_phase(net, None, None, far.x1, far.x2, prof)
            val_myo = evaluate_two_phase(net, None, None, myo.x1, myo.x2, prof)
            assert myopic_loss(net, kb, prof) == pytest.approx(val_myo - val_far, abs=1e-9)


class TestBoundedGreedy:
    def test_fills_best_slots_first(self):
        plan = bounded_greedy(pair_net(), 2.0, GOOD)
        assert_allclose(plan.x2, [1.0, 0.0])
        assert_allclose(plan.x1, [1.0, 0.0])

    def test_empty_plan_without_budget(self):
        plan = bounded_greedy(pair_net(), 0.0, GOOD)
        assert plan_total(plan) == 0.0

    def test_nonpositive_worth_is_never_filled(self):
        plan = bounded_greedy(pair_net(wg=(0.0, 0.0)), 5.0, GOOD)
        assert plan_total(plan) == 0.0

    def test_partial_unit_on_fractional_budget(self):
        plan = bounded_greedy(pair_net(), 1.5, GOOD)
        assert plan_total(plan) == pytest.approx(1.5)
        assert plan_violations(plan, budget=1.5, cap=1.0) == []

    def test_respects_custom_cap(self):
        plan = bounded_greedy(pair_net(), 2.0, GOOD, cap=0.5)
        assert float(np.max(np.concatenate([plan.x1, plan.x2]))) <= 0.5

    @pytest.mark.parametrize("cap", [0.0, -3.0, math.nan, -math.inf])
    def test_nonpositive_or_nan_cap_refused(self, cap):
        # nan once slipped through `cap <= 0` and failed later as
        # "x1 has non-finite entries"
        with pytest.raises(ValueError, match="^cap must be positive$"):
            bounded_greedy(pair_net(), 2.0, GOOD, cap=cap)

    @pytest.mark.parametrize("budget", [-1.0, math.nan, -math.inf, math.inf])
    def test_negative_nan_or_infinite_budget_refused(self, budget):
        # a nan budget once passed `budget < 0` and filled every slot to the
        # cap; an infinite one gave an infinite amount from the single-slot
        # strategies, a loss of inf from myopic_loss and "x1 has non-finite
        # entries" from bounded_greedy with cap=inf
        net = pair_net()
        for call, name in (
            (lambda: bounded_greedy(net, budget, GOOD), "budget"),
            (lambda: bounded_greedy(net, budget, GOOD, cap=math.inf), "budget"),
            (lambda: myopic_strategy(net, budget, GOOD), "budget"),
            (lambda: myopic_loss(net, budget), "kb"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative$"):
                call()

    def test_matches_exhaustive_discretized_search(self):
        rng = np.random.default_rng(67)
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for _ in range(4):
            n = int(rng.integers(2, 4))
            net = random_network(rng, n)
            prof = compute_profile(net)
            budget = float(rng.choice([1.0, 1.75, 2.5]))
            plan = bounded_greedy(net, budget, GOOD, profile=prof)
            greedy_val = evaluate_two_phase(net, plan.x1, plan.x2, None, None, prof)
            best_val = -np.inf
            for combo in itertools.product(levels, repeat=2 * n):
                alloc = np.asarray(combo)
                if alloc.sum() > budget + 1e-12:
                    continue
                val = evaluate_two_phase(net, alloc[:n], alloc[n:], None, None, prof)
                best_val = max(best_val, val)
            worths = np.concatenate([prof.s * net.wg, prof.r * net.wg])
            slack = 0.25 * max(float(worths.max()), 0.0) + 1e-9
            assert greedy_val >= best_val - 1e-9
            assert greedy_val <= best_val + slack


class TestMultiElectionScores:
    def test_reductions(self):
        net = pair_net()
        prof = compute_profile(net)
        assert_allclose(multi_election_scores(net, 1.0, 0.0, prof), prof.r, atol=0)
        assert_allclose(multi_election_scores(net, 0.0, 1.0, prof), prof.s, atol=0)

    def test_blend(self):
        net = two_node_net()
        assert_allclose(multi_election_scores(net, 0.5, 0.5), [1.6, 1.6], atol=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            multi_election_scores(two_node_net(), -0.1, 1.0)

    @pytest.mark.parametrize("d1, d2", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_weights_rejected(self, d1, d2):
        # nan once passed `d1 < 0` and returned nan scores
        with pytest.raises(ValueError, match="^weights must be nonnegative$"):
            multi_election_scores(two_node_net(), d1, d2)


class TestEvaluateTwoPhase:
    def test_no_investment_baseline(self):
        assert evaluate_two_phase(pair_net(), None, None, None, None) == pytest.approx(0.72)

    def test_pure_second_phase_investment(self):
        net = two_node_net(w0=0.3, v0=0.0, wg=[0.2, 0.1])
        assert evaluate_two_phase(net, None, [10.0, 0.0], None, None) == pytest.approx(4.0)

    def test_everything_zero(self):
        net = two_node_net(v0=0.0)
        assert evaluate_two_phase(net, None, None, None, None) == 0.0

    @pytest.mark.parametrize("x1, shape", [([5.0], (1,)), (5.0, ()), ([1.0] * 7, (7,))])
    def test_plan_vectors_must_have_length_n(self, x1, shape):
        # [5.0] and 5.0 once broadcast to 5 units at every node (3.2541...)
        # and a length-7 vector raised numpy's bare broadcast error
        net = generate_weights(ba_graph(6, 2, 0), 0.3)
        with pytest.raises(ValueError) as exc:
            evaluate_two_phase(net, x1, None, None, None)
        assert str(exc.value) == f"x1 must be a length-6 vector, got shape {shape}"

    def test_agrees_with_phase_chaining(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            net = random_network(rng, n, nonneg=False)
            x1, x2, y1, y2 = rng.uniform(0, 2, size=(4, n))
            _, sums = run_phases(net, [(x1, y1), (x2, y2)])
            closed = evaluate_two_phase(net, x1, x2, y1, y2)
            assert abs(closed - sums[1]) < 1e-8


class TestSlotWorthTies:
    """Exact ties between slot worths, on a 4-node cycle whose profile is
    given as dyadic r and s, so every worth r_i w_i and s_i w_i is exact.
    Every strategy breaks a tie toward phase 2, then the lowest node id."""

    def cycle(self):
        n = 4
        return Network.build(
            n, [(i, (i + 1) % n, 0.5) for i in range(n)], w0=0.25, wg=0.125, wb=0.125
        )

    @pytest.mark.parametrize(
        "r, s, slot, myopic_node, loss",
        [
            # node 0's phase-1 slot ties node 1's phase-2 slot at the top
            ([1, 2, 1, 1], [2, 1, 1, 1], (1, 2), 1, 0.5),
            # nodes 1 and 3 tie at the top in phase 2
            ([1, 2, 1, 2], [1, 1, 1, 1], (1, 2), 1, 0.5),
            # nodes 1 and 3 tie at the top in phase 1, every r ties
            ([1, 1, 1, 1], [1, 3, 1, 3], (1, 1), 0, 1.0),
        ],
    )
    def test_ties_break_toward_phase_two_then_lowest_id(self, r, s, slot, myopic_node, loss):
        net = self.cycle()
        prof = CentralityProfile(r=np.array(r, dtype=float), s=np.array(s, dtype=float))
        for camp in (GOOD, BAD):
            node, phase = slot
            far = bounded_greedy(net, 3.0, camp, cap=math.inf, profile=prof)
            assert (far.x1, far.x2)[phase - 1][node] == 3.0 and plan_total(far) == 3.0
            myo = myopic_strategy(net, 3.0, camp, prof)
            assert myo.x1[myopic_node] == 3.0 and plan_total(myo) == 3.0
        assert myopic_loss(net, 4.0, prof) == loss


class TestScoredSlots:
    """``bounded_greedy`` against the scalar ranking oracle: ``scored_slots``
    sorted by (-worth, -phase, node) and filled in that order."""

    def test_slot_inventory(self):
        net = pair_net()
        slots = scored_slots(net, GOOD)
        assert len(slots) == 4
        coeffs = {(sl.node, sl.phase): sl.coefficient for sl in slots}
        assert coeffs[(0, 1)] == pytest.approx(0.24)
        assert coeffs[(0, 2)] == pytest.approx(0.4)

    def assert_matches_oracle(self, net, budget, camp, cap, prof):
        plan = bounded_greedy(net, budget, camp, cap=cap, profile=prof)
        x1, x2 = greedy_oracle(net, budget, camp, cap, prof)
        np.testing.assert_array_equal(plan.x1, x1)
        np.testing.assert_array_equal(plan.x2, x2)
        return plan

    def test_random_networks(self):
        rng = np.random.default_rng(173)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            net = random_network(rng, n, nonneg=bool(rng.integers(0, 2)))
            prof = compute_profile(net)
            cap = float(rng.choice([0.3, 1.0, 2.5]))
            # budgets that are not multiples of the cap, and ones above 2n caps
            budget = float(rng.uniform(0.0, 2.5 * n * cap))
            for camp in (GOOD, BAD):
                self.assert_matches_oracle(net, budget, camp, cap, prof)

    def test_all_ties_on_a_regular_graph(self):
        # a 16-node cycle with arc weight 0.5 and w0 = 0.5 has r = s = 2 at
        # every node in exact arithmetic, so all 2n slots tie: phase 2 fills
        # first, then phase 1, each from the lowest id
        n = 16
        net = Network.build(n, [(i, (i + 1) % n, 0.5) for i in range(n)], w0=0.5, wg=0.25)
        prof = CentralityProfile(r=np.full(n, 2.0), s=np.full(n, 2.0))
        plan = self.assert_matches_oracle(net, 19.5, GOOD, 1.0, prof)
        assert plan.x2.tolist() == [1.0] * n
        assert plan.x1.tolist() == [1.0, 1.0, 1.0, 0.5] + [0.0] * (n - 4)
        plan = self.assert_matches_oracle(net, 2.0, GOOD, 0.75, prof)
        assert plan.x2.tolist() == [0.75, 0.75, 0.5] + [0.0] * (n - 3)
        assert plan.x1.tolist() == [0.0] * n
        # few distinct worths, so most slots tie with many others
        rng = np.random.default_rng(197)
        for _ in range(10):
            prof = CentralityProfile(r=rng.integers(1, 4, n) / 2.0, s=rng.integers(0, 4, n) / 2.0)
            self.assert_matches_oracle(net, float(rng.uniform(0.0, 2.0 * n)), GOOD, 1.0, prof)

    def test_budget_not_a_multiple_of_cap(self):
        rng = np.random.default_rng(179)
        net = random_network(rng, 12)
        prof = compute_profile(net)
        for budget, cap in ((3.7, 1.0), (0.3, 0.1), (5.0, 1.5), (1e-3, 2.0)):
            plan = self.assert_matches_oracle(net, budget, GOOD, cap, prof)
            assert plan_total(plan) == pytest.approx(budget)
            assert plan_violations(plan, budget, cap) == []

    def test_camp_with_no_positive_worth(self):
        rng = np.random.default_rng(181)
        base = random_network(rng, 10, dependency=True)  # r, s >= 0
        wg = -base.wg
        wg[::2] = 0.0
        net = Network.build(10, base.topology(), w0=base.w0, v0=base.v0, wg=wg, wb=base.wb)
        prof = compute_profile(net)
        assert np.all(np.concatenate([prof.s * net.wg, prof.r * net.wg]) <= 0.0)
        plan = self.assert_matches_oracle(net, 7.0, GOOD, 1.0, prof)
        assert plan_total(plan) == 0.0


class TestTopKRanking:
    """``bounded_greedy`` ranks only the slots at or above the worth of its
    reachable head, about budget / cap slots; ties at that threshold, heads
    that cover every slot and the full order past the head must all give
    the scalar oracle's plan."""

    assert_matches_oracle = TestScoredSlots.assert_matches_oracle

    def cycle(self, n, wg=0.25):
        return Network.build(n, [(i, (i + 1) % n, 0.5) for i in range(n)], w0=0.5, wg=wg)

    def test_uniform_cycle_ties_every_slot(self):
        # r = s = 2 everywhere: the threshold worth is every slot's worth, so
        # all 2n slots are ranked though the fill reaches only four
        n = 300
        prof = CentralityProfile(r=np.full(n, 2.0), s=np.full(n, 2.0))
        plan = self.assert_matches_oracle(self.cycle(n), 3.5, GOOD, 1.0, prof)
        assert plan.x2.tolist() == [1.0, 1.0, 1.0, 0.5] + [0.0] * (n - 4)
        assert plan.x1.tolist() == [0.0] * n

    def test_ties_straddle_the_threshold(self):
        # budget 2 reaches a head of four slots; the fourth-largest worth,
        # 2, is shared by slots inside and outside the head, across phases
        n = 8
        r = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 2.0, 1.0])
        s = np.array([2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 2.0])
        prof = CentralityProfile(r=r, s=s)
        net = self.cycle(n)
        plan = self.assert_matches_oracle(net, 2.0, GOOD, 1.0, prof)
        assert plan.x2.tolist() == [0.0, 0.0, 1.0] + [0.0] * 5
        assert plan.x1.tolist() == [0.0, 0.0, 0.0, 1.0] + [0.0] * 4
        plan = self.assert_matches_oracle(net, 5.5, GOOD, 1.0, prof)
        assert plan.x2.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        assert plan.x1.tolist() == [0.5, 0.0, 0.0, 1.0] + [0.0] * 4

    @pytest.mark.parametrize("budget, cap", [(2.0, 0.75), (0.75, 2.0), (2.0, 0.3), (7.0, 0.7)])
    def test_fractional_budget_over_cap(self, budget, cap):
        rng = np.random.default_rng(227)
        net = random_network(rng, 25, nonneg=False)
        prof = compute_profile(net)
        for camp in (GOOD, BAD):
            plan = self.assert_matches_oracle(net, budget, camp, cap, prof)
            assert plan_total(plan) <= budget + 1e-12
            assert plan_violations(plan, budget, cap) == []

    def test_budget_beyond_every_slot(self):
        # budget >= 2n caps: every positive slot fills, from the full order
        n = 12
        rng = np.random.default_rng(229)
        net = random_network(rng, n)
        prof = compute_profile(net)
        for budget in (2 * n * 1.5, 2 * n * 1.5 + 0.25, 1e6):
            plan = self.assert_matches_oracle(net, budget, GOOD, 1.5, prof)
            worth = np.concatenate([prof.s * net.wg, prof.r * net.wg])
            filled = np.concatenate([plan.x1, plan.x2])
            assert np.array_equal(filled > 0, worth > 0)

    def test_zero_budget(self):
        n = 50
        prof = CentralityProfile(r=np.arange(n, 0.0, -1.0), s=np.full(n, 1.0))
        plan = self.assert_matches_oracle(self.cycle(n), 0.0, GOOD, 1.0, prof)
        assert plan_total(plan) == 0.0

    def test_no_positive_worth(self):
        # every worth is zero or negative, so nothing fills even though the
        # head covers the largest worths
        n = 40
        rng = np.random.default_rng(233)
        r = -rng.integers(0, 3, n).astype(float)
        s = -rng.integers(0, 3, n).astype(float)
        r[::7] = 0.0
        prof = CentralityProfile(r=r, s=s)
        for budget in (0.5, 3.0, 100.0):
            plan = self.assert_matches_oracle(self.cycle(n), budget, GOOD, 1.0, prof)
            assert plan_total(plan) == 0.0

    def test_seeded_sweep_of_budgets_and_caps(self):
        rng = np.random.default_rng(239)
        for trial in range(60):
            n = int(rng.integers(1, 60))
            net = random_network(rng, n, nonneg=bool(trial % 2), density=0.2)
            if trial % 3 == 0:
                # few distinct worths, so ties are common at every threshold
                prof = CentralityProfile(r=rng.integers(-1, 3, n) / 2.0, s=rng.integers(-1, 3, n) / 2.0)
            else:
                prof = compute_profile(net)
            cap = float(rng.choice([0.1, 0.75, 1.0, 3.0]))
            budget = float(rng.choice([rng.uniform(0.0, 4.0 * cap), rng.uniform(0.0, 2.5 * n * cap)]))
            for camp in (GOOD, BAD):
                self.assert_matches_oracle(net, budget, camp, cap, prof)

    def test_order_past_the_head_is_the_full_stable_order(self):
        # the greedy stops inside the head; read to the end, the order is
        # still exactly the full stable sort, whatever the head
        rng = np.random.default_rng(241)
        for _ in range(40):
            size = int(rng.integers(1, 50))
            worth = rng.integers(-3, 4, size) / 4.0
            if rng.random() < 0.3:
                worth[rng.integers(0, size)] = np.nan
            want = np.argsort(-worth, kind="stable").tolist()
            for head in sorted({1, 2, int(rng.integers(1, size + 1)), size}):
                assert [int(k) for k in _by_worth(worth, head)] == want
