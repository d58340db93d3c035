"""Property tests over every shape of network ``validate`` accepts.

The networks come from ``conftest.validated_networks``: 1-8 nodes with
self-loops, sinks and isolated nodes, rows of |w| summing up to 1 - 1e-9,
heterogeneous theta and v0 in [-1, 1]. Each strategy's plan is run through
the phase dynamics and must reproduce the value the strategy reports, the
solves themselves must match extended-precision refined solves, and the
capped greedy plan and the double oracle must match their whole-problem
oracles. On the iterative path, above ``DENSE_MAX_N`` nodes, r and s of
``compute_profile`` are compared with refined solves on seeded directed
graphs and on one preferential-attachment graph, where both start from the
Chebyshev series. The tests are derandomized: every run draws the same
networks and stores none.

A value near rho = 1 carries a rounding error of order eps / (1 - rho)
relative, which float64 cannot improve, so deviations of dense solves are
compared as |simulated - value| * (1 - rho) / (1 + |value|). An iterative
solve stops at its certificate instead, ``DEFAULT_TOL`` = 1e-10 in the
1-norm plus rounding, which lets one entry lie further off than that rule
allows, so iterative solves are held to their certificate.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opinion_game import (
    BAD,
    GOOD,
    Network,
    ba_graph,
    bounded_greedy,
    compute_profile,
    evaluate_two_phase,
    run_phases,
    single_camp_optimal,
    steady_state,
    two_camp_equilibrium,
    validate,
)

from conftest import (
    directed_family,
    full_game_solution,
    greedy_oracle,
    plan_total,
    refined_solve,
    validated_networks,
    within_certificate,
)

#: largest scaled deviation allowed, about 4,500 ulps
TOL = 1e-12

budgets = st.sampled_from([0.0, 1e-3, 1.0, 37.5, 100.0])


def scaled_gap(net, simulated: float, value: float) -> float:
    rho = float(net.row_abs_sums.max())
    return abs(simulated - value) * (1.0 - rho) / (1.0 + abs(value))


def worst_scaled_gap(net, got: np.ndarray, exact: np.ndarray) -> float:
    """:func:`scaled_gap` entry by entry, the largest."""
    rho = float(net.row_abs_sums.max())
    return float(np.max(np.abs(got - exact) * (1.0 - rho) / (1.0 + np.abs(exact))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(net=validated_networks())
def test_profile_matches_refined_solves(net):
    assert validate(net) == []
    prof = compute_profile(net)
    a = (np.eye(net.n) - net.weights.toarray()).T
    r = refined_solve(a, np.ones(net.n))
    s = refined_solve(a, net.w0 * r)
    assert worst_scaled_gap(net, prof.r, r) <= TOL
    assert worst_scaled_gap(net, prof.s, s) <= TOL


def assert_iterative_profile_certified(net):
    """r and s each within the iterative certificate of the refined solve of
    its own system; s's right-hand side is w0 o r of the r returned."""
    assert validate(net) == [] and not net._solver.dense  # iterative path
    prof = compute_profile(net)
    a = (np.eye(net.n) - net.weights.toarray()).T
    for z, rhs in ((prof.r, np.ones(net.n)), (prof.s, net.w0 * prof.r)):
        assert within_certificate(net, z, refined_solve(a, rhs), rhs, True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.1, 0.56, 0.9, 0.99]),
       w0=st.sampled_from([0.0, 0.005, 0.3]))
def test_iterative_profile_matches_refined_solves(seed, rho, w0):
    # complex spectra, on which the series is mostly abandoned and two
    # certified solves run
    assert_iterative_profile_certified(directed_family(seed, n=600, rho=rho, w0=min(w0, 1.0 - rho)))


def test_profile_from_the_series_matches_refined_solves():
    # rows of 0.56 and w0 = 0.3, as on the benchmark's 200k-node graph, but
    # on 600 nodes, where the solves still iterate
    top = ba_graph(600)
    net = Network.build(600, replace(top, weight=0.56 / top.out_degrees()[top.src]), w0=0.3)
    assert net._solver.katz_pair() is not None
    assert_iterative_profile_certified(net)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(net=validated_networks(), data=st.data())
def test_invested_steady_state_matches_refined_solve(net, data):
    assert validate(net) == []
    amounts = st.lists(st.floats(1e-3, 100.0), min_size=net.n, max_size=net.n)
    x, y = np.array(data.draw(amounts)), np.array(data.draw(amounts))
    v = steady_state(net, net.v0, x, y)
    rhs = net.w0 * net.v0 + net.wg * x - net.wb * y
    exact = refined_solve(np.eye(net.n) - net.weights.toarray(), rhs)
    assert worst_scaled_gap(net, v, exact) <= TOL


@settings(max_examples=300, deadline=None, derandomize=True)
@given(net=validated_networks(dependency=True), kg=budgets)
def test_single_camp_plan_reproduces_its_value_in_dependency_mode(net, kg):
    assert validate(net, "dependency") == []
    plan, value = single_camp_optimal(net, kg)
    # at most one node per phase, and the whole budget or nothing
    assert np.count_nonzero(plan.x1) <= 1 and np.count_nonzero(plan.x2) <= 1
    total = plan_total(plan)
    assert total == 0.0 or abs(total - kg) <= 2 * np.finfo(float).eps * kg
    zero = np.zeros(net.n)
    _, sums = run_phases(net, [(plan.x1, zero), (plan.x2, zero)], mode="dependency")
    assert scaled_gap(net, sums[-1], value) <= TOL


@settings(max_examples=300, deadline=None, derandomize=True)
@given(net=validated_networks(), budget=budgets, camp=st.sampled_from([GOOD, BAD]))
def test_unbounded_plan_matches_dynamics_and_beats_every_single_slot(net, budget, camp):
    assert validate(net) == []
    n = net.n
    prof = compute_profile(net)
    plan = bounded_greedy(net, budget, camp, cap=math.inf, profile=prof)

    def objective(x1, x2):
        # the good camp maximizes the final opinion total, the bad camp
        # minimizes it
        return evaluate_two_phase(net, x1, x2, None, None, prof) if camp == GOOD else \
            evaluate_two_phase(net, None, None, x1, x2, prof)

    value = objective(plan.x1, plan.x2)
    zero = np.zeros(n)
    phases = [(plan.x1, zero), (plan.x2, zero)]
    if camp == BAD:
        phases = [(zero, x) for x, _ in phases]
    _, sums = run_phases(net, phases)
    assert scaled_gap(net, sums[-1], value) <= TOL
    sign = 1.0 if camp == GOOD else -1.0
    for k in range(2 * n):
        slot = np.zeros(2 * n)
        slot[k] = budget
        other = objective(slot[:n], slot[n:])
        assert sign * (other - value) <= 0.0 or scaled_gap(net, other, value) <= TOL


@settings(max_examples=300, deadline=None, derandomize=True)
@given(net=validated_networks(), budget=budgets, camp=st.sampled_from([GOOD, BAD]),
       cap=st.sampled_from([1e-3, 0.5, 1.0, 7.0]))
def test_capped_plan_matches_the_greedy_oracle(net, budget, camp, cap):
    assert validate(net) == []
    prof = compute_profile(net)
    plan = bounded_greedy(net, budget, camp, cap=cap, profile=prof)
    x1, x2 = greedy_oracle(net, budget, camp, cap, prof)
    assert np.array_equal(plan.x1, x1) and np.array_equal(plan.x2, x2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(net=validated_networks(dependency=True), kg=budgets, kb=budgets)
def test_double_oracle_matches_the_full_game(net, kg, kb):
    # the bound is the one the solve's own gap certificate must meet
    assert validate(net, "dependency") == []
    solution = two_camp_equilibrium(net, kg, kb)
    full = full_game_solution(net, kg, kb)
    bound = 1e-9 * (1.0 + abs(full.value))
    assert abs(solution.value - full.value) <= bound
    exploit = float((full.payoff @ solution.col_mix).max() - (solution.row_mix @ full.payoff).min())
    assert exploit <= bound
