import gc
import math
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import spsolve

from opinion_game import (
    ConvergenceError,
    DependencyCoefficients,
    Network,
    Topology,
    ba_graph,
    compute_profile,
    delta_matrix,
    dependency_camp_weights,
    generate_weights,
    iter_phases,
    run_phases,
    steady_state,
    validate,
)
import opinion_game.dynamics as dynamics
from opinion_game.centrality import delta_columns
from opinion_game.dynamics import DEFAULT_TOL, EPS, STALL_ULPS, solve_linear

from conftest import (
    dense_steady_state,
    directed_family,
    plain_iterate,
    plain_phase,
    random_network,
    refined_solve,
    resolvent_row,
    two_node_net,
    within_certificate,
)


def scalar_net(w=0.5, w0=0.4):
    return Network.build(1, [(0, 0, w)], w0=w0)


class TestSteadyState:
    def test_scalar_geometric_series(self):
        net = scalar_net()
        v = steady_state(net, [1.0])
        assert_allclose(v, [0.8], atol=1e-12)

    def test_two_node_solve(self):
        v = steady_state(two_node_net(), [1.0, 1.0])
        assert_allclose(v, [0.6, 0.6], atol=1e-12)

    def test_zero_inputs_give_zero(self):
        net = two_node_net()
        assert_allclose(steady_state(net, [0.0, 0.0]), [0.0, 0.0], atol=0)

    def test_direct_and_iterative_paths_agree(self):
        net = two_node_net(wg=[0.05, 0.1], wb=[0.02, 0.0])
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 2.0])
        solved = steady_state(net, net.v0, x, y)
        assert_allclose(solved, dense_steady_state(net, net.v0, x, y), atol=1e-14)
        iterated, _ = plain_phase(net, net.v0, x, y, tol=1e-13)
        assert_allclose(iterated, solved, atol=1e-13)

    def test_effective_weight_override(self):
        net = two_node_net()
        v = steady_state(net, [0.0, 0.0], x=[1.0, 0.0], wg_eff=[0.25, 0.25])
        base = steady_state(net, [0.0, 0.0])
        assert v[0] > base[0]

    def test_linearity_in_inputs(self):
        rng = np.random.default_rng(17)
        net = random_network(rng, 12, nonneg=False)
        vp1, vp2 = rng.normal(size=(2, 12))
        x1, x2, y1, y2 = rng.uniform(0, 2, size=(4, 12))
        a, b = 0.3, -1.7
        combined = steady_state(net, a * vp1 + b * vp2, a * x1 + b * x2, a * y1 + b * y2)
        split = a * steady_state(net, vp1, x1, y1) + b * steady_state(net, vp2, x2, y2)
        assert_allclose(combined, split, atol=1e-10)


class TestPlainRecursion:
    """The paper's per-phase process, plain sweeps (the conftest oracle),
    settles where steady_state's closed form puts it."""

    def test_no_edges_converges_in_one_iteration(self):
        net = Network.build(2, [], w0=0.5)
        v, iters = plain_phase(net, [1.0, -1.0])
        assert iters == 1
        assert_allclose(v, [0.5, -0.5], atol=0)
        assert_allclose(steady_state(net, [1.0, -1.0]), v, atol=0)

    def test_two_node_reaches_direct_solution(self):
        net = two_node_net()
        v, _ = plain_phase(net, [1.0, 1.0], tol=1e-12)
        assert_allclose(v, [0.6, 0.6], atol=1e-11)
        assert_allclose(steady_state(net, [1.0, 1.0]), [0.6, 0.6], atol=1e-12)

    def test_scalar_iteration_count_tracks_contraction_rate(self):
        net = scalar_net()
        v, iters = plain_phase(net, [1.0], tol=1e-10)
        assert_allclose(v, [0.8], atol=1e-9)
        expected = math.log(1e-10) / math.log(0.5)
        assert abs(iters - expected) < 8

    def test_error_bound_holds_near_unit_contraction(self):
        # rho = 0.999: a step below tol would leave the result ~1e-7 away;
        # v = 0.999 v + 0.0005 settles at 0.5
        net = Network.build(1, [(0, 0, 0.999)], w0=0.0005, wg=0.0005)
        v, _ = plain_phase(net, [0.0], [1.0], tol=1e-10)
        solved = steady_state(net, [0.0], [1.0])
        assert np.max(np.abs(v - solved)) <= 1e-10
        assert np.max(np.abs(v - 0.5)) <= 1e-10
        assert np.max(np.abs(solved - 0.5)) <= 1e-10

    def test_default_budget_suffices(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_network(rng, int(rng.integers(2, 30)), edge_mass=0.99)
            v, _ = plain_phase(net, net.v0, tol=1e-12)
            assert np.max(np.abs(v - steady_state(net, net.v0))) <= 1e-10

    def test_iteration_cap_raises(self):
        # rho understated as 0.1 where the weights contract by 0.5: the budget
        # drawn from it runs out long before a step certifies 1e-14
        net = two_node_net()
        rhs = net.w0 * np.ones(2)
        with pytest.raises(ConvergenceError):
            plain_iterate(net.weights, rhs, np.ones(2), 0.1, tol=1e-14)

    def test_matches_direct_solve_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            net = random_network(rng, n, nonneg=bool(rng.integers(0, 2)))
            x, y = rng.uniform(0, 1, size=(2, n))
            direct = dense_steady_state(net, net.v0, x, y)
            iterated, _ = plain_phase(net, net.v0, x, y, tol=1e-10)
            assert np.max(np.abs(direct - iterated)) <= 1e-10
            assert np.max(np.abs(steady_state(net, net.v0, x, y) - direct)) < 1e-12


def hub_network(n=600, seed=5, rho=0.9):
    """Every node leans 8/9 of ``rho`` on three hubs and 1/9 on a random
    node, so the hubs' columns of w sum far above 1 (||w^T||_inf > 1) while
    every row sums to ``rho``."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        other = int(rng.integers(3, n))
        targets = {0: 0.3, 1: 0.3, 2: 0.2}
        targets[other] = targets.get(other, 0.0) + 0.1
        edges.extend((i, j, w * rho / 0.9) for j, w in targets.items())
    return Network.build(n, edges, w0=0.05, v0=rng.uniform(-1, 1, n), wg=0.02, wb=0.03)


def cycle_network(n, a, w0=1e-5):
    """Node i puts weight a on node i + 1 (mod n): rho = a, r = 1 / (1 - a)."""
    return Network.build(n, [(i, (i + 1) % n, a) for i in range(n)], w0=w0)


#: (kind, n, 1 - rho) of validated networks whose dense solves the residual
#: check once refused
NEAR_ONE = [("cycle", 10, 1e-10), ("cycle", 10, 1e-11), ("cycle", 100, 1e-10),
            ("cycle", 100, 1e-11), ("cycle", 512, 1e-9),
            ("pa", 200, 1e-9), ("pa", 200, 1e-10), ("pa", 200, 1e-11)]


class TestSolveLinear:
    @pytest.mark.parametrize("kind, n, gap", NEAR_ONE)
    def test_validated_rows_near_one_solve_dense(self, kind, n, gap):
        # |z| grows like 1 / (1 - rho), and the residual check compared it
        # with 1e-6 |rhs|: each of these raised "direct solve residual ...
        # too large". With cond(I - w) about 2 / (1 - rho), float64 leaves a
        # forward error of up to about eps / (1 - rho).
        make = cycle_network if kind == "cycle" else pa_network
        net = make(n, 1.0 - gap, w0=gap / 2)
        assert validate(net) == [] and validate(net, "dependency") == []
        assert net._solver.dense
        prof = compute_profile(net)
        a = (np.eye(n) - net.weights.toarray()).T
        r = refined_solve(a, np.ones(n))
        s = refined_solve(a, r * net.w0)
        limit = EPS / (1.0 - float(net.row_abs_sums.max()))
        assert np.abs(prof.r - r).sum() <= limit * np.abs(r).sum()
        assert np.abs(prof.s - s).sum() <= limit * np.abs(s).sum()

    def test_cancelling_inverse_entries_solve(self):
        # each node puts -a on the other: entries of the inverse near
        # 1 / (2 (1 - a)) cancel to r = 1 / (1 + a), and the rounding of that
        # sum leaves a residual above 8 n eps (|rhs| + rho |z|), which a
        # bound on |z| rather than on |delta| |rhs| refused
        a = 0.9999
        net = Network.build(2, [(0, 1, -a), (1, 0, -a)])
        assert validate(net) == []
        r = compute_profile(net).r
        assert np.abs(r * (1.0 + a) - 1.0).max() <= EPS / (1.0 - a)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_no_contraction_refused_on_the_dense_path(self, transpose):
        # I - w is invertible at rho = 2, but the rounding bound needs rho < 1
        net = Network.build(2, [(0, 1, 2.0), (1, 0, 2.0)])
        with pytest.raises(ConvergenceError, match="not a contraction"):
            solve_linear(net, np.ones(2), transpose=transpose)

    @pytest.mark.parametrize("net", [
        Network.build(2, [(0, 1, 2.0), (1, 0, 2.0)]),
        cycle_network(600, 1.0),
    ], ids=["invertible-rho-2", "cycle-600-rho-1"])
    def test_no_contraction_refused_by_every_resolvent_reader(self, net):
        # the resolvent readers once read the cached inverse of the 2-node
        # network, [-1/3, -2/3] in row 0, while the solves refused it, and
        # Network.resolvent still returned [[-1/3, -2/3], [-2/3, -1/3]];
        # rho >= 1 is now refused before any path is chosen, and the inverse
        # has no public reader but delta_matrix
        assert validate(net) != []
        assert not hasattr(net, "resolvent")
        for read in (lambda: delta_columns(net, 0, 1),
                     lambda: delta_matrix(net), lambda: compute_profile(net),
                     lambda: steady_state(net, np.zeros(net.n))):
            with pytest.raises(ConvergenceError, match="not a contraction"):
                read()
        assert "_solver" not in vars(net)  # refused, so no solver and no inverse

    @pytest.mark.parametrize("error", [1e-3, math.nan])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_wrong_cached_inverse_refused(self, error, transpose):
        net = cycle_network(10, 0.5)
        wrong = np.array(net._solver.inverse)
        wrong[3, 7] += error
        wrong.setflags(write=False)
        net._solver.__dict__["inverse"] = wrong
        with pytest.raises(ConvergenceError, match="^direct solve residual .* above its rounding bound"):
            solve_linear(net, np.ones(10), transpose=transpose)

    def test_validated_near_singular_cycle_solves(self):
        n, a, w0 = 600, 0.99999, 1e-5
        net = cycle_network(n, a, w0)
        assert validate(net) == []
        started = time.perf_counter()
        prof = compute_profile(net)
        assert time.perf_counter() - started < 1.0
        assert_allclose(prof.r, np.full(n, 1.0 / (1.0 - a)), rtol=1e-9)
        assert_allclose(prof.s, np.full(n, w0 / (1.0 - a) ** 2), rtol=1e-9)

    def test_transposed_iterative_solve_is_certified(self):
        net = hub_network()
        assert not net._solver.dense  # above the cutoff: iterates
        assert np.abs(net.weights.toarray()).sum(axis=0).max() > 1.0
        rhs = np.random.default_rng(7).uniform(-1, 1, net.n)
        z = solve_linear(net, rhs, transpose=True)
        exact = np.linalg.solve(np.eye(net.n) - net.weights.toarray().T, rhs)
        assert np.abs(z - exact).sum() <= DEFAULT_TOL

    def test_resolvent_rows_on_the_iterative_path(self):
        net = hub_network()
        with pytest.raises(ValueError):
            delta_matrix(net)
        exact = np.linalg.inv(np.eye(net.n) - net.weights.toarray())
        for j in (0, 1, 417):
            row = resolvent_row(net, j)
            assert np.abs(row - exact[j]).sum() <= DEFAULT_TOL

    def test_plain_iterative_solve_is_certified(self):
        net = hub_network()
        rhs = np.random.default_rng(11).uniform(-1, 1, net.n)
        z = solve_linear(net, rhs)
        exact = np.linalg.solve(np.eye(net.n) - net.weights.toarray(), rhs)
        assert np.max(np.abs(z - exact)) <= DEFAULT_TOL

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("n", [9, 600])
    def test_block_matches_single_solves(self, n, transpose):
        net = hub_network(n)
        block = np.random.default_rng(13).uniform(-1, 1, (n, 4))
        z = solve_linear(net, block, transpose=transpose)
        assert z.shape == (n, 4)
        for k in range(4):
            single = solve_linear(net, block[:, k], transpose=transpose)
            assert_allclose(z[:, k], single, rtol=0, atol=2 * DEFAULT_TOL)

    def test_path_choice(self):
        assert dynamics._solves_dense(hub_network(dynamics.DENSE_MAX_N, rho=0.99999))
        assert not dynamics._solves_dense(hub_network())  # 240 sweeps beat the inverse
        assert dynamics._solves_dense(hub_network(rho=0.999))  # 30,000 sweeps do not
        with pytest.raises(ConvergenceError, match="not a contraction"):
            cycle_network(600, 1.0)._solver  # no contraction, whatever the path
        assert not dynamics._solves_dense(cycle_network(dynamics.DENSE_LIMIT_N + 1, 0.99999))

    @pytest.mark.parametrize("a", [1.0, 1.0 - 1e-9])
    def test_large_network_near_unit_rows_refused_without_dense(self, monkeypatch, a):
        # above the dense limit: rho >= 1 is refused up front, a near-1 network
        # runs out of its sweep budget; neither forms an n x n array
        monkeypatch.setattr(dynamics, "MAX_SWEEPS", 1000)
        net = cycle_network(dynamics.DENSE_LIMIT_N + 1, a)
        # the message names the cause: no contraction, or too many sweeps for
        # a network this size (the weight constraints hold at rho < 1)
        message = ("not a contraction" if a >= 1.0 else
                   "a certified solve needs more than 1000 sweeps, and such networks "
                   f"are not supported above {dynamics.DENSE_LIMIT_N} nodes yet")
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match=message):
                solve_linear(net, np.ones(net.n), transpose=True)
            with pytest.raises(ConvergenceError, match=message):
                compute_profile(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < net.n ** 2
        assert "_solver" not in vars(net) or net._solver.inverse is None  # no inverse formed

    @pytest.mark.parametrize("transpose", [False, True])
    def test_near_unit_iterative_solve_within_rounding_bound(self, monkeypatch, transpose):
        # rows of 0.999 with hubs: |z| reaches 1e5, so rounding alone keeps
        # the step above tol * (1 - rho) / rho; the dense choice is overridden
        # to run the recursion
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        rho = 0.999
        gain = rho / (1.0 - rho)
        norm = (lambda v: np.abs(v).sum()) if transpose else (lambda v: np.abs(v).max())
        for seed in (5, 6):
            net = hub_network(seed=seed, rho=rho)
            # terms summed per entry of a sweep: the right-hand side plus a
            # node's in-degree for w^T, its out-degree for w
            w = net.weights
            degree = np.bincount(w.indices, minlength=net.n) if transpose else np.diff(w.indptr)
            d = int(degree.max()) + 1
            a = np.eye(net.n) - net.weights.toarray()
            for rhs in (np.ones(net.n), np.random.default_rng(7).uniform(-1, 1, net.n)):
                exact = refined_solve(a.T if transpose else a, rhs)
                z = solve_linear(net, rhs, transpose=transpose)
                stop = max(DEFAULT_TOL, gain * STALL_ULPS * EPS * norm(exact))
                rounding = d * EPS * (rho * norm(exact) + norm(rhs)) / (1.0 - rho)
                assert norm(z - exact) <= stop + rounding

    def test_transposed_view_is_built_once(self, monkeypatch):
        # scipy makes a new CSC object on every .T, which on a few nodes
        # costs more than the product; the network's solver keeps one, a
        # view sharing w's arrays
        calls = []
        transpose = sparse.csr_array.transpose

        def counted(self, *args, **kwargs):
            calls.append(1)
            return transpose(self, *args, **kwargs)

        monkeypatch.setattr(sparse.csr_array, "transpose", counted)
        for net in (two_node_net(), pa_network(600, 0.56, w0=0.3)):  # dense, iterative
            calls.clear()
            rhs = np.linspace(-1.0, 1.0, net.n)
            first = solve_linear(net, rhs, transpose=True)
            for _ in range(3):
                assert np.array_equal(solve_linear(net, rhs, transpose=True), first)
            compute_profile(net)
            assert len(calls) == 1 and net._solver.wt.format == "csc"
            assert np.shares_memory(net._solver.wt.data, net.weights.data)

    def test_rhs_shape_checked(self):
        with pytest.raises(ValueError):
            solve_linear(two_node_net(), np.ones(3))
        with pytest.raises(ValueError):
            solve_linear(two_node_net(), np.ones((3, 2)))


def pa_network(n, rho, **params):
    """Preferential-attachment topology (arcs both ways) whose rows of w each
    sum to ``rho``: w = diag(rho / degree) A with A symmetric, so w is similar
    to a symmetric matrix and its spectrum is real."""
    top = ba_graph(n)
    return Network.build(n, replace(top, weight=rho / top.out_degrees()[top.src]), **params)


def directed_network(n, src, dst, rho):
    """Arcs src -> dst, each row of w summing to ``rho`` or, on a node with
    no out-arcs, to 0."""
    src, dst = np.asarray(src), np.asarray(dst)
    weight = rho / np.bincount(src, minlength=n)[src]
    return Network.build(n, Topology(n, src, dst, weight))


#: the sweep loop itself, kept apart from the counting wrapper below
ITERATE = dynamics._iterate


def sweep_counts(monkeypatch):
    """Record the sweeps of every ``_iterate`` call made through the module,
    solve_linear's among them."""
    counts = []

    def counted(*args, **kwargs):
        z, sweeps = ITERATE(*args, **kwargs)
        counts.append(sweeps)
        return z, sweeps

    monkeypatch.setattr(dynamics, "_iterate", counted)
    return counts


def plain_sweeps(net, rhs, transpose):
    """Sweeps of the unweighted recursion on the same system."""
    mat = net.weights.T if transpose else net.weights
    rho = float(net.row_abs_sums.max())
    return plain_iterate(mat, rhs, rhs, rho, transpose)[1]


def sparse_exact(net, rhs, transpose=False):
    """Sparse LU solve; exact to rounding on cycles, which have no fill-in."""
    w = net.weights.T if transpose else net.weights
    return spsolve(sparse.csc_matrix(sparse.identity(net.n) - w), rhs)


class TestChebyshevSweeps:
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("rho", [0.56, 0.9, 0.99])
    def test_accuracy_on_a_real_spectrum(self, monkeypatch, rho, transpose):
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        net = pa_network(1500, rho)
        rng = np.random.default_rng(23)
        rhs_all = np.column_stack([np.ones(net.n), rng.uniform(-1, 1, (net.n, 5))])
        a = np.eye(net.n) - net.weights.toarray()
        exact_all = refined_solve(a.T if transpose else a, rhs_all)
        for cols in (0, 1, slice(2, 6)):  # ones, signed, a 4-column block
            rhs, exact = rhs_all[:, cols], exact_all[:, cols]
            z = solve_linear(net, rhs, transpose=transpose)
            assert z.shape == rhs.shape
            assert within_certificate(net, z, exact, rhs, transpose)

    def test_half_the_sweeps_on_a_real_spectrum(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        counts = sweep_counts(monkeypatch)
        net = pa_network(1500, 0.56)
        ones, signed = np.ones(net.n), np.random.default_rng(29).uniform(-1, 1, net.n)
        # plain ones: the error lies on the eigenvector of rho, where plain
        # sweeps meet their bound exactly and rounding can seem to break it
        for rhs, transpose in ((ones, True), (signed, True), (ones, False)):
            solve_linear(net, rhs, transpose=transpose)
            assert counts.pop() <= 0.6 * plain_sweeps(net, rhs, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("a", [0.56, 0.9, 0.99])
    def test_complex_spectrum_falls_back_to_plain_sweeps(self, monkeypatch, a, transpose):
        # a directed cycle's spectrum is a * (n-th roots of unity): the
        # weights amplify its complex modes, so the guard must take over
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        counts = sweep_counts(monkeypatch)
        net = cycle_network(3000, a)
        rhs = np.random.default_rng(31).uniform(-1, 1, net.n)
        z = solve_linear(net, rhs, transpose=transpose)
        assert within_certificate(net, z, sparse_exact(net, rhs, transpose), rhs, transpose)
        assert counts.pop() <= plain_sweeps(net, rhs, transpose) + 2

    @pytest.mark.parametrize("rho", [0.56, 0.99])
    @pytest.mark.parametrize("graph", ["new-to-old", "sinks"])
    def test_acyclic_parts_keep_plain_pace(self, monkeypatch, graph, rho):
        # where sinks or acyclic parts put the spectral radius well below
        # rho, plain sweeps beat weighted ones; with rows of rho the weights
        # once took 32-99 sweeps on these graphs where plain sweeps took 13-35
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        counts = sweep_counts(monkeypatch)
        n = 5000
        rng = np.random.default_rng(37)
        if graph == "new-to-old":  # each new node's arcs to the older ones it joined
            top = ba_graph(n)
            half = len(top.src) // 2
            src, dst = top.src[:half], top.dst[:half]
        else:  # a random digraph, a fifth of whose nodes have no out-arcs
            degree = rng.poisson(2, n) * (rng.random(n) > 0.2)
            arcs = np.unique(np.column_stack([np.repeat(np.arange(n), degree),
                                              rng.integers(0, n, degree.sum())]), axis=0)
            src, dst = arcs[arcs[:, 0] != arcs[:, 1]].T
        net = directed_network(n, src, dst, rho)
        rhs_all = np.column_stack([np.ones(n), rng.uniform(-1, 1, (n, 4))])
        for transpose in (False, True):
            exact_all = sparse_exact(net, rhs_all, transpose)
            for cols in (0, 1, slice(2, 5)):  # ones, signed, a 3-column block
                rhs, exact = rhs_all[:, cols], exact_all[:, cols]
                z = solve_linear(net, rhs, transpose=transpose)
                assert within_certificate(net, z, exact, rhs, transpose)
                assert counts.pop() <= plain_sweeps(net, rhs, transpose) + 3

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("rho", [0.56, 0.9, 0.99])
    def test_depth_two_network_keeps_plain_pace(self, monkeypatch, rho, transpose):
        # three layers, arcs from each to the next: w^3 = 0, so plain sweeps
        # end at sweep 3 with a step of exactly 0; weighted from sweep 2 on,
        # the solve took 21-75 sweeps. (With rhs = 1 in the max-norm the
        # steps match a symmetric network's step for step, and the weights
        # stay: ROADMAP item 3.)
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        counts = sweep_counts(monkeypatch)
        k = 2000
        tail = np.repeat(np.arange(2 * k), 2)
        head = k + (tail % k + np.tile([0, 1], 2 * k)) % k + np.where(tail < k, 0, k)
        net = directed_network(3 * k, tail, head, rho)
        rhs = np.random.default_rng(41).uniform(-1, 1, (3 * k, 2))
        z = solve_linear(net, rhs, transpose=transpose)
        assert within_certificate(net, z, sparse_exact(net, rhs, transpose), rhs, transpose)
        assert plain_sweeps(net, rhs, transpose) == 3
        # transposed, sweep 2 already shrinks the step faster than weighted
        # sweeps would, so the sweeps stay plain
        assert counts.pop() <= (3 if transpose else 3 + 3)

    @pytest.mark.parametrize("rho", [0.999, 0.9999])
    def test_near_unit_symmetric_network_solves(self, rho):
        # every row of w sums to rho, so 1^T (I - w^T) = (1 - rho) 1^T gives
        # sum(r) = n / (1 - rho) and sum(s) = sum(w0 o r) / (1 - rho) exactly;
        # at 0.9999 the plain recursion ran out of its 100,000 sweeps
        n = 5000
        net = pa_network(n, rho, w0=(1.0 - rho) / 2, wg=(1.0 - rho) / 4, wb=(1.0 - rho) / 4)
        assert validate(net) == []
        assert not net._solver.dense  # iterative path
        prof = compute_profile(net)
        assert prof.r.sum() == pytest.approx(n / (1.0 - rho), rel=1e-9)
        assert prof.s.sum() == pytest.approx((net.w0 * prof.r).sum() / (1.0 - rho), rel=1e-9)


def series_terms(monkeypatch):
    """Record (products, taken) for every ``_katz_series`` call: the sparse
    products the series made, and whether it returned a start."""
    calls = []
    series = dynamics._katz_series

    def counted(mat, rho, n):
        products = []

        class Counting:
            def __matmul__(self, v):
                products.append(1)
                return mat @ v

        out = series(Counting(), rho, n)
        calls.append((len(products), out is not None))
        return out

    monkeypatch.setattr(dynamics, "_katz_series", counted)
    return calls


def two_solves(net):
    """r and s from two transposed solves, as compute_profile runs them
    where the series does not apply."""
    r = solve_linear(net, np.ones(net.n), transpose=True)
    return r, solve_linear(net, net.w0 * r, transpose=True)


def one_norm_errors(net, prof):
    """1-norm errors of r, s and the higher orders against refined solves."""
    a = (np.eye(net.n) - net.weights.toarray()).T
    exact = [refined_solve(a, np.ones(net.n))]
    errors = []
    for vec in (prof.r, prof.s, *prof.higher):
        errors.append(np.abs(vec - exact[-1]).sum())
        exact.append(refined_solve(a, net.w0 * exact[-1]))
    return errors


class TestKatzSeries:
    @pytest.mark.parametrize("rho", [0.3, 0.56, 0.9])
    def test_matches_the_oracle(self, monkeypatch, rho):
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        calls = series_terms(monkeypatch)
        net = pa_network(600, rho, w0=(1.0 - rho) / 2)
        errors = one_norm_errors(net, compute_profile(net))
        assert [taken for _, taken in calls] == [True]
        assert max(errors) < DEFAULT_TOL

    def test_third_order_matches_the_oracle(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        calls = series_terms(monkeypatch)
        net = pa_network(600, 0.56, w0=0.2)
        errors = one_norm_errors(net, compute_profile(net, orders=3))
        assert [taken for _, taken in calls] == [True]
        assert len(errors) == 3 and max(errors) < DEFAULT_TOL

    def test_fewer_sweeps_than_two_solves(self, monkeypatch):
        # rows of 0.56 at w0 = 0.3, as on the benchmark's 200k-node graph:
        # 56 sweeps for two solves, 35 products from the series on
        counts = sweep_counts(monkeypatch)
        net = pa_network(5000, 0.56, w0=0.3)
        assert not net._solver.dense  # iterative path
        r, s = two_solves(net)
        solves = sum(counts)
        counts.clear()
        calls = series_terms(monkeypatch)
        prof = compute_profile(net)
        ((terms, taken),) = calls
        assert taken and terms + sum(counts) <= 40 < solves
        for vec, ref in ((prof.r, r), (prof.s, s)):
            assert np.abs(vec - ref).sum() < 2 * DEFAULT_TOL

    @pytest.mark.parametrize("graph", ["hub", 0, 1, 2, 3])
    def test_abandoned_on_complex_spectra(self, monkeypatch, graph):
        # the series grows on these spectra: it is dropped within five
        # products and the two solves run as they would without it
        monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        net = hub_network() if graph == "hub" else directed_family(graph)
        counts = sweep_counts(monkeypatch)
        r, s = two_solves(net)
        solves = sum(counts)
        counts.clear()
        calls = series_terms(monkeypatch)
        prof = compute_profile(net)
        ((terms, taken),) = calls
        assert not taken and terms + sum(counts) <= solves + 5
        assert np.array_equal(prof.r, r) and np.array_equal(prof.s, s)

    @pytest.mark.parametrize("case", ["w0 = 0", "per-node w0", "dense"])
    def test_other_networks_take_two_solves(self, monkeypatch, case):
        if case != "dense":
            monkeypatch.setattr(dynamics, "_solves_dense", lambda net: False)
        calls = series_terms(monkeypatch)
        w0 = {"w0 = 0": 0.0, "per-node w0": np.linspace(0.0, 0.4, 600), "dense": 0.3}[case]
        net = pa_network(dynamics.DENSE_MAX_N if case == "dense" else 600, 0.56, w0=w0)
        r, s = two_solves(net)
        prof = compute_profile(net)
        assert calls == []
        assert np.array_equal(prof.r, r) and np.array_equal(prof.s, s)

    def test_no_arcs(self, monkeypatch):
        # rho = 0: r = 1 and s = w0 exactly, and nothing divides by rho
        calls = series_terms(monkeypatch)
        net = Network.build(5000, [], w0=0.3)
        with np.errstate(all="raise"):
            prof = compute_profile(net)
        assert calls == []
        assert np.array_equal(prof.r, np.ones(5000)) and np.array_equal(prof.s, np.full(5000, 0.3))


class TestSweepBudget:
    # rows of 0.999: the budget once bought two sweeps past the first step's
    # geometric estimate, a factor rho^2 = 0.998, less than the rounding of
    # the last steps, and these validated networks raised ConvergenceError
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_near_unit_cycle_meets_its_bound(self, seed):
        n = 3000
        rng = np.random.default_rng(seed)
        v0 = rng.uniform(-1, 1, n)
        x = rng.uniform(0, 1, n)
        net = Network.build(n, [(i, (i + 1) % n, 0.999) for i in range(n)],
                            w0=5e-4, wg=2.5e-4, wb=2.5e-4, v0=v0)
        assert validate(net) == []
        assert not net._solver.dense  # iterative path
        rhs = net.w0 * net.v0 + net.wg * x
        v = steady_state(net, net.v0, x=x)
        assert within_certificate(net, v, sparse_exact(net, rhs), rhs, False)


def path_decisions(monkeypatch):
    """Record the network of every path decision (``_solves_dense`` call) and
    of every rho refusal (a solver made, which refuses rho >= 1 once)."""
    decisions, refusals = [], []
    choose, make = dynamics._solves_dense, dynamics._Solver.__init__

    def counted_choose(net):
        decisions.append(net)
        return choose(net)

    def counted_make(self, net):
        refusals.append(net)
        make(self, net)

    monkeypatch.setattr(dynamics, "_solves_dense", counted_choose)
    monkeypatch.setattr(dynamics._Solver, "__init__", counted_make)
    return decisions, refusals


class TestOneSolverPerNetwork:
    def test_one_path_decision_per_network(self, monkeypatch):
        # each reader once chose the path and refused rho >= 1 again: 10
        # decisions and 16 refusals on the dense network, 3 and 5 on the
        # iterative one
        decisions, refusals = path_decisions(monkeypatch)
        dense = replace(generate_weights(ba_graph(12, 2, 0), 0.3), v0=np.full(12, 0.2))
        compute_profile(dense)
        DependencyCoefficients(dense)
        delta_matrix(dense)
        delta_columns(dense, 2, 5)
        steady_state(dense, dense.v0)
        iterative = pa_network(600, 0.56, w0=0.3)
        compute_profile(iterative)
        solve_linear(iterative, np.ones(600))
        steady_state(iterative, np.full(600, 0.2))
        assert dense._solver.dense and not iterative._solver.dense
        assert decisions == refusals == [dense, iterative]
        # a refused network chooses no path and caches nothing, so each read
        # refuses it again
        refused = cycle_network(600, 1.0)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="not a contraction"):
                compute_profile(refused)
        assert decisions == [dense, iterative] and len(refusals) == 4
        assert "_solver" not in vars(refused)

    @pytest.mark.parametrize("make", [two_node_net, lambda: pa_network(600, 0.56, w0=0.3)],
                             ids=["dense", "iterative"])
    def test_solver_keeps_its_network_collectable(self, make):
        # the solver holds w, w^T, w0, n and rho, not the network: a
        # network -> solver -> network cycle would keep every network, and a
        # 200k-node one's arrays, alive until a full collection
        gc.disable()
        try:
            net = make()
            solve_linear(net, np.ones(net.n), transpose=True)
            if net._solver.dense:
                delta_matrix(net)
            ref = weakref.ref(net)
            del net
            assert ref() is None
        finally:
            gc.enable()


class TestRunPhases:
    def test_two_phase_sums_on_pair(self):
        net = two_node_net()
        zero = np.zeros(2)
        _, sums = run_phases(net, [(zero, zero)] * 2)
        assert_allclose(sums, [1.2, 0.72], atol=1e-10)

    def test_single_phase_reduces_to_steady_state(self):
        net = two_node_net(wg=[0.05, 0.1])
        x = np.array([1.0, 2.0])
        zero = np.zeros(2)
        final, sums = run_phases(net, [(x, zero)])
        assert_allclose(final, steady_state(net, net.v0, x), atol=1e-12)
        assert sums == [pytest.approx(final.sum())]

    def test_zero_everything_gives_zero_sums(self):
        net = two_node_net(v0=0.0)
        zero = np.zeros(2)
        _, sums = run_phases(net, [(zero, zero)] * 3)
        assert sums == [0.0, 0.0, 0.0]

    def test_needs_at_least_one_phase(self):
        net = two_node_net()
        with pytest.raises(ValueError, match="^need at least one phase$"):
            run_phases(net, [])
        with pytest.raises(TypeError):
            run_phases(net)  # plans are the one way to describe phases

    def test_premultiplied_sum_identity(self):
        # the opinion total after a phase equals the influence-weighted total
        # of the inputs: sum_i r_i (w0_i v_prev_i + wg_i x_i - wb_i y_i)
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            net = random_network(rng, n, nonneg=False)
            x, y = rng.uniform(0, 1, size=(2, n))
            v = steady_state(net, net.v0, x, y)
            r = compute_profile(net).r
            expected = float(r @ (net.w0 * net.v0) + r @ (net.wg * x - net.wb * y))
            assert abs(v.sum() - expected) < 1e-8

    def test_multiphase_closed_form(self):
        # the p-phase total decomposes over look-ahead influence vectors:
        # sum_i v_i^(p) = r^(p) . (w0 o v0) + sum_q r^(p-q+1) . (wg o x_q - wb o y_q)
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            net = random_network(rng, n, nonneg=False)
            plans = [tuple(rng.uniform(0, 1, size=(2, n))) for _ in range(3)]
            _, sums = run_phases(net, plans)
            prof = compute_profile(net, 3)
            orders = dict(enumerate((prof.r, prof.s, *prof.higher), start=1))
            expected = float(orders[3] @ (net.w0 * net.v0))
            for q, (x, y) in enumerate(plans, start=1):
                expected += float(orders[3 - q + 1] @ (net.wg * x - net.wb * y))
            assert abs(sums[-1] - expected) < 1e-8

    def test_dependency_mode_recomputes_camp_weights(self):
        rng = np.random.default_rng(41)
        net = random_network(rng, 6, dependency=True)
        x1, y1, x2, y2 = rng.uniform(0, 1, size=(4, 6))
        states = list(iter_phases(net, [(x1, y1), (x2, y2)], mode="dependency"))
        assert len(states) == 2 and all(isinstance(v, np.ndarray) for v in states)
        wg1, wb1 = dependency_camp_weights(net.theta, net.w0, net.v0)
        v1 = steady_state(net, net.v0, x1, y1, wg1, wb1)
        assert_allclose(states[0], v1, atol=1e-12)
        wg2, wb2 = dependency_camp_weights(net.theta, net.w0, v1)
        v2 = steady_state(net, v1, x2, y2, wg2, wb2)
        assert_allclose(states[1], v2, atol=1e-12)


class TestDependencyCampWeights:
    def test_neutral_opinion_splits_evenly(self):
        wg, wb = dependency_camp_weights([0.2, 0.4], [0.5, 0.5], [0.0, 0.0])
        assert_allclose(wg, [0.1, 0.2])
        assert_allclose(wb, [0.1, 0.2])

    def test_positive_lean_favors_good_camp(self):
        wg, wb = dependency_camp_weights([0.2], [0.5], [1.0])
        assert_allclose(wg, [0.15])
        assert_allclose(wb, [0.05])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        theta=st.floats(0.0, 1.0),
        w0=st.floats(0.0, 1.0),
        v=st.floats(-1.0, 1.0),
    )
    def test_weights_always_sum_to_theta(self, theta, w0, v):
        wg, wb = dependency_camp_weights(np.array([theta]), np.array([w0]), np.array([v]))
        assert wg[0] + wb[0] == pytest.approx(theta, abs=1e-12)
        assert wg[0] >= -1e-12 and wb[0] >= -1e-12
