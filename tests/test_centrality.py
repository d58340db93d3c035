import numpy as np
import pytest
from numpy.testing import assert_allclose

from opinion_game import (
    Network,
    compute_profile,
    delta_matrix,
)

from opinion_game.centrality import delta_columns
from opinion_game.dynamics import solve_linear

from conftest import neumann_transpose_apply, random_network, resolvent_row, two_node_net


class TestKatzVectors:
    def test_no_edges_gives_ones_and_bias(self):
        prof = compute_profile(Network.build(3, [], w0=[0.2, 0.5, 0.0]))
        assert_allclose(prof.r, np.ones(3), atol=0)
        assert_allclose(prof.s, [0.2, 0.5, 0.0], atol=0)

    def test_two_node_values(self):
        prof = compute_profile(two_node_net(), orders=3)
        assert_allclose(prof.r, [2.0, 2.0], atol=1e-12)
        assert_allclose(prof.s, [1.2, 1.2], atol=1e-12)
        assert_allclose(prof.higher[0], [0.72, 0.72], atol=1e-12)

    def test_scalar_geometric(self):
        net = Network.build(1, [(0, 0, 0.5)], w0=0.4)
        assert_allclose(compute_profile(net).r, [2.0], atol=1e-12)

    def test_zero_bias_kills_s(self):
        net = two_node_net(w0=0.0)
        assert_allclose(compute_profile(net).s, [0.0, 0.0], atol=0)

    def test_multiphase_base_cases(self):
        # more orders extend the chain without changing its first two links
        net = two_node_net()
        two, three = compute_profile(net), compute_profile(net, 3)
        assert np.array_equal(three.r, two.r) and np.array_equal(three.s, two.s)
        assert two.higher == () and len(three.higher) == 1
        for orders in (1, 0, -3):
            with pytest.raises(ValueError, match="^orders must be at least 2$"):
                compute_profile(net, orders)

    def test_residuals_of_defining_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = random_network(rng, int(rng.integers(2, 30)), nonneg=False)
            wt = net.weights.toarray().T
            prof = compute_profile(net)
            r, s = prof.r, prof.s
            assert np.max(np.abs(r - wt @ r - 1.0)) < 1e-8
            assert np.max(np.abs(s - wt @ s - r * net.w0)) < 1e-8

    def test_nonnegative_weights_keep_r_at_least_one(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            net = random_network(rng, int(rng.integers(2, 20)), nonneg=True)
            assert np.all(compute_profile(net).r >= 1.0 - 1e-12)

    def test_truncated_series_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 9)), nonneg=True)
            r_oracle = neumann_transpose_apply(net, np.ones(net.n))
            s_oracle = neumann_transpose_apply(net, r_oracle * net.w0)
            third_oracle = neumann_transpose_apply(net, s_oracle * net.w0)
            prof = compute_profile(net, 3)
            assert np.max(np.abs(prof.r - r_oracle)) < 1e-8
            assert np.max(np.abs(prof.s - s_oracle)) < 1e-8
            assert np.max(np.abs(prof.higher[0] - third_oracle)) < 1e-8

    def test_damping_of_higher_orders(self):
        # with nonnegative parameters and bias weights uniformly below c,
        # each extra look-ahead order shrinks by at most c * the resolvent gain
        rng = np.random.default_rng(27)
        for _ in range(10):
            net = random_network(rng, int(rng.integers(2, 15)), dependency=True)
            cap = float(np.max(net.w0))
            gain = float(np.max(np.abs(delta_matrix(net)).sum(axis=0)))
            prof = compute_profile(net, 4)
            orders = (prof.r, prof.s, *prof.higher)
            for hi, lo in zip(orders, orders[1:]):
                assert np.max(np.abs(lo)) <= cap * gain * np.max(np.abs(hi)) + 1e-12


class TestProfile:
    def test_profile_orders(self):
        net = two_node_net()
        prof = compute_profile(net, orders=4)
        assert len(prof.higher) == 2
        assert_allclose(prof.higher[1], [0.432, 0.432], atol=1e-12)


class TestResolventRows:
    def test_identity_when_no_edges(self):
        net = Network.build(3, [])
        assert_allclose(resolvent_row(net, 1), [0.0, 1.0, 0.0], atol=0)

    def test_two_node_row(self):
        net = two_node_net()
        assert_allclose(resolvent_row(net, 0), [4.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_rows_sum_to_r(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            net = random_network(rng, int(rng.integers(2, 12)), nonneg=False)
            stacked = np.array([resolvent_row(net, j) for j in range(net.n)])
            assert np.max(np.abs(stacked.sum(axis=0) - compute_profile(net).r)) < 1e-8

    def test_rows_are_cached(self):
        # the inverse is formed once per network, and neither it nor a
        # column block read from it can be written through
        net = two_node_net()
        full = delta_matrix(net)
        assert delta_matrix(net) is full
        assert not full.flags.writeable and not full[1].flags.writeable
        block = delta_columns(net, 1, 2)
        assert np.shares_memory(block, full) and not block.flags.writeable

    def test_matrix_agrees_with_rows(self):
        rng = np.random.default_rng(43)
        net = random_network(rng, 7, nonneg=False)
        full = delta_matrix(net)
        for j in range(net.n):
            assert np.array_equal(resolvent_row(net, j), full[j])

    def test_solve_linear_matches_matrix(self):
        rng = np.random.default_rng(47)
        net = random_network(rng, 9, nonneg=False)
        vec = rng.normal(size=9)
        assert_allclose(solve_linear(net, vec), delta_matrix(net) @ vec, atol=1e-9)
