from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opinion_game.harness as harness
from opinion_game import (
    Budgets,
    Topology,
    WeightScheme,
    ba_graph,
    generate_weights,
    sweep_w0,
    two_camp_equilibrium,
    validate,
)
from opinion_game.harness import DEFAULT_W0_GRID, SWEEP_COLUMNS

from conftest import arc_list, loop_build_weights


def two_regular_topology():
    # 3-cycle made bidirectional: every node has out-degree 2
    src, dst = (0, 1, 2), (1, 2, 0)
    return Topology(3, src + dst, dst + src, [0.0] * 6)


class TestWeightScheme:
    def test_default_grid_has_twenty_points(self):
        scheme = WeightScheme()
        assert len(scheme.w0_grid) == 20
        assert scheme.w0_grid[0] == 0.0
        assert scheme.w0_grid[-1] == pytest.approx(0.95)

    def test_invalid_camp_base(self):
        with pytest.raises(ValueError):
            WeightScheme(camp_base=0.5)
        with pytest.raises(ValueError):
            WeightScheme(camp_base=0.0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            WeightScheme(w0_grid=(0.2, 1.0))
        with pytest.raises(ValueError):
            WeightScheme(w0_grid=())


class TestGenerateWeights:
    def test_reference_split_at_zero_bias(self):
        net = generate_weights(two_regular_topology(), 0.0)
        assert_allclose(net.wg, 0.1)
        assert_allclose(net.wb, 0.1)
        assert_allclose(net.weights.toarray()[0, 1], 0.4)
        assert_allclose(net.theta, 0.2)

    def test_proportional_scaling_at_half(self):
        net = generate_weights(two_regular_topology(), 0.5)
        assert_allclose(net.wg, 0.05)
        assert_allclose(net.weights.toarray()[0, 1], 0.2)
        row_total = net.wg + net.wb + net.row_abs_sums
        assert_allclose(row_total, 0.5, atol=1e-12)
        assert_allclose(net.theta, 0.2)

    def test_every_grid_point_validates_in_both_modes(self):
        topo = ba_graph(40, 2, seed=1)
        for w0 in WeightScheme().w0_grid:
            net = generate_weights(topo, w0)
            assert validate(net, "fixed") == []
            assert validate(net, "dependency") == []

    def test_scaling_law_between_grid_points(self):
        topo = ba_graph(25, 2, seed=4)
        lo = generate_weights(topo, 0.15)
        hi = generate_weights(topo, 0.6)
        ratio = (1.0 - 0.15) / (1.0 - 0.6)
        assert_allclose(lo.wg / hi.wg, ratio, atol=1e-12)
        assert_allclose(lo.wb / hi.wb, ratio, atol=1e-12)
        lo_w = lo.weights.tocoo()
        hi_w = hi.weights.toarray()
        for i, j, w in zip(lo_w.row, lo_w.col, lo_w.data):
            assert w / hi_w[i, j] == pytest.approx(ratio, abs=1e-12)

    def test_matches_per_arc_formula(self, monkeypatch):
        topo = ba_graph(40, 3, seed=2)

        def refused(self):
            raise AssertionError("the ids of a checked Topology were checked again")

        # the weights go onto the checked arcs without a second check, and the
        # caller's Topology keeps its own weights
        monkeypatch.setattr(Topology, "__post_init__", refused)
        net = generate_weights(topo, 0.35)
        assert not topo.weight.any()
        deg = Counter(topo.src.tolist())
        want = loop_build_weights(
            topo.n, [(i, j, (1.0 - 2.0 * 0.1) * (1.0 - 0.35) / deg[i]) for i, j, _ in arc_list(topo)]
        )
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(net.weights, name), getattr(want, name)), name

    def test_isolated_node_keeps_camp_weights(self):
        topo = Topology(2, [0], [1], [0.0])
        net = generate_weights(topo, 0.2)
        assert net.wg[1] == pytest.approx(0.08)
        assert net.row_abs_sums[1] == 0.0

    def test_bias_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            generate_weights(two_regular_topology(), 1.0)


class TestBaGraph:
    def test_size_and_symmetry(self):
        topo = ba_graph(50, 2, seed=7)
        assert topo.n == 50
        arcs = set(zip(topo.src.tolist(), topo.dst.tolist()))
        assert all((j, i) in arcs for i, j in arcs)
        assert all(i != j for i, j in arcs)

    def test_deterministic_for_a_seed(self):
        assert arc_list(ba_graph(30, 2, seed=3)) == arc_list(ba_graph(30, 2, seed=3))
        assert arc_list(ba_graph(30, 2, seed=3)) != arc_list(ba_graph(30, 2, seed=4))

    def test_arcs_pinned_for_a_seed(self):
        # the random draw sequence, and so every synthetic CLI graph, is fixed
        topo = ba_graph(6, 2, seed=0)
        assert list(zip(topo.src.tolist(), topo.dst.tolist())) == [
            (2, 0), (2, 1), (3, 0), (3, 2), (4, 0), (4, 3), (5, 0), (5, 3),
            (0, 2), (1, 2), (0, 3), (2, 3), (0, 4), (3, 4), (0, 5), (3, 5),
        ]
        assert topo.weight.tolist() == [0.0] * 16

    def test_minimum_degree(self):
        topo = ba_graph(40, 3, seed=9)
        assert int(topo.out_degrees().min()) >= 3

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ba_graph(2, 2)


class TestSweep:
    def test_default_grid_produces_twenty_rows(self):
        topo = ba_graph(20, 2, seed=5)
        rows = sweep_w0(topo, mode="bounded", budgets=Budgets(5.0, 5.0))
        assert len(rows) == 20
        assert [row["w0"] for row in rows] == list(DEFAULT_W0_GRID)
        for row in rows:
            assert set(row) == set(SWEEP_COLUMNS)

    def test_budget_splits_are_complementary(self):
        topo = ba_graph(20, 2, seed=5)
        budgets = Budgets(5.0, 3.0)
        for mode in ("bounded", "dependency1"):
            for row in sweep_w0(topo, WeightScheme(w0_grid=(0.0, 0.4, 0.8)), mode, budgets):
                if mode == "bounded":
                    assert row["k1_good"] + row["k2_good"] == pytest.approx(budgets.kg)
                    assert row["k1_bad"] + row["k2_bad"] == pytest.approx(budgets.kb)
                else:
                    total = row["k1_good"] + row["k2_good"]
                    assert total == pytest.approx(budgets.kg) or total == 0.0

    def test_dependency_single_camp_spends_phase_two_at_zero_bias(self):
        topo = ba_graph(30, 2, seed=6)
        (row,) = sweep_w0(topo, WeightScheme(w0_grid=(0.0,)), "dependency1", Budgets(10.0, 0.0))
        assert row["k1_good"] == 0.0
        assert row["k2_good"] == pytest.approx(10.0)
        assert row["myopic_loss"] is None

    def test_zero_budgets_zero_objective(self):
        topo = ba_graph(15, 2, seed=8)
        rows = sweep_w0(topo, WeightScheme(w0_grid=(0.0,)), "bounded", Budgets(0.0, 0.0))
        assert rows[0]["objective"] == pytest.approx(0.0)

    def test_two_camp_mode_returns_equilibrium_row(self):
        topo = two_regular_topology()
        (row,) = sweep_w0(topo, WeightScheme(w0_grid=(0.3,)), "dependency2", Budgets(2.0, 2.0))
        assert row["myopic_loss"] is None
        assert row["k1_good"] + row["k2_good"] == pytest.approx(2.0)
        assert row["k1_bad"] + row["k2_bad"] == pytest.approx(2.0)
        # symmetric instance: camps cancel and the value stays at the idle level
        assert row["objective"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_warm_two_camp_sweep_matches_cold_solves(self, monkeypatch, seed):
        starts = []

        def recording(*args, start=None, **kwargs):
            starts.append(start)
            return two_camp_equilibrium(*args, start=start, **kwargs)

        monkeypatch.setattr(harness, "two_camp_equilibrium", recording)
        topo = ba_graph(12, 2, seed)
        budgets = Budgets(100.0, 50.0)
        rows = sweep_w0(topo, mode="dependency2", budgets=budgets)
        assert [row["w0"] for row in rows] == list(DEFAULT_W0_GRID)
        assert starts[0] is None and all(start is not None for start in starts[1:])
        for row in rows:
            assert tuple(row) == SWEEP_COLUMNS
            cold = two_camp_equilibrium(generate_weights(topo, row["w0"]), budgets.kg, budgets.kb)
            assert abs(row["objective"] - cold.value) <= 1e-9 * (1.0 + abs(cold.value))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sweep_w0(two_regular_topology(), WeightScheme(w0_grid=(0.1,)), "other")
