import numpy as np
import pytest

from opinion_game import (
    Budgets,
    InvestmentPlan,
    Network,
    load_edge_list,
    save_edge_list,
    validate,
)

from conftest import random_network


def write(tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_symmetrize_duplicates_both_directions(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 1\n"), symmetrize=True)
        assert topo.n == 2
        assert {(i, j) for i, j, _ in topo.edges} == {(0, 1), (1, 0)}

    def test_empty_file_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no nodes"):
            load_edge_list(write(tmp_path, ""))

    def test_weighted_arcs_and_isolated_node(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 2 0.5\n2 0 0.25\n"), symmetrize=False)
        assert topo.n == 3
        assert set(topo.edges) == {(0, 2, 0.5), (2, 0, 0.25)}
        assert topo.out_degrees().tolist() == [1, 0, 1]

    def test_parse_failure_reports_line_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(write(tmp_path, "0 1\n0 x\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list(write(tmp_path, "0 1 2 3\n"))

    def test_negative_id(self, tmp_path):
        with pytest.raises(ValueError, match="negative node id"):
            load_edge_list(write(tmp_path, "-1 0\n"))

    def test_duplicate_edge(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            load_edge_list(write(tmp_path, "0 1 0.2\n0 1 0.3\n"))

    def test_symmetrize_collides_with_reverse_listing(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            load_edge_list(write(tmp_path, "0 1\n1 0\n"), symmetrize=True)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "# header\n\n0 1 0.5\n  # indented comment\n"))
        assert topo.edges == ((0, 1, 0.5),)

    def test_default_weight_placeholder(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 1\n"), default_weight=0.7)
        assert topo.edges == ((0, 1, 0.7),)

    def test_self_loop_symmetrized_once(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 0 0.4\n"), symmetrize=True)
        assert topo.edges == ((0, 0, 0.4),)

    def test_load_save_load_idempotent(self, tmp_path):
        first = load_edge_list(write(tmp_path, "0 1 0.5\n1 2 -0.25\n2 0 0.1\n"))
        out = tmp_path / "roundtrip.txt"
        save_edge_list(first, out)
        second = load_edge_list(out)
        assert second.n == first.n
        assert set(second.edges) == set(first.edges)


class TestNetworkBuild:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network.build(2, [(0, 1, 0.1), (0, 1, 0.2)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Network.build(2, [(0, 2, 0.1)])

    def test_vectors_are_read_only(self):
        net = Network.build(2, [(0, 1, 0.5)], w0=0.2)
        with pytest.raises(ValueError):
            net.w0[0] = 0.9

    def test_scalar_broadcast(self):
        net = Network.build(3, w0=0.25)
        assert net.w0.tolist() == [0.25, 0.25, 0.25]


class TestValidate:
    def test_exactly_saturated_node_is_ok(self):
        net = Network.build(1, [(0, 0, 0.5)], w0=0.4, wg=0.05, wb=0.05)
        assert validate(net) == []

    def test_unit_self_weight_violates_row_sum(self):
        net = Network.build(1, [(0, 0, 1.0)])
        messages = [v.message for v in validate(net)]
        assert any("not strictly below 1" in m for m in messages)
        assert all(v.node == 0 for v in validate(net))

    def test_total_mass_above_one(self):
        net = Network.build(1, [(0, 0, 0.5)], w0=0.4, wg=0.2, wb=0.05)
        assert any("exceeds 1" in v.message for v in validate(net))

    def test_dependency_rejects_negative_edge(self):
        net = Network.build(2, [(0, 1, -0.1)], w0=0.1)
        assert validate(net, "fixed") == []
        dep = validate(net, "dependency")
        assert any("negative weight" in v.message and v.node == 0 for v in dep)

    def test_dependency_negative_edges_reported_in_row_order(self):
        net = Network.build(3, [(2, 0, -0.25), (1, 2, 0.3), (0, 1, -0.1)], w0=0.1)
        assert [str(v) for v in validate(net, "dependency")] == [
            "node 0: negative weight -0.1 on edge (0, 1) in dependency mode",
            "node 2: negative weight -0.25 on edge (2, 0) in dependency mode",
        ]

    def test_dependency_extra_checks(self):
        net = Network.build(2, [(0, 1, 0.2)], w0=[-0.1, 0.0], v0=[0.0, 1.5], theta=[0.1, -0.2])
        messages = [v.message for v in validate(net, "dependency")]
        assert any("negative bias weight" in m for m in messages)
        assert any("outside [-1, 1]" in m for m in messages)
        assert any("negative camp total" in m for m in messages)

    def test_bad_mode_rejected(self):
        net = Network.build(1)
        with pytest.raises(ValueError):
            validate(net, "other")

    def test_valid_networks_have_decaying_powers(self):
        # admissible rows keep the spectral radius below 1, so repeatedly
        # applying the weight matrix must shrink any vector
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            net = random_network(rng, n, nonneg=bool(rng.integers(0, 2)))
            assert validate(net) == []
            vec = rng.uniform(-1.0, 1.0, n)
            for _ in range(60):
                vec = net.weights @ vec
            assert np.max(np.abs(vec)) < 1e-3


class TestBudgetsAndPlans:
    def test_budgets_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Budgets(-1.0, 2.0)
        with pytest.raises(ValueError):
            Budgets(1.0, float("nan"))

    def test_plan_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            InvestmentPlan("good", [-0.1, 0.0], [0.0, 0.0])

    def test_plan_rejects_unknown_camp(self):
        with pytest.raises(ValueError, match="camp"):
            InvestmentPlan("ugly", [0.0], [0.0])

    def test_plan_budget_violations(self):
        plan = InvestmentPlan("good", [1.0, 2.0], [0.5, 0.0])
        assert plan.total() == pytest.approx(3.5)
        assert plan.violations(budget=10.0) == []
        assert any("exceeds budget" in m for m in plan.violations(budget=3.0))
        assert any("per-node cap" in m for m in plan.violations(budget=10.0, cap=1.0))
