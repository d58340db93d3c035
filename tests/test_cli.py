import csv
import io
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import opinion_game
from opinion_game import (
    Network, ba_graph, compute_profile, generate_weights, load_edge_list, save_edge_list,
    two_camp_equilibrium,
)
from opinion_game import cli, harness
from opinion_game.cli import _network, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


class TestNetworkOptions:
    def test_v0_override_keeps_generated_weights(self, graph_file, monkeypatch):
        # the override replaces v0 only; it must not rebuild from the edge list
        monkeypatch.setattr(Network, "topology", None)
        args = build_parser().parse_args(
            ["centrality", "--graph", graph_file, "--symmetrize", "--w0-grid", "0.3",
             "--v0", "0.7"]
        )
        net = _network(args, "fixed")
        generated = generate_weights(load_edge_list(graph_file, symmetrize=True), 0.3)
        assert (net.weights != generated.weights).nnz == 0
        for name in ("w0", "wg", "wb", "theta"):
            np.testing.assert_array_equal(getattr(net, name), getattr(generated, name))
        np.testing.assert_array_equal(net.v0, np.full(net.n, 0.7))
        assert not net.v0.flags.writeable


class TestImportChain:
    def test_library_import_leaves_heavy_scipy_modules_unloaded(self):
        src = os.path.dirname(os.path.dirname(opinion_game.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.optimize")
        code = ("import sys, opinion_game; "
                f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == ""


class TestPublicSurface:
    NAMES = [
        "BAD", "Budgets", "CentralityProfile", "ConvergenceError", "DEFAULT_W0_GRID",
        "DependencyCoefficients", "GOOD", "GameSolution", "GameSolverError",
        "InvestmentPlan", "Network",
        "SWEEP_COLUMNS", "SWEEP_MODES", "Topology", "Violation", "WeightScheme",
        "ba_graph", "bounded_greedy", "compute_profile", "delta_matrix",
        "evaluate_two_phase", "generate_weights",
        "load_edge_list", "multi_election_scores",
        "myopic_loss", "myopic_strategy", "run_phases",
        "save_edge_list", "single_camp_optimal", "solve_zero_sum", "steady_state",
        "sweep_w0", "two_camp_equilibrium", "validate",
    ]

    def test_exports_exactly_these_names(self):
        assert len(self.NAMES) == 34
        assert sorted(opinion_game.__all__) == self.NAMES
        assert len(set(opinion_game.__all__)) == len(opinion_game.__all__)
        for name in opinion_game.__all__:
            getattr(opinion_game, name)

    def test_removed_aliases_are_gone(self):
        # each restated another function or served only tests; the single-slot
        # result types gave way to InvestmentPlan, farsighted_unbounded to
        # bounded_greedy with cap=inf, fixed_point_iterate to the plain loop
        # in the tests' conftest, profile_utility and delta_row to its
        # saddle_entry and resolvent_row, sweep_point to sweep_w0 with a
        # one-value grid, game_profiles to profile indices, and iter_phases
        # and dependency_camp_weights to run_phases, the one phase loop
        for name in ("apply_delta", "camp_weights", "MatrixGame",
                     "katz_r", "katz_s", "katz_multiphase", "OpinionState",
                     "PureInvestment", "PureProfile", "farsighted_unbounded",
                     "fixed_point_iterate", "profile_utility", "delta_row",
                     "sweep_point", "game_profiles", "iter_phases",
                     "dependency_camp_weights"):
            with pytest.raises(AttributeError):
                getattr(opinion_game, name)
        for owner, name in ((opinion_game.InvestmentPlan, "total"),
                            (opinion_game.InvestmentPlan, "violations"),
                            (opinion_game.CentralityProfile, "order"),
                            (opinion_game.Network, "resolvent")):
            with pytest.raises(AttributeError):
                getattr(owner, name)


class TestCentralityCommand:
    def test_matches_library_values(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "centrality", "--graph", graph_file, "--symmetrize", "--w0-grid", "0.3"
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["node", "r", "s"]
        net = generate_weights(load_edge_list(graph_file, symmetrize=True), 0.3)
        prof = compute_profile(net)
        r, s = prof.r, prof.s
        for row in rows:
            node = int(row[0])
            assert float(row[1]) == pytest.approx(r[node], abs=1e-9)
            assert float(row[2]) == pytest.approx(s[node], abs=1e-9)

    def test_higher_orders_add_columns(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "centrality", "--graph", graph_file, "--symmetrize", "--orders", "4"
        )
        assert code == 0
        header, _ = read_csv(out)
        assert header == ["node", "r", "s", "r3", "r4"]

    def test_orders_below_two_refused(self, capsys, graph_file):
        # these printed r and s as if --orders were 2
        for orders in ("1", "0", "-3"):
            code, out, err = run_cli(capsys, "centrality", "--graph", graph_file, "--orders", orders)
            assert (code, out) == (1, "")
            assert err == "error: orders must be at least 2\n"

    def test_rows_summing_nearly_to_one_solve(self, capsys):
        # every row of w sums to rho = 1 - 2 * 5e-11, so sum(r) = n / (1 - rho);
        # the dense residual check refused this network
        code, out, _ = run_cli(capsys, "centrality", "--camp-base", "5e-11", "--w0-grid", "0")
        assert code == 0
        _, rows = read_csv(out)
        total = sum(float(row[1]) for row in rows)
        assert abs(total / (len(rows) / (2 * 5e-11)) - 1) < 1e-5

    def test_missing_graph_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "centrality", "--graph", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error:" in err

    def test_node_id_too_large_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0 1\n1 99999999999999999999\n")
        code, _, err = run_cli(capsys, "centrality", "--graph", str(path))
        assert code == 1
        assert f"error: {path}: line 2: node id too large in '1 99999999999999999999'" in err

    def test_node_id_at_int64_max_fails_cleanly(self, capsys, tmp_path):
        # the node count, one more than the id, would not fit in int64
        path = tmp_path / "big.txt"
        path.write_text("9223372036854775807 0\n")
        code, _, err = run_cli(capsys, "centrality", "--graph", str(path))
        assert code == 1
        assert f"error: {path}: line 1: node id too large in '9223372036854775807 0'" in err

    def test_synthetic_fallback(self, capsys):
        code, out, err = run_cli(capsys, "centrality", "--seed", "1")
        assert code == 0
        assert "synthetic" in err
        _, rows = read_csv(out)
        assert len(rows) == 300


class TestSteadyStateCommand:
    def test_v0_override_produces_movement(self, capsys, graph_file):
        code, out, err = run_cli(
            capsys, "steady-state", "--graph", graph_file, "--symmetrize",
            "--w0-grid", "0.4", "--v0", "1.0",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["node", "v1", "v2"]
        assert all(float(row[1]) > 0 for row in rows)
        assert "phase opinion sums" in err

    def test_violations_beyond_ten_are_counted(self, capsys):
        # --v0 2 breaks every node of the 300-node synthetic graph: one line
        # per violation once wrote 302 lines to stderr
        code, out, err = run_cli(capsys, "steady-state", "--mode", "dependency", "--v0", "2")
        lines = err.splitlines()
        assert code == 1 and out == ""
        assert lines[0].startswith("no --graph given")
        assert len(lines) == 13
        assert all("outside [-1, 1]" in line for line in lines[1:11])
        assert lines[11:] == ["invalid network: 290 more violations not shown",
                              "error: 300 constraint violations"]

    def test_zero_bias_gives_zero_opinions(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "steady-state", "--graph", graph_file, "--symmetrize", "--v0", "1.0",
        )
        header, rows = read_csv(out)
        assert all(float(row[1]) == 0.0 for row in rows)


class TestStrategyFixedCommand:
    def test_unbounded_single_slot(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "strategy-fixed", "--graph", graph_file, "--symmetrize",
            "--w0-grid", "0.3", "--kg", "10", "--kb", "5",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["camp", "node", "phase", "amount", "k1", "k2", "objective"]
        camps = {row[0] for row in rows}
        assert camps == {"good", "bad"}
        good_rows = [row for row in rows if row[0] == "good"]
        assert sum(float(row[3]) for row in good_rows) == pytest.approx(10.0)

    def test_bounded_fills_unit_slots(self, capsys, graph_file):
        code, out, err = run_cli(
            capsys, "strategy-fixed", "--graph", graph_file, "--symmetrize",
            "--w0-grid", "0.3", "--kg", "2", "--kb", "0", "--bounded",
        )
        assert code == 0
        _, rows = read_csv(out)
        good_rows = [row for row in rows if row[0] == "good" and row[1] != ""]
        assert all(float(row[3]) <= 1.0 for row in good_rows)
        assert "myopic loss" in err


class TestCapOption:
    # --cap is checked before any work: without --bounded, strategy-fixed
    # once ignored it and now refuses it; dependency sweeps never read it
    @pytest.mark.parametrize("argv", [
        ("strategy-fixed", "--cap", "-3"),
        ("strategy-fixed", "--cap", "nan"),
        ("strategy-fixed", "--bounded", "--cap", "-3"),
        ("strategy-fixed", "--bounded", "--cap", "nan"),
        ("strategy-fixed", "--bounded", "--cap", "0"),
        ("sweep", "--mode", "dependency2", "--cap", "-3"),
        ("sweep", "--cap", "nan"),
        ("centrality", "--cap", "-3"),
    ])
    def test_bad_cap_refused_before_any_work(self, capsys, graph_file, argv):
        code, out, err = run_cli(capsys, *argv, "--graph", graph_file)
        assert code == 1
        assert out == ""
        assert err == "error: cap must be positive\n"

    def test_synthetic_graph_not_built_for_a_bad_cap(self, capsys):
        code, out, err = run_cli(capsys, "strategy-fixed", "--cap", "-3")
        assert (code, out, err) == (1, "", "error: cap must be positive\n")

    @pytest.mark.parametrize("cap", ["2", "1", "inf"])
    def test_cap_without_bounded_refused_before_any_work(self, capsys, cap):
        # the synthetic graph's note on stderr would show any work done
        code, out, err = run_cli(capsys, "strategy-fixed", "--cap", cap)
        assert (code, out, err) == (1, "", "error: --cap needs --bounded\n")

    def test_default_cap_is_one(self, capsys, graph_file):
        outputs = [run_cli(capsys, "strategy-fixed", "--graph", graph_file, "--kg", "3",
                           "--bounded", *extra) for extra in ([], ["--cap", "1"])]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_infinite_cap_accepted(self, capsys, graph_file):
        code, _, _ = run_cli(capsys, "strategy-fixed", "--graph", graph_file,
                             "--bounded", "--cap", "inf")
        assert code == 0


class TestW0GridOption:
    @pytest.mark.parametrize("argv", [
        ("sweep", "--w0-grid", ","), ("sweep", "--w0-grid", ""),
        ("strategy-fixed", "--w0-grid", ","), ("strategy-fixed", "--w0-grid", ""),
    ])
    def test_empty_grid_refused_before_any_work(self, capsys, argv):
        # an empty grid once ran sweep on the 20-point default grid and the
        # other commands at w0 = 0; the synthetic graph's note on stderr
        # would show any work done
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: w0_grid must be non-empty\n")


class TestBudgetOptions:
    # nan and infinite budgets once ran: strategy-dep printed a nan value and
    # strategy-fixed --bounded put the cap on every slot; every command now
    # refuses them before any work, as sweep always did
    @pytest.mark.parametrize("argv, err", [
        (("strategy-dep", "--mode", "dependency1", "--kg", "nan"), "kg must be finite "
         "and nonnegative, got nan"),
        (("strategy-fixed", "--bounded", "--kg", "nan", "--kb", "2"), "kg must be finite "
         "and nonnegative, got nan"),
        (("strategy-dep", "--mode", "dependency1", "--kg", "inf"), "kg must be finite "
         "and nonnegative, got inf"),
        (("centrality", "--kb", "-1"), "kb must be finite and nonnegative, got -1.0"),
    ])
    def test_bad_budget_refused_before_any_work(self, capsys, argv, err):
        # the synthetic graph's note on stderr would show any work done
        assert run_cli(capsys, *argv, "--w0-grid", "0.3") == (1, "", f"error: {err}\n")


class TestStrategyDepCommand:
    def test_single_camp_row(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "strategy-dep", "--graph", graph_file, "--symmetrize",
            "--mode", "dependency1", "--w0-grid", "0.4", "--kg", "5",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "beta", "kg1", "kg2", "value"]
        assert len(rows) == 1
        assert float(rows[0][2]) + float(rows[0][3]) in (pytest.approx(5.0), 0.0)

    def test_two_camp_support_rows(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "strategy-dep", "--graph", graph_file, "--symmetrize",
            "--w0-grid", "0.4", "--kg", "2", "--kb", "2",
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header[:4] == ["value", "g_alpha", "g_beta", "g_prob"]
        assert rows
        assert all(float(row[0]) == pytest.approx(float(rows[0][0])) for row in rows)
        # each camp's mix: one probability per schedule, in (0, 1], summing to 1
        for cols in ((1, 2, 3), (4, 5, 6)):
            mix = {tuple(row[k] for k in cols) for row in rows}
            probs = [float(schedule[-1]) for schedule in mix]
            assert all(0.0 < p <= 1.0 for p in probs)
            assert abs(sum(probs) - 1.0) <= 1e-9

    def test_phase_without_spending_names_no_node(self, capsys, tmp_path):
        # the bad camp spends its whole budget in phase 1, so its phase-2
        # node, once picked by rounding (0 in one row, 3 in the other), is
        # blank, and the two profiles print one schedule in one row with
        # their probabilities, 0.865774187022 and 0.134225812978, summed
        graph = str(tmp_path / "pa20.txt")
        save_edge_list(ba_graph(20, 2, 0), graph)
        code, out, _ = run_cli(capsys, "strategy-dep", "--graph", graph, "--w0-grid", "0.3",
                               "--kg", "100", "--kb", "50")
        assert code == 0
        assert out.splitlines()[1:] == ["33.8923953089,3,3,1,3,,1,72.56354619,27.43645381,50,0"]
        # at w0 = 0 phase-1 spending never reaches the final phase
        code, out, _ = run_cli(capsys, "strategy-dep", "--graph", graph, "--w0-grid", "0",
                               "--mode", "dependency1")
        assert (code, read_csv(out)[1]) == (0, [["", "3", "0", "100", "133.384841721"]])

    def test_tied_profiles_on_both_sides_print_one_row(self, capsys, graph_file, monkeypatch):
        # on the triangle, good profiles 1 and 2, nodes (0, 1) and (0, 2), and
        # bad profiles 3 and 5, nodes (1, 0) and (1, 2), spend everything in
        # phase 1: their four support pairs print one schedule, whose
        # probabilities count each profile once; good profile 8, nodes
        # (2, 2), prints its own
        solution = SimpleNamespace(
            value=0.5, row_set=[1, 2, 8], col_set=[3, 5],
            row_mix=np.array([0, 0.25, 0.25, 0, 0, 0, 0, 0, 0.5, 0]),
            col_mix=np.array([0, 0, 0, 0.5, 0, 0.5, 0, 0, 0, 0]),
            restricted_kg1=np.array([[2.0, 2.0], [2.0, 2.0], [1.0, 1.0]]),
            restricted_kb1=np.full((3, 2), 2.0),
        )
        monkeypatch.setattr(harness, "two_camp_equilibrium",
                            lambda net, kg, kb, start=None: solution)
        code, out, _ = run_cli(capsys, "strategy-dep", "--graph", graph_file, "--kg", "2", "--kb", "2")
        assert code == 0
        assert out.splitlines()[1:] == ["0.5,0,,0.5,1,,1,2,0,2,0", "0.5,2,2,0.5,1,,1,1,1,2,0"]

    def test_rows_down_to_the_sweep_support_cutoff_print(self, capsys, graph_file, monkeypatch):
        # on the triangle, good profile 2, nodes (0, 2), plays 5e-10 and
        # prints its own row, once dropped by a cutoff of 1e-9; profile 8 plays
        # exactly harness.SUPPORT_CUTOFF, 1e-12, and prints none, as it takes
        # no part in a sweep row's expected splits
        solution = SimpleNamespace(
            value=0.5, row_set=[1, 2, 8], col_set=[3],
            row_mix=np.array([0, 1 - 5e-10 - 1e-12, 5e-10, 0, 0, 0, 0, 0, 1e-12, 0]),
            col_mix=np.array([0, 0, 0, 1.0, 0, 0, 0, 0, 0, 0]),
            restricted_kg1=np.array([[1.0], [0.5], [0.25]]),
            restricted_kb1=np.full((3, 1), 2.0),
        )
        monkeypatch.setattr(harness, "two_camp_equilibrium",
                            lambda net, kg, kb, start=None: solution)
        code, out, _ = run_cli(capsys, "strategy-dep", "--graph", graph_file, "--kg", "2", "--kb", "2")
        assert code == 0
        assert out.splitlines()[1:] == ["0.5,0,1,0.999999999499,1,,1,1,1,2,0",
                                        "0.5,0,2,5e-10,1,,1,0.5,1.5,2,0"]

    def test_camp_that_stays_out_prints_no_nodes(self, capsys, tmp_path):
        # a camp with no budget plays stay-out, the last profile, n^2 = 144
        # here: both its nodes print blank and both its budgets 0
        topology = ba_graph(12, 2, 0)
        graph = str(tmp_path / "pa12.txt")
        save_edge_list(topology, graph)
        solution = two_camp_equilibrium(generate_weights(topology, 0.3), 100.0, 0.0)
        assert solution.col_set.tolist() == [144]
        argv = ("strategy-dep", "--graph", graph, "--w0-grid", "0.3")
        code, out, _ = run_cli(capsys, *argv, "--kb", "0")
        assert code == 0
        assert out.splitlines()[1:] == ["76.1440080124,3,3,1,,,1,47.184043273,52.815956727,0,0"]
        code, out, _ = run_cli(capsys, *argv, "--kg", "0", "--kb", "50")
        assert code == 0
        assert out.splitlines()[1:] == [
            "-28.6993953827,,,1,3,3,1,0,0,22.184043273,27.815956727"]

    def test_guard_refuses_synthetic_scale(self, capsys):
        code, _, err = run_cli(capsys, "strategy-dep", "--seed", "0")
        assert code == 1
        assert "refusing" in err


class TestSinglePointMatchesSweepRow:
    """strategy-fixed and strategy-dep solve their point as sweep solves a
    one-value grid, so each prints the sweep row's numbers as the same strings."""

    @pytest.fixture(params=[(12, 0), (40, 1)], ids=["ba-12-0", "ba-40-1"])
    def pa_graph(self, request, tmp_path):
        path = tmp_path / "pa.txt"
        save_edge_list(ba_graph(request.param[0], 2, request.param[1]), path)
        return str(path)

    @staticmethod
    def run(capsys, graph, *argv):
        code, out, err = run_cli(capsys, *argv, "--graph", graph, "--w0-grid", "0.3")
        assert code == 0, err
        return list(csv.DictReader(io.StringIO(out))), err

    def sweep_row(self, capsys, graph, *options):
        (row,), _ = self.run(capsys, graph, "sweep", *options)
        return row

    def test_bounded(self, capsys, pa_graph):
        rows, err = self.run(capsys, pa_graph, "strategy-fixed", "--bounded", "--kb", "50")
        (loss,) = [line.rsplit(": ", 1)[1] for line in err.splitlines()
                   if line.startswith("myopic loss")]
        row = self.sweep_row(capsys, pa_graph, "--mode", "bounded", "--kb", "50")
        assert {r["objective"] for r in rows} == {row["objective"]}
        assert loss == row["myopic_loss"]

    def test_single_camp(self, capsys, pa_graph):
        (point,), _ = self.run(capsys, pa_graph, "strategy-dep", "--mode", "dependency1")
        row = self.sweep_row(capsys, pa_graph, "--mode", "dependency1")
        assert point["value"] == row["objective"]

    def test_two_camp(self, capsys, pa_graph):
        rows, _ = self.run(capsys, pa_graph, "strategy-dep", "--kb", "50")
        row = self.sweep_row(capsys, pa_graph, "--mode", "dependency2", "--kb", "50")
        assert {r["value"] for r in rows} == {row["objective"]}


class TestSweepCommand:
    def test_default_grid_row_count_and_columns(self, capsys, graph_file, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--graph", graph_file, "--symmetrize",
            "--kg", "2", "--kb", "2", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        header, rows = read_csv(out_path.read_text())
        assert header == ["w0", "k1_good", "k2_good", "k1_bad", "k2_bad", "objective", "myopic_loss"]
        assert len(rows) == 20

    def test_dependency_sweep_blank_loss_column(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--graph", graph_file, "--symmetrize",
            "--mode", "dependency1", "--w0-grid", "0,0.5", "--kg", "3",
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(row[-1] == "" for row in rows)
        assert float(rows[0][1]) == 0.0

    def test_v0_is_ignored_with_a_note(self, capsys, graph_file, tmp_path):
        outputs = {}
        for v0 in ("0", "0.6"):
            out_path = tmp_path / f"sweep-{v0}.csv"
            code, _, err = run_cli(
                capsys, "sweep", "--graph", graph_file, "--symmetrize", "--mode", "dependency2",
                "--w0-grid", "0.2,0.6", "--kg", "3", "--kb", "2", "--v0", v0, "--out", str(out_path),
            )
            assert code == 0
            assert ("ignores --v0" in err) == (v0 != "0")
            outputs[v0] = out_path.read_bytes()
        assert outputs["0"] == outputs["0.6"]

    def test_bad_grid_rejected(self, capsys, graph_file):
        with pytest.raises(SystemExit):
            main(["sweep", "--graph", graph_file, "--w0-grid", "a,b"])
