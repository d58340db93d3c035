import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import opinion_game.game as game
from opinion_game import GameSolverError, solve_zero_sum

from conftest import bland_oracle


def deviation_gaps(payoff, row_mix, col_mix, value):
    """(best row deviation gain, best column deviation gain) against value."""
    row_gain = float((payoff @ col_mix).max() - value)
    col_gain = float(value - (row_mix @ payoff).min())
    return row_gain, col_gain


def scipy_game_value(payoff):
    """Independent LP route: column player's normalized program via HiGHS."""
    payoff = np.asarray(payoff, dtype=float)
    shift = 1.0 - payoff.min()
    shifted = payoff + shift
    ncols = shifted.shape[1]
    res = linprog(
        c=-np.ones(ncols), A_ub=shifted, b_ub=np.ones(shifted.shape[0]),
        bounds=[(0, None)] * ncols, method="highs",
    )
    assert res.success
    return 1.0 / (-res.fun) - shift


class TestWorkedGames:
    def test_matching_pennies(self):
        row, col, value = solve_zero_sum(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert_allclose(row, [0.5, 0.5], atol=1e-12)
        assert_allclose(col, [0.5, 0.5], atol=1e-12)

    def test_dominance_solvable(self):
        row, col, value = solve_zero_sum(np.array([[3.0, 2.0], [1.0, 0.0]]))
        assert value == pytest.approx(2.0, abs=1e-12)
        assert_allclose(row, [1.0, 0.0], atol=1e-12)
        assert_allclose(col, [0.0, 1.0], atol=1e-12)

    def test_equalizing_mixture(self):
        row, col, value = solve_zero_sum(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert_allclose(row, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)
        assert_allclose(col, [1.0 / 3.0, 2.0 / 3.0], atol=1e-10)

    def test_single_cell(self):
        row, col, value = solve_zero_sum(np.array([[4.2]]))
        assert value == pytest.approx(4.2)
        assert row.tolist() == [1.0] and col.tolist() == [1.0]

    def test_single_row(self):
        row, col, value = solve_zero_sum(np.array([[3.0, -1.0, 2.0]]))
        assert value == pytest.approx(-1.0)
        assert col[1] == pytest.approx(1.0)


class TestInputChecks:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_zero_sum(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("payoff", [
        # row 1 dominates and column 2 answers it with 0, so the value is 0,
        # but the range overflowed: the certificate's tolerance was inf, the
        # shifted payoff overflowed, and the solver returned 1.99584030953472e+292
        [[1.5e308, 0.0], [0.0, -1.5e308]],
        # this one raised a GameSolverError about the final basis instead
        [[1e308, -1e308], [-1e308, 1e308]],
    ])
    def test_overflowing_range_rejected(self, payoff):
        with pytest.raises(ValueError, match=r"^payoff range \[.*\] overflows float64$"):
            solve_zero_sum(np.array(payoff))

    def test_shape_rejected(self):
        with pytest.raises(ValueError, match="nonempty 2-D"):
            solve_zero_sum(np.zeros((0, 3)))

    def test_pivot_cap_raises(self):
        # the slack tableau of the 4x4 game eye(4) + 1 needs more than one pivot
        tableau = np.zeros((5, 9))
        tableau[0, :4] = -1.0
        tableau[1:, :4] = np.eye(4) + 1.0
        tableau[1:, 4:8] = np.eye(4)
        tableau[1:, -1] = 1.0
        with pytest.raises(GameSolverError, match="pivot cap"):
            game._simplex_bland(tableau, np.arange(4, 8), 1)


def certificate(payoff, row_mix, col_mix):
    """(column ceiling minus row floor, the bound it must meet)."""
    floor = float((row_mix @ payoff).min())
    ceiling = float((payoff @ col_mix).max())
    return ceiling - floor, 1e-9 * (1.0 + float(payoff.max() - payoff.min()))


class TestCertificate:
    @pytest.mark.parametrize("payoff, value", [
        # Bland's pivots on the payoff land on rounding and leave nan mixes;
        # the read-out once divided by a zero objective
        ([[2, -5, 2, -5, -1e-6, -1e-13], [2, 0, -5, -1e-6, -1e-13, 2],
          [2, 0, 6e-8, 6e-8, 0, -1e-6], [2, 6e-8, -1e-6, 0, 0, -1e-13],
          [2, -1e-6, 0, 6e-8, 0, 6e-8]], None),
        # the last column pays -2 to both rows; the value 2.5 once came back
        ([[1e-6, 5, -6e-8, 1e-13, 1e-13, -2], [0, 0, 1e-6, 5, 1e-13, -2]], -2.0),
        # the column mix once sat on a column paying 5 to row 4
        ([[5, 0, -2, 0], [5, 1e-6, 1e-6, 1e-13], [0, 0, -6e-8, 5],
          [-2, -6e-8, 1e-13, 1e-13], [0, -2, 5, 1e-13], [5, 0, -2, 0]], 1e-6),
    ])
    def test_pinned_misses_certify(self, payoff, value):
        payoff = np.array(payoff, dtype=float)
        row, col, got = solve_zero_sum(payoff)
        gap, bound = certificate(payoff, row, col)
        assert gap <= bound
        if value is not None:
            assert got == pytest.approx(value, abs=bound)

    def test_near_tied_levels_certify(self):
        rng = np.random.default_rng(0)
        levels = [0.0, 1e-13, -6e-8, 1e-6, -2.0, 5.0]
        for _ in range(3000):
            m, k = rng.integers(1, 7, size=2)
            payoff = rng.choice(levels, size=(m, k))
            row, col, value = solve_zero_sum(payoff)
            gap, bound = certificate(payoff, row, col)
            assert gap <= bound, payoff
            floor = float((row @ payoff).min())
            assert floor - bound <= value <= floor + gap + bound

    def test_one_failing_side_still_certifies(self, monkeypatch):
        payoff = np.array([[2.0, 0.0], [0.0, 1.0]])
        solve = game._solve_lp
        for failure in ("raise", "wrong mixes"):
            calls = []

            def first_fails(side):
                calls.append(side.shape)
                if len(calls) > 1:
                    return solve(side)
                if failure == "raise":
                    raise GameSolverError("simplex failed")
                return np.array([1.0, 0.0]), np.array([1.0, 0.0]), 2.0

            monkeypatch.setattr(game, "_solve_lp", first_fails)
            row, col, value = solve_zero_sum(payoff)
            assert len(calls) == 2
            assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
            assert_allclose(row, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
            assert_allclose(col, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_two_failing_sides_raise(self, monkeypatch):
        answers = iter([GameSolverError("singular final basis"),
                        (np.array([1.0, 0.0]), np.array([1.0, 0.0]), -2.0)])

        def fails(side):
            answer = next(answers)
            if isinstance(answer, Exception):
                raise answer
            return answer

        monkeypatch.setattr(game, "_solve_lp", fails)
        with pytest.raises(GameSolverError, match=(
            r"^no certified solution of the 2x2 game: singular final basis on the "
            r"payoff, row floor 0\.0, column ceiling 2\.0 on its negated transpose$"
        )):
            solve_zero_sum(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestSolverProperties:
    # derandomized, so every run draws the same payoffs and none is stored in
    # the example database to be replayed; the example is the payoff a
    # randomized run once found (column exploitability 2.9e-9) and stored
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        payoff=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        )
    )
    @example(payoff=np.array([[0.0, -2.0, -2.0, 0.0, -1.0],
                              [1.64438048e-13, 0.0, 0.0, -5.96046448e-08, -2.0]]))
    def test_equilibrium_properties(self, payoff):
        row, col, value = solve_zero_sum(payoff)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert col.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(row >= 0) and np.all(col >= 0)
        row_gain, col_gain = deviation_gaps(payoff, row, col, value)
        assert row_gain <= 1e-9
        assert col_gain <= 1e-9
        # guaranteed floor and ceiling meet at the value
        assert float((row @ payoff).min()) == pytest.approx(value, abs=1e-9)
        assert float((payoff @ col).max()) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("payoff", [
        [[2.0**-24, 0.0, -1.0, 2.0**-24, 2.0**-24, 2.0**-24],
         [2.0**-24, 2.0**-24, -3.0, 2.0**-24, 2.0**-24, 2.0**-24],
         [-1.0, 2.0**-24, 2.0**-24, 2.0**-24, 2.0**-24, 2.0**-24],
         [-1.0, 2.0**-24, 2.0**-24, 2.0**-24, 2.0**-24, 2.0**-24]],
        [[2.0**-24, 0.0, -1.0, 2.0**-24, 2.0**-24],
         [2.0**-24, 2.0**-24, -2.0, 2.0**-24, 2.0**-24],
         [2.0**-24, -1.0, 2.0**-24, 2.0**-24, 2.0**-24],
         [2.0**-24, -1.0, 2.0**-24, 2.0**-24, 2.0**-24]],
    ])
    def test_near_tied_payoffs_keep_machine_accuracy(self, payoff):
        # pivots on differences of near-equal payoffs once left the mixes
        # off by about 1e-9, which broke the equilibrium gaps above
        payoff = np.array(payoff)
        row, col, value = solve_zero_sum(payoff)
        row_gain, col_gain = deviation_gaps(payoff, row, col, value)
        assert row_gain <= 1e-12
        assert col_gain <= 1e-12

    def test_duality_gap_up_to_50x50(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            shape = (int(rng.integers(2, 51)), int(rng.integers(2, 51)))
            payoff = rng.uniform(-5, 5, size=shape)
            row, col, value = solve_zero_sum(payoff)
            floor = float((row @ payoff).min())
            ceiling = float((payoff @ col).max())
            assert abs(floor - ceiling) <= 1e-9

    def test_value_against_independent_lp(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            shape = (int(rng.integers(2, 12)), int(rng.integers(2, 12)))
            payoff = rng.normal(size=shape)
            _, _, value = solve_zero_sum(payoff)
            assert value == pytest.approx(scipy_game_value(payoff), abs=1e-8)

    def test_affine_invariance(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            payoff = rng.uniform(-3, 3, size=(4, 5))
            scale, offset = float(rng.uniform(0.5, 4.0)), float(rng.uniform(-5, 5))
            row, col, value = solve_zero_sum(payoff)
            transformed = scale * payoff + offset
            _, _, t_value = solve_zero_sum(transformed)
            assert t_value == pytest.approx(scale * value + offset, abs=1e-8)
            # the original mixes stay optimal for the transformed game
            row_gain, col_gain = deviation_gaps(transformed, row, col, t_value)
            assert row_gain <= 1e-8
            assert col_gain <= 1e-8

    def test_vector_pivots_match_scalar_oracle(self, monkeypatch):
        # half the games draw from near-tied levels, where Bland's ties and
        # the pivot tolerance decide the path, half are Gaussian
        rng = np.random.default_rng(0)
        levels = np.array([0.0, 1e-13, -6e-8, 1e-6, -2.0, 5.0])
        games = []
        for k in range(3000):
            shape = tuple(int(m) for m in rng.integers(1, 7, size=2))
            games.append(rng.choice(levels, size=shape) if k % 2 else rng.normal(size=shape))

        def solve_all():
            out = []
            for payoff in games:
                try:
                    row, col, value = solve_zero_sum(payoff)
                except GameSolverError as exc:
                    out.append(str(exc))
                else:
                    out.append(row.tobytes() + col.tobytes() + np.float64(value).tobytes())
            return out

        vector = solve_all()
        monkeypatch.setattr(game, "_simplex_bland", bland_oracle)
        assert vector == solve_all()

    def test_pure_value_sandwich(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            payoff = rng.uniform(-2, 2, size=(6, 6))
            _, _, value = solve_zero_sum(payoff)
            maximin = float(payoff.min(axis=1).max())
            minimax = float(payoff.max(axis=0).min())
            assert maximin - 1e-9 <= value <= minimax + 1e-9
