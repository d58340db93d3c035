"""Finite two-player zero-sum matrix games solved by the minimax linear program.

For a payoff matrix M (row player maximizes) the payoffs are first shifted to
be strictly positive, M' = M - min(M) + 1. The column player's normalized
program

    maximize sum(z)  subject to  M' z <= 1,  z >= 0

has an immediately feasible slack basis, so one primal simplex run settles
it; the optimal column mix is q = z / sum(z) with game value
1 / sum(z) - shift, and the row mix falls out of the same tableau as the
dual prices on the slack columns. Pivoting uses Bland's smallest-index rule
throughout, which cannot cycle; a generous pivot cap guards against numeric
stalls anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: reduced costs below -PIVOT_TOL improve; pivot entries must exceed it
PIVOT_TOL = 1e-12


class GameSolverError(RuntimeError):
    """Simplex failed to terminate cleanly; the message carries diagnostics."""


@dataclass(frozen=True, eq=False)
class MatrixGame:
    """A zero-sum game: the row player maximizes ``payoff``, the column player
    minimizes it."""

    payoff: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.payoff, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError(f"payoff must be a nonempty 2-D matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("payoff matrix has non-finite entries")
        object.__setattr__(self, "payoff", mat)


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] = tableau[row] / tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def _simplex_bland(tableau: np.ndarray, basis: np.ndarray, cap: int) -> int:
    """Primal simplex on a maximization tableau, Bland's rule for entering and
    leaving variables: the first improving column enters, and of the rows
    with the least ratio the one with the smallest basic index leaves.
    Returns the pivot count."""
    nrows = tableau.shape[0] - 1
    ncols = tableau.shape[1] - 1
    for pivots in range(cap):
        improving = np.flatnonzero(tableau[0, :-1] < -PIVOT_TOL)
        if not improving.size:
            return pivots
        enter = improving[0]
        col = tableau[1:, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if not rows.size:
            raise GameSolverError("unbounded pivot column; payoff matrix is ill-formed")
        ratios = tableau[1:, -1][rows] / col[rows]
        ties = rows[ratios == ratios.min()]
        leave = ties[np.argmin(basis[ties])]
        _pivot(tableau, leave + 1, enter)
        basis[leave] = enter
    raise GameSolverError(
        f"pivot cap {cap} exceeded on a {nrows}x{ncols - nrows} game "
        f"(payoff range [{tableau.min():.3g}, {tableau.max():.3g}]); "
        "the matrix is likely too ill-conditioned for this solver"
    )


def solve_zero_sum(game: MatrixGame | np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal mixed strategies and value of a zero-sum matrix game.

    Returns (row_mix, col_mix, value): row_mix maximizes the minimum column
    expectation, col_mix minimizes the maximum row expectation, and both
    guarantee ``value``. Ties among optimal bases are resolved by pivot
    order, so only the value is contract-stable. The solver takes no
    options: it pivots with tolerance ``PIVOT_TOL`` and raises
    GameSolverError after 1000 + 50 (rows + cols) pivots.
    """
    if not isinstance(game, MatrixGame):
        game = MatrixGame(np.asarray(game, dtype=float))
    payoff = game.payoff
    nrows, ncols = payoff.shape
    shift = 1.0 - float(payoff.min())
    shifted = payoff + shift

    # max sum(z) s.t. shifted @ z + slack = 1; basis starts on the slacks
    tableau = np.zeros((nrows + 1, ncols + nrows + 1))
    tableau[0, :ncols] = -1.0
    tableau[1:, :ncols] = shifted
    tableau[1:, ncols:ncols + nrows] = np.eye(nrows)
    tableau[1:, -1] = 1.0
    basis = np.arange(ncols, ncols + nrows)
    _simplex_bland(tableau, basis, 1000 + 50 * (nrows + ncols))

    total = float(tableau[0, -1])
    if not np.isfinite(total) or total <= PIVOT_TOL:
        raise GameSolverError(f"degenerate optimum (objective {total:.3e}) on shifted payoffs")

    z = np.zeros(ncols + nrows)
    z[basis] = tableau[1:, -1]
    duals = tableau[0, ncols:ncols + nrows]
    # The tableau carries the rounding of every pivot, and pivots on small
    # differences of near-equal payoffs amplify it well past machine
    # precision. Re-solving the final basis against the original data
    # recovers the primal and dual solutions to machine accuracy.
    constraints = np.hstack([shifted, np.eye(nrows)])
    basic = constraints[:, basis]
    try:
        z_basic = np.linalg.solve(basic, np.ones(nrows))
        refined = np.linalg.solve(basic.T, (basis < ncols).astype(float))
    except np.linalg.LinAlgError:
        pass
    else:
        if np.all(np.isfinite(z_basic)) and np.all(np.isfinite(refined)):
            z[basis] = z_basic
            duals = refined
            total = float(z_basic[basis < ncols].sum())
    col_mix = np.maximum(z[:ncols], 0.0)
    col_mix /= col_mix.sum()
    duals = np.maximum(duals, 0.0)
    row_mix = duals / duals.sum()
    value = 1.0 / total - shift
    return row_mix, col_mix, float(value)
