"""Finite two-player zero-sum matrix games solved by the minimax linear program.

A game is its payoff matrix M, a plain array (row player maximizes). The
payoffs are first shifted to be strictly positive, M' = M - min(M) + 1. The
column player's normalized program

    maximize sum(z)  subject to  M' z <= 1,  z >= 0

has an immediately feasible slack basis, so one primal simplex run settles
it; the optimal column mix is q = z / sum(z) with game value
1 / sum(z) - shift, and the row mix is the dual prices on the slack
columns. Pivoting uses Bland's smallest-index rule throughout, which cannot
cycle; a generous pivot cap guards against numeric stalls anyway. Pivots on
near-tied payoffs can still end in a wrong basis, so every answer is
certified, and the game -M^T, with the players swapped, is the fallback.
"""

from __future__ import annotations

import numpy as np

#: reduced costs below -PIVOT_TOL improve; pivot entries must exceed it
PIVOT_TOL = 1e-12


class GameSolverError(RuntimeError):
    """No certified solution was found; the message carries diagnostics."""


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


def _solve_lp(payoff: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Uncertified (row_mix, col_mix, value) read off the final basis of
    the column player's program; GameSolverError if the simplex fails or the
    read-out is not finite and positive."""
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

    # The tableau carries the rounding of every pivot, and pivots on small
    # differences of near-equal payoffs amplify it well past machine
    # precision. Re-solving the final basis against the original data
    # recovers the primal and dual solutions to machine accuracy.
    basic = np.hstack([shifted, np.eye(nrows)])[:, basis]
    try:
        z_basic = np.linalg.solve(basic, np.ones(nrows))
        duals = np.linalg.solve(basic.T, (basis < ncols).astype(float))
    except np.linalg.LinAlgError:
        raise GameSolverError("singular final basis") from None
    total = float(z_basic[basis < ncols].sum())
    if not (0 < total < np.inf and np.isfinite(duals).all() and duals.max() > 0):
        raise GameSolverError(f"final basis reads off objective {total:.3e}")
    z = np.zeros(ncols + nrows)
    z[basis] = np.maximum(z_basic, 0.0)
    col_mix = z[:ncols] / z[:ncols].sum()
    row_mix = np.maximum(duals, 0.0)
    row_mix /= row_mix.sum()
    return row_mix, col_mix, 1.0 / total - shift


def solve_zero_sum(game) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal mixed strategies and value of a zero-sum matrix game.

    ``game`` is the nonempty, finite 2-D payoff matrix. Returns (row_mix,
    col_mix, value): row_mix maximizes the minimum column expectation,
    col_mix minimizes the maximum row expectation, and both guarantee
    ``value``. The column ceiling ``max(payoff @ col_mix)`` exceeds the row
    floor ``min(row_mix @ payoff)`` by at most ``1e-9 * (1 + max - min
    payoff)``; if the simplex fails or misses that, it solves -payoffᵀ, and
    GameSolverError names both sides' bounds if that misses too. Ties among
    optimal bases are resolved by pivot order, so only the value is
    contract-stable. The solver takes no options: it pivots with tolerance
    ``PIVOT_TOL`` and gives up after 1000 + 50 (rows + cols) pivots.
    """
    payoff = np.asarray(game, dtype=float)
    if payoff.ndim != 2 or payoff.shape[0] < 1 or payoff.shape[1] < 1:
        raise ValueError(f"payoff must be a nonempty 2-D matrix, got shape {payoff.shape}")
    if not np.all(np.isfinite(payoff)):
        raise ValueError("payoff matrix has non-finite entries")
    tol = 1e-9 * (1.0 + float(payoff.max() - payoff.min()))
    misses = []
    for side in (payoff, -payoff.T):
        try:
            row_mix, col_mix, value = _solve_lp(side)
        except GameSolverError as exc:
            misses.append(str(exc))
            continue
        if side is not payoff:  # the players of -payoffᵀ are swapped
            row_mix, col_mix, value = col_mix, row_mix, -value
        floor, ceiling = float((row_mix @ payoff).min()), float((payoff @ col_mix).max())
        if ceiling - floor <= tol:
            return row_mix, col_mix, value
        misses.append(f"row floor {floor!r}, column ceiling {ceiling!r}")
    raise GameSolverError(f"no certified solution of the {payoff.shape[0]}x{payoff.shape[1]} "
                          f"game: {misses[0]} on the payoff, {misses[1]} on its negated transpose")
