"""Strategies when camp influence on a node depends on the node's bias.

Here each node grants the camps a total weight theta split in proportion to
(1 +- w0 * v_prev) / 2, so phase-1 investments change the weights the camps
enjoy in phase 2 and the camps' problems no longer decouple. Two structural
facts keep the problem tractable:

* an optimal schedule either exhausts the whole budget or spends nothing,
  and puts each phase's spending on a single node, so a camp's pure strategy
  reduces to (phase-1 node, phase-2 node, budget split), with a stay-out
  option on the side;
* for a fixed pair of node profiles the final-phase objective is a quadratic
  in the two phase-1 budgets, concave in the good camp's and convex in the
  bad camp's (under nonnegative weights), so the per-profile value is a
  saddle point over the budget box.

The single-camp optimum scans all n^2 node pairs in blocks of phase-1 nodes,
settling each pair's split and value in closed form, and reports the best
pair's own entry, without the saddle kernel. With two camps the game over
the (n^2+1) x (n^2+1) payoff of saddle values is solved by a double oracle:
both camps' strategy sets grow by best responses, each restricted game going
to the zero-sum solver in :mod:`opinion_game.game`, and only the rows and
columns of the strategies added are scored, all those joining at once in
one kernel call. A solve may start from the supports of an earlier solution
over the same profiles, as each point of a bias-weight sweep starts from the
previous point's. Networks above ``MAX_GAME_NODES`` nodes are refused.
Every saddle value comes from a vectorized kernel that finds each box
saddle exactly. The good camp's
maximin split is a box endpoint, a piece breakpoint or a piece stationary
point of its outer problem, so only those candidates are scored. By Sion's
minimax theorem the bad camp's split is then its best reply to that split,
unique where the objective is strictly convex in it: one clamped stationary
point. The mirrored candidate search over the bad camp's outer problem still
runs where that reply is not unique (zero curvature), where the objective is
not concave in the good camp's split, and where the clamp would amplify the
good camp's rounding. Both paths read the coupling terms r o w0 and b c from
:class:`DependencyCoefficients`, which forms them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .centrality import compute_profile, delta_columns, delta_matrix
from .dynamics import _dot, solve_linear
from .game import PIVOT_TOL, GameSolverError, solve_zero_sum
from .model import GOOD, InvestmentPlan, Network

#: largest network the two-camp game is solved for: its full payoff, built
#: when ``GameSolution.payoff`` is read, has (n^2+1)^2 entries, 2.7 million
#: at 40 nodes
MAX_GAME_NODES = 40
#: entries of one block of the single-camp scan, (phase-1 nodes) x n; of
#: 2^14..2^20 this gave the lowest peak memory, at a speed within noise of
#: the best, on 400- and 2,000-node sweeps (2^18 added 16 MB at 2,000)
SCAN_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Solved two-camp game over the n^2 + 1 pure profiles of each camp (good
    camp maximizes), which are indices: profile k < n^2 is the node pair
    (k // n, k % n) and profile n^2 stays out, as :func:`_profile_nodes`
    decodes. Holds the mixed strategies of both camps over those indices,
    zero outside the row and column sets the double oracle grew; the game
    value; and the certificate ``gap``, the best row response's value minus
    the best column response's value against those mixes.
    ``restricted_kg1[a, b]`` and ``restricted_kb1[a, b]`` are the phase-1
    budgets of the saddle of good profile ``row_set[a]`` against bad profile
    ``col_set[b]``.

    ``payoff`` is the full (n^2+1) x (n^2+1) payoff, scored on first read
    from ``_terms`` in blocks of n rows by the scorer the solve used, so
    bitwise equal to the entries the solve used."""

    row_mix: np.ndarray
    col_mix: np.ndarray
    value: float
    gap: float
    row_set: np.ndarray
    col_set: np.ndarray
    restricted_kg1: np.ndarray
    restricted_kb1: np.ndarray
    _terms: tuple = field(repr=False)

    @cached_property
    def payoff(self) -> np.ndarray:
        m, n = self.row_mix.size, self._terms[0].r.size
        return np.vstack([
            _score(self._terms, range(i, min(i + n, m)), [])[0].reshape(-1, m)
            for i in range(0, m, n)
        ])


class DependencyCoefficients:
    """Per-instance constants of the final-phase objective.

    c[i] = w0[i] * v0[i] is node i's bias carry. Row j of the coupling
    matrix, b[j, i] = scale[j] * delta[j, i] with scale = r o w0, measures
    how strongly a unit of phase-1 opinion at node i resurfaces in the final
    phase through node j's bias; its row sums over j reproduce s, and
    cb = b c = scale o (I - w)^{-1} c holds the c-weighted sums of its rows.
    s_total = sum_ij c_i b_ji is the objective when nobody invests. r, s and
    cb are solved once, when the instance is made; b itself is not kept:
    the single-camp scan forms its columns in blocks from
    :func:`~opinion_game.centrality.delta_columns`, and the two-camp game
    all of it from :func:`~opinion_game.centrality.delta_matrix`.
    """

    def __init__(self, net: Network):
        prof = compute_profile(net)
        self.r, self.s = prof.r, prof.s
        self.c = net.w0 * net.v0
        self.theta = net.theta
        self.scale = self.r * net.w0
        self.cb = self.scale * solve_linear(net, self.c)
        self.s_total = _dot(self.c, self.s)


def _outer_split(px, py, pxx, pyy, pxy, kx, ky):
    """First maximizer over [0, kx] of g(x) = min over y in [0, ky] of

        p(x, y) = px x + py y + pxx x^2 + pyy y^2 + pxy x y,

    elementwise over broadcast arrays. g is piecewise quadratic: the inner
    minimizer is the clamped stationary point when pyy > 0, otherwise an
    endpoint. Its maximum therefore lies at a box endpoint, at a
    piece breakpoint (where the inner minimizer leaves 0 or reaches ky) or at
    a piece stationary point, the interior closed form among them. Only
    those candidates are scored, in the order 0, kx, breakpoints, stationary
    points; undefined or out-of-box candidates drop out and the first
    maximizer is kept.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in (px, py, pxx, pyy, pxy, kx, ky)))
    cands = np.empty((7, *shape))
    with np.errstate(all="ignore"):
        convex = pyy > 0.0
        cands[0] = 0.0
        cands[1] = kx
        cands[2] = -np.where(convex, py, py + pyy * ky) / pxy
        cands[3] = np.where(convex, -(py + 2.0 * pyy * ky) / pxy, np.nan)
        cands[4] = -px / (2.0 * pxx)
        cands[5] = -(px + pxy * ky) / (2.0 * pxx)
        cands[6] = np.where(
            convex,
            -(px - pxy * py / (2.0 * pyy)) / (2.0 * (pxx - pxy * pxy / (4.0 * pyy))),
            np.nan,
        )
        slope = py + pxy * cands
        y = np.where(
            convex,
            np.clip(-slope / (2.0 * pyy), 0.0, ky),
            np.where(slope * ky + pyy * ky * ky >= 0.0, 0.0, ky),
        )
        score = px * cands + pxx * cands * cands + slope * y + pyy * y * y
        score[~((cands >= 0.0) & (cands <= kx))] = -np.inf
    best = np.expand_dims(np.argmax(score, axis=0), 0)
    return np.take_along_axis(cands, best, axis=0)[0]


def _box_saddle(u00, qa, qb, qaa, qbb, qab, kg, kb):
    """Exact saddle of the concave-convex quadratic

        u(a, b) = u00 + qa a + qb b + qaa a^2 + qbb b^2 + qab a b

    over the box [0, kg] x [0, kb], elementwise over broadcast arrays.
    Returns (value, a, b): a maximizes min_b u and b minimizes max_a u, so
    neither camp gains by changing its own split. A camp whose budget is 0
    keeps a split of 0, which is how stay-out profiles are solved.

    a is the first maximizer found by :func:`_outer_split`. When u is
    concave in a and strictly convex in b (qaa <= 0 < qbb), the saddle
    points form a product A* x B*, and every b in B* minimizes u(a*, .) for
    a* in A* (Sion's minimax theorem); that minimizer is unique, so b is the
    clamped stationary point of u(a, .), the bad camp's best reply. The
    clamp moves b by qab / (2 qbb) per unit of a, so it is used only where
    |qab| kg <= 2^13 qbb kb: a rounding error of one ulp of kg in a then
    moves b by at most about 2^-40 kb. The remaining entries with kb > 0
    (qbb <= 0, where u(a, .) may have several minimizers; qaa > 0, where u
    is not concave in a; and near-linear b) take b from the mirrored
    search, the first minimizer of max_a u.
    """
    u00, qa, qb, qaa, qbb, qab, kg, kb = (
        np.asarray(x, dtype=float) for x in (u00, qa, qb, qaa, qbb, qab, kg, kb)
    )
    a = _outer_split(qa, qb, qaa, qbb, qab, kg, kb)
    spends = kb > 0.0
    with np.errstate(all="ignore"):
        # + 0.0 turns the clamp's -0.0 into the +0.0 the search returns
        b = np.where(spends, np.clip(-(qb + qab * a) / (2.0 * qbb), 0.0, kb) + 0.0, 0.0)
        reply = (qaa <= 0.0) & (qbb > 0.0) & (np.abs(qab) * kg <= 2.0**13 * qbb * kb)
    mirror = np.broadcast_to(spends & ~reply, b.shape)
    if mirror.any():
        pa, pb, paa, pbb, pab, ka, kd = (
            np.broadcast_to(x, b.shape)[mirror] for x in (qa, qb, qaa, qbb, qab, kg, kb)
        )
        b[mirror] = _outer_split(-pb, -pa, -pbb, -paa, -pab, kd, ka)
    value = u00 + qa * a + qb * b + qaa * a * a + qbb * b * b + qab * a * b
    return value, a, b


def _profile_nodes(k: int, n: int) -> tuple[int | None, int | None]:
    """(phase-1 node, phase-2 node) of profile k of an n-node game: the node
    pair (k // n, k % n) for k < n^2, (None, None) for stay-out, k = n^2."""
    return divmod(k, n) if k < n * n else (None, None)


def _camp_terms(coef, budget: float, sign: float):
    """Per-profile terms of one camp for every profile, in index order: the
    node pairs of :func:`_profile_nodes`, then stay-out. The terms are
    phase-1 weight, phase-2 weight, phase-2 gain, budget, phase-1 node and
    phase-2 node. ``sign`` is +1 for the good camp and -1 for the bad one.
    Stay-out has zero weights and zero budget, so every term it enters
    vanishes; its nodes are placeholders."""
    n = coef.r.size
    node1, node2 = np.divmod(np.arange(n * n), n)
    w1 = 0.5 * coef.theta[node1] * (1.0 + sign * coef.c[node1])
    w2 = 0.5 * coef.theta[node2]
    gain = coef.cb[node2] + sign * coef.r[node2]
    spend = np.full(len(node1), float(budget))
    return (
        *(np.append(x, 0.0) for x in (w1, w2, gain, spend)),
        np.append(node1, 0),
        np.append(node2, 0),
    )


def _coefficient_block(coef, b_rows: np.ndarray, good, bad):
    """Quadratic coefficients and budgets of the good profiles in ``good``
    against the bad profiles in ``bad``, both given as :func:`_camp_terms`
    whose arrays broadcast against each other: a column of good profiles
    against a row of bad ones for a block, or two equal-length vectors for
    a list of pairs. Every entry comes from the same elementwise formulas,
    so it is bitwise equal in any layout. ``b_rows`` holds the coupling
    rows b[j, :] of the phase-2 nodes."""
    g1, g2, gain_beta, kg, alpha, beta = good
    h1, h2, gain_delta, kb, gamma, delta = bad
    b_ba = b_rows[beta, alpha]
    b_dg = b_rows[delta, gamma]
    b_da = b_rows[delta, alpha]
    b_bg = b_rows[beta, gamma]
    u00 = coef.s_total + kg * g2 * gain_beta + kb * h2 * gain_delta
    qa = g1 * (coef.s[alpha] + kg * g2 * b_ba) - g2 * gain_beta + g1 * kb * h2 * b_da
    qb = -h1 * (coef.s[gamma] + kb * h2 * b_dg) - h2 * gain_delta - h1 * kg * g2 * b_bg
    qaa = -g1 * g2 * b_ba
    qbb = h1 * h2 * b_dg
    qab = -g1 * h2 * b_da + h1 * g2 * b_bg
    return u00, qa, qb, qaa, qbb, qab, kg, kb


def _split_values(s_total: float, kg: float, first_gain, second_gain, coupling):
    """Best objective over the budget split, and the phase-1 budget that
    reaches it, for a batch of node pairs.

    Per pair the objective as a function of the phase-1 budget t is
    s_total + first_gain * t + second_gain * (kg - t) + coupling * t * (kg - t).
    Where coupling > 0 it is strictly concave and its maximizer is the
    stationary point clamped to [0, kg]; otherwise the better endpoint
    maximizes it, 0 when the gains tie. The objective is evaluated once, at
    that budget. Arguments broadcast, so either gain may be the scanned
    vector. Returns (values, phase-1 budgets).
    """
    with np.errstate(all="ignore"):
        stationary = (first_gain - second_gain + coupling * kg) / (2.0 * coupling)
    endpoint = np.where(first_gain > second_gain, kg, 0.0)
    k1 = np.where(coupling > 0.0, np.clip(stationary, 0.0, kg), endpoint)
    values = s_total + first_gain * k1 + second_gain * (kg - k1) + coupling * k1 * (kg - k1)
    return values, k1


def single_camp_optimal(net: Network, kg: float) -> tuple[InvestmentPlan, float]:
    """Best two-phase schedule for the good camp alone (bad camp absent).

    Scans every (phase-1 node, phase-2 node) pair; per pair the objective is
    quadratic in the phase-1 budget, so :func:`_split_values` settles the
    split and its value in closed form. The scan runs over blocks of phase-1
    nodes of at most ``SCAN_BLOCK_ENTRIES`` pairs, each block's resolvent
    columns coming from the cached inverse or from one
    multi-right-hand-side solve, and reports the best entry's own value and
    split. Returns the plan, whose x1 holds the phase-1 budget k1 at the
    phase-1 node alpha and whose x2 holds kg - k1 at the phase-2 node beta,
    and its value; the all-zero plan, staying out, with the idle objective
    when no pair strictly beats it. Ties between pairs go to the first pair
    in (alpha, beta) scan order.
    """
    if not 0 <= kg < np.inf:  # also refuses nan
        raise ValueError("budget must be finite and nonnegative")
    coef = DependencyCoefficients(net)
    n = net.n
    x1, x2 = np.zeros(n), np.zeros(n)
    best, best_val = None, coef.s_total
    if kg == 0:
        return InvestmentPlan(GOOD, x1, x2), best_val

    second_gain = 0.5 * coef.theta * (coef.cb + coef.r)
    first_weight = coef.theta * (1.0 + coef.c)
    first_gain = 0.5 * first_weight * coef.s
    width = max(1, SCAN_BLOCK_ENTRIES // n)
    for start in range(0, n, width):
        stop = min(start + width, n)
        b_cols = coef.scale[:, None] * delta_columns(net, start, stop)  # columns b[:, start:stop]
        coupling = 0.25 * np.outer(first_weight[start:stop], coef.theta) * b_cols.T
        values, splits = _split_values(
            coef.s_total, kg, first_gain[start:stop, None], second_gain[None, :], coupling
        )
        flat = int(np.argmax(values))
        if values.flat[flat] > best_val:
            best_val = float(values.flat[flat])
            best = (start + flat // n, flat % n, float(splits.flat[flat]))
    if best is not None:
        alpha, beta, k1 = best
        x1[alpha], x2[beta] = k1, kg - k1
    return InvestmentPlan(GOOD, x1, x2), best_val


def _score(terms, rows, cols):
    """Flat (value, kg1, kb1) of the pairs (i, every profile) for each good
    profile i in ``rows``, then (every profile, j) for each bad profile j in
    ``cols``, from one kernel call. ``terms`` is (coefficients, the dense
    coupling matrix b, the good and the bad camp's :func:`_camp_terms` of
    every profile)."""
    coef, b_mat, good, bad = terms
    m = len(good[0])
    rows, cols, every = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int), np.arange(m)
    gi = np.concatenate([np.repeat(rows, m), np.tile(every, cols.size)])
    bj = np.concatenate([np.tile(every, rows.size), np.repeat(cols, m)])
    block = _coefficient_block(coef, b_mat, [t[gi] for t in good], [t[bj] for t in bad])
    return _box_saddle(*block)


def two_camp_equilibrium(
    net: Network,
    kg: float,
    kb: float,
    start: GameSolution | None = None,
) -> GameSolution:
    """Equilibrium of the zero-sum game over the n^2 + 1 pure profiles of
    each camp, by the double oracle of McMahan, Gordon & Blum (ICML 2003).
    Profiles are indices, row k and column k of the payoff: k < n^2 is the
    node pair (k // n, k % n) and k = n^2 is stay-out (:func:`_profile_nodes`).

    Given ``start``, an earlier solution of a game over the same n^2 + 1
    profiles (the previous point of a bias-weight sweep, say), the row and
    column sets start as its supports: the profiles its mixes play with
    positive probability. Otherwise the column set starts as the bad camp's
    stay-out strategy and the row set as the good camp's best reply to it.
    Each round solves the game restricted to the two sets with
    :func:`~opinion_game.game.solve_zero_sum`, then scores both camps' best
    responses to the restricted mixes against every profile, from the full
    rows and columns of the payoff cached as their profiles joined a set.
    All strategies joining at once, the seeded ones or a round's best
    responses, are scored in one call of the exact saddle kernel. A best
    response joins its set when it is not in it yet and beats the
    restricted value by more than ``PIVOT_TOL * (1 + |value|)``; ties go to
    the first profile. The loop ends when neither set grows. The best row
    response's value minus the best column response's value is the
    certificate ``gap``: up to rounding it bounds the exploitability of the
    mixes on the full payoff, and a gap above ``1e-9 * (1 + |value|)`` raises
    GameSolverError. The full payoff is never formed here; reading the
    solution's ``payoff`` scores it. Networks above ``MAX_GAME_NODES``
    nodes, and a ``start`` over another number of profiles, are refused
    outright, before any solve.
    """
    n = net.n
    m = n * n + 1
    if n > MAX_GAME_NODES:
        raise ValueError(
            f"two-camp equilibrium needs a ({n}^2+1)^2 = {m * m}-entry payoff; "
            f"refusing n={n} above the {MAX_GAME_NODES}-node limit"
        )
    if not (0 <= kg < np.inf and 0 <= kb < np.inf):  # also refuses nan
        raise ValueError("budgets must be finite and nonnegative")
    if start is not None and {start.row_mix.size, start.col_mix.size} != {m}:
        raise ValueError(
            f"start is a game over {start.row_mix.size} profiles per camp, with mixes over "
            f"{start.row_mix.size} and {start.col_mix.size}; this {n}-node network has "
            f"n^2 + 1 = {m}"
        )
    coef = DependencyCoefficients(net)
    terms = (
        coef,
        coef.scale[:, None] * delta_matrix(net),
        _camp_terms(coef, kg, 1.0),
        _camp_terms(coef, kb, -1.0),
    )
    row_of, col_of = {}, {}

    def grow(rows, cols):
        # (payoff, kg1, kb1) rows and payoff columns of the strategies joining
        scored = _score(terms, rows, cols)
        head = len(rows) * m
        row_of.update(zip(map(int, rows), zip(*(x[:head].reshape(-1, m) for x in scored))))
        col_of.update(zip(map(int, cols), scored[0][head:].reshape(-1, m)))

    if start is None:
        grow([], [m - 1])
        grow([int(np.argmax(col_of[m - 1]))], [])
    else:
        grow(np.flatnonzero(start.row_mix > 0), np.flatnonzero(start.col_mix > 0))
    while True:
        rows, cols = sorted(row_of), sorted(col_of)
        restricted = np.array([row_of[i][0][cols] for i in rows])
        p, q, value = solve_zero_sum(restricted)
        row_scores = q @ np.array([col_of[j] for j in cols])
        col_scores = p @ np.array([row_of[i][0] for i in rows])
        i, j = int(np.argmax(row_scores)), int(np.argmin(col_scores))
        upper, lower = float(row_scores[i]), float(col_scores[j])
        tol = PIVOT_TOL * (1.0 + abs(value))
        new_rows = [i] if i not in row_of and upper > value + tol else []
        new_cols = [j] if j not in col_of and lower < value - tol else []
        if not (new_rows or new_cols):
            break
        grow(new_rows, new_cols)
    gap = upper - lower
    if gap > 1e-9 * (1.0 + abs(value)):
        raise GameSolverError(
            f"double oracle stopped at value {value!r} with best row response "
            f"{upper!r} and best column response {lower!r} (gap {gap:.3e})"
        )
    row_mix, col_mix = np.zeros(m), np.zeros(m)
    row_mix[rows], col_mix[cols] = p, q
    return GameSolution(
        row_mix=row_mix,
        col_mix=col_mix,
        value=float(value),
        gap=gap,
        row_set=np.array(rows),
        col_set=np.array(cols),
        restricted_kg1=np.array([row_of[i][1][cols] for i in rows]),
        restricted_kb1=np.array([row_of[i][2][cols] for i in rows]),
        _terms=terms,
    )
