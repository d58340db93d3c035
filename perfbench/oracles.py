"""Independent checks of every benchmark output, run outside the timed region.

Each check returns a list of failure messages; an empty list is a pass. The
networks are rebuilt here from the benchmark's own arcs with the weight
scheme that ``harness`` documents: at bias weight w0 every node gives each
camp camp_base * (1 - w0), spreads (1 - 2 * camp_base) * (1 - w0) evenly over
its out-arcs, and has camp total theta = 2 * camp_base.

Tolerances come from the library's stopping rule. Its iterative solves stop
when the max-norm step is below ``TOL``; for a map with contraction factor
rho the error is then at most step * rho / (1 - rho), and summed over n nodes
at most n times that. ``solver_bound`` turns this into a bound on an opinion
sum, which is what the CLI reports.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import linprog

#: step tolerance of the library's iterative solves (dynamics.DEFAULT_TOL)
TOL = 1e-10
#: equilibrium certificate bound, as in tests/test_game.py
GAME_TOL = 1e-9


def weights(src, dst, n: int, w0: float, camp_base: float = 0.1) -> sparse.csr_array:
    deg = np.bincount(src, minlength=n)
    vals = (1.0 - 2.0 * camp_base) * (1.0 - w0) / deg[src]
    return sparse.csr_array((vals, (src, dst)), shape=(n, n))


def solver_bound(n: int, rho: float, w0: float) -> float:
    """Bound on the error of a two-phase opinion sum: per phase n * TOL *
    rho / (1 - rho); phase 1's error enters phase 2 scaled by w0 / (1 - rho);
    and both the reported value and its check carry such an error."""
    per_phase = n * TOL * rho / (1.0 - rho)
    return 2.0 * per_phase * (1.0 + w0 / (1.0 - rho))


def _rows(text: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.decode("utf-8"))))


def _fixed_point(mat, rhs):
    """x = mat x + rhs, iterated until the step stops shrinking (float floor).

    ``mat`` is a transposed weight matrix, a contraction in the 1-norm (its
    column sums are the row sums of w), so the 1-norm step shrinks at every
    iteration until rounding takes over."""
    x = rhs.copy()
    step = np.inf
    while True:
        nxt = mat @ x + rhs
        new_step = float(np.abs(nxt - x).sum())
        x = nxt
        if new_step == 0.0 or new_step >= step:
            return x
        step = new_step


# ---------------------------------------------------------------- fixed-200k

def check_fixed(text: bytes, src, dst, n: int, *, w0, v0, kg, kb, cap,
                camp_base: float = 0.1) -> list[str]:
    """Bounded-greedy plans: feasibility, slot ranking, objective."""
    from opinion_game.dynamics import run_phases
    from opinion_game.model import Network

    fail: list[str] = []
    rows = _rows(text)
    w = weights(src, dst, n, w0, camp_base)
    camp_w = camp_base * (1.0 - w0)
    wt = w.T.tocsr()
    r = _fixed_point(wt, np.ones(n))
    s = _fixed_point(wt, r * w0)
    rho = (1.0 - 2.0 * camp_base) * (1.0 - w0)
    plans = {}
    for camp, budget in (("good", kg), ("bad", kb)):
        slots = [(int(x["node"]), int(x["phase"]), float(x["amount"]))
                 for x in rows if x["camp"] == camp and x["node"]]
        x1, x2 = np.zeros(n), np.zeros(n)
        for node, phase, amount in slots:
            vec = x1 if phase == 1 else x2
            if vec[node] != 0.0:
                fail.append(f"{camp}: slot ({node}, {phase}) listed twice")
            if not 0.0 < amount <= cap + 1e-12:
                fail.append(f"{camp}: amount {amount} outside (0, cap={cap}]")
            vec[node] = amount
        if x1.sum() + x2.sum() > budget + 1e-9:
            fail.append(f"{camp}: spends {x1.sum() + x2.sum()} > budget {budget}")
        plans[camp] = (x1, x2)
        # independent ranking: worth descending, then phase 2 first, then lowest id
        worth = np.concatenate([s, r]) * camp_w
        phase = np.repeat([1, 2], n)
        node = np.tile(np.arange(n), 2)
        order = np.lexsort((node, -phase, -worth))
        expected, left = [], budget
        for k in order:
            if left <= 0 or worth[k] <= 0:
                break
            expected.append((int(node[k]), int(phase[k]), min(cap, left)))
            left -= min(cap, left)
        if sorted(expected) != sorted(slots):
            # a swap is tolerated only between slots whose worths tie within
            # the error of the library's r and s
            eps = 4.0 * camp_w * n * TOL * rho / (1.0 - rho) ** 2
            got = sorted((worth[(p - 1) * n + i] for i, p, _ in slots), reverse=True)
            want = sorted((worth[(p - 1) * n + i] for i, p, _ in expected), reverse=True)
            if len(got) != len(want) or np.max(np.abs(np.subtract(got, want)), initial=0.0) > eps:
                fail.append(f"{camp}: slots differ from the lexsort ranking")
    objectives = {float(x["objective"]) for x in rows}
    if len(objectives) != 1:
        return fail + [f"objective column is not constant: {sorted(objectives)}"]
    objective = objectives.pop()
    net = Network(
        n=n, weights=w, w0=np.full(n, w0), v0=np.full(n, v0),
        wg=np.full(n, camp_w), wb=np.full(n, camp_w), theta=np.full(n, 2.0 * camp_base),
    )
    (g1, g2), (b1, b2) = plans["good"], plans["bad"]
    _, sums = run_phases(net, plans=[(g1, b1), (g2, b2)], mode="fixed")
    eps = solver_bound(n, rho, w0) + 1e-11 * abs(objective)
    if abs(sums[-1] - objective) > eps:
        fail.append(f"objective {objective!r} vs run_phases {sums[-1]!r} (tolerance {eps:.3g})")
    return fail


# ------------------------------------------------------------------ dep1-*

def _simulate_single(lu, theta, w0, t, alpha, beta, kg):
    """Final opinion sums of the dependency dynamics (bad camp absent, zero
    initial opinions) for phase-1 spends t on nodes alpha and the rest of kg
    on nodes beta; all arguments are batches."""
    n = len(w0)
    cols = np.arange(len(t))
    x1 = np.zeros((n, len(t)))
    x1[alpha, cols] = t * theta[alpha] / 2.0
    v1 = lu_solve(lu, x1)
    wg2 = theta[beta] * (1.0 + w0[beta] * v1[beta, cols]) / 2.0
    rhs2 = w0[:, None] * v1
    rhs2[beta, cols] += (kg - t) * wg2
    return lu_solve(lu, rhs2).sum(axis=0)


def check_single_camp(text: bytes, src, dst, n: int, *, kg, seed,
                      camp_base: float = 0.1, samples: int = 32) -> list[str]:
    """Sweep rows of the single-camp optimum: the value and split match a
    simulation of the dynamics, and no sampled pair beats the value.

    ``sweep`` builds each grid point's network with zero initial opinions
    (harness.generate_weights), whatever --v0 says, so the check does too.
    """
    fail: list[str] = []
    theta = np.full(n, 2.0 * camp_base)
    rng = np.random.default_rng(seed)
    for row in _rows(text):
        w0 = float(row["w0"])
        value, k1, k2 = float(row["objective"]), float(row["k1_good"]), float(row["k2_good"])
        dense = np.eye(n) - weights(src, dst, n, w0, camp_base).toarray()
        lu = lu_factor(dense)
        m = np.linalg.inv(dense)
        w0v = np.full(n, w0)
        r = m.sum(axis=0)
        s = (r * w0v) @ m
        rho = (1.0 - 2.0 * camp_base) * (1.0 - w0)
        eps = kg * solver_bound(n, rho, w0) + 1e-11 * abs(value)
        # all pairs in closed form: obj(t) = kg*L[b] + t*(F[a] - L[b] + kg*K) - t^2*K
        gain = theta / 2.0
        big_l = gain * r
        big_f = gain * s
        coupling = (gain * r * w0v)[None, :] * gain[:, None] * m.T  # [alpha, beta]
        lin = big_f[:, None] - big_l[None, :] + kg * coupling
        with np.errstate(divide="ignore", invalid="ignore"):
            t_int = np.clip(lin / (2.0 * coupling), 0.0, kg)
        t_int = np.where(coupling > 0.0, t_int, 0.0)
        base = kg * big_l[None, :]
        vals = np.maximum(
            np.maximum(base, base + kg * lin - kg * kg * coupling),
            base + t_int * lin - t_int * t_int * coupling,
        )
        best = float(vals.max())
        if best <= 0.0:
            if k1 != 0.0 or k2 != 0.0 or abs(value) > eps:
                fail.append(f"w0={w0}: expected stay-out, got {row}")
            continue
        if abs(value - best) > eps:
            fail.append(f"w0={w0}: value {value!r} vs closed-form optimum {best!r}")
        if abs(k1 + k2 - kg) > 1e-9 * kg:
            fail.append(f"w0={w0}: split {k1} + {k2} does not spend kg={kg}")
        near = np.argwhere(vals >= best - eps)[:8]
        sims = _simulate_single(lu, theta, w0v, np.full(len(near), k1),
                                near[:, 0], near[:, 1], kg)
        if np.min(np.abs(sims - value)) > eps:
            fail.append(f"w0={w0}: simulated {sims.tolist()} at split {k1} vs value {value!r}")
        alpha = rng.integers(0, n, samples)
        beta = rng.integers(0, n, samples)
        grid = np.array([0.0, kg / 2.0, kg])
        obj = _simulate_single(lu, theta, w0v, np.repeat(grid[None, :], samples, 0).ravel(),
                               np.repeat(alpha, 3), np.repeat(beta, 3), kg).reshape(samples, 3)
        # exact quadratic through t = 0, kg/2, kg; its maximum on [0, kg]
        c2 = 2.0 * (obj[:, 0] - 2.0 * obj[:, 1] + obj[:, 2]) / (kg * kg)
        c1 = (obj[:, 2] - obj[:, 0]) / kg - c2 * kg
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = np.where(c2 < 0.0, np.clip(-c1 / (2.0 * c2), 0.0, kg), 0.0)
        sampled = np.maximum(obj.max(axis=1), obj[:, 0] + c1 * t_star + c2 * t_star ** 2)
        if sampled.max() > value + eps:
            k = int(np.argmax(sampled))
            fail.append(f"w0={w0}: pair ({alpha[k]}, {beta[k]}) reaches {sampled[k]!r} > {value!r}")
    return fail


# ----------------------------------------------------------------- games

def highs_bounds(payoff: np.ndarray) -> tuple[float, float]:
    """Certified [floor, ceiling] of the game value from HiGHS's own mixes."""
    shift = 1.0 - float(payoff.min())
    shifted = payoff + shift
    res = linprog(
        -np.ones(shifted.shape[1]), A_ub=shifted, b_ub=np.ones(shifted.shape[0]),
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    col = res.x / res.x.sum()
    row = -res.ineqlin.marginals
    row = row / row.sum()
    return float((row @ payoff).min()), float((payoff @ col).max())


def game_exploitability(payoff, row_mix, col_mix, value) -> float:
    """Largest gain either player gets by deviating from its mix against value."""
    return max(float((payoff @ col_mix).max()) - value, value - float((row_mix @ payoff).min()))


def certificate_miss(payoff, row_mix, col_mix, value, highs) -> float:
    """Size of a certificate failure: the exploitability, or how far the
    value lies outside the HiGHS interval ``highs``, whichever is larger."""
    lo, hi = highs
    return max(game_exploitability(payoff, row_mix, col_mix, value), lo - value, value - hi)


def check_game(payoff, row_mix, col_mix, value, highs=None) -> tuple[list[str], list[str]]:
    """(malformed, certificate) failure messages of one solved game.

    Malformed: a mix is not a distribution. Certificate: the exploitability
    exceeds GAME_TOL, or the value lies outside the interval HiGHS certifies
    (widened by GAME_TOL). ``highs`` is the cached ``highs_bounds(payoff)``."""
    malformed, certificate = [], []
    for name, mix in (("row", row_mix), ("col", col_mix)):
        if np.any(mix < 0.0) or abs(float(mix.sum()) - 1.0) > GAME_TOL:
            malformed.append(f"{name} mix is not a distribution")
    gap = game_exploitability(payoff, row_mix, col_mix, value)
    if not gap <= GAME_TOL:
        certificate.append(f"{payoff.shape} game: exploitability {gap:.3e} > {GAME_TOL:g}")
    lo, hi = highs if highs is not None else highs_bounds(payoff)
    if not lo - GAME_TOL <= value <= hi + GAME_TOL:
        certificate.append(f"{payoff.shape} game: value {value!r} outside HiGHS [{lo!r}, {hi!r}]")
    return malformed, certificate


def two_camp_payoff(lu, theta, w0, kg, kb) -> np.ndarray:
    """Every payoff entry of the two-camp game, from simulations of the
    dependency dynamics (zero initial opinions).

    Strategies are the node pairs (alpha, beta) in row-major order plus a
    final stay-out strategy. For one pair of profiles the final opinion sum
    is a quadratic in the phase-1 budgets (a, b), so six simulations fix it
    exactly; the entry is max over a in [0, kg] of min over b in [0, kb].
    The inner minimum is taken over the endpoints and the clamped stationary
    point; the outer function is concave, so a golden-section search finds
    its maximum.
    """
    n = len(w0)
    nodes = np.arange(n * n + 1)
    on = (nodes < n * n).astype(float)  # 0 for the stay-out strategy
    first, second = np.minimum(nodes, n * n - 1) // n, np.minimum(nodes, n * n - 1) % n
    m = len(nodes)
    gi, bi = np.repeat(nodes, m), np.tile(nodes, m)
    points = ((0.0, 0.0), (kg / 2, 0.0), (kg, 0.0), (0.0, kb / 2), (0.0, kb), (kg, kb))
    a = np.concatenate([np.full(len(gi), pa) for pa, _ in points])
    b = np.concatenate([np.full(len(gi), pb) for _, pb in points])
    g_on, b_on = np.tile(on[gi], 6), np.tile(on[bi], 6)
    alpha, beta = np.tile(first[gi], 6), np.tile(second[gi], 6)
    gamma, delta = np.tile(first[bi], 6), np.tile(second[bi], 6)
    cols = np.arange(len(a))
    x1 = np.zeros((n, len(a)))
    np.add.at(x1, (alpha, cols), g_on * a * theta[alpha] / 2.0)
    np.add.at(x1, (gamma, cols), -b_on * b * theta[gamma] / 2.0)
    v1 = lu_solve(lu, x1)
    rhs2 = w0[:, None] * v1
    np.add.at(rhs2, (beta, cols),
              g_on * (kg - a) * theta[beta] * (1.0 + w0[beta] * v1[beta, cols]) / 2.0)
    np.add.at(rhs2, (delta, cols),
              -b_on * (kb - b) * theta[delta] * (1.0 - w0[delta] * v1[delta, cols]) / 2.0)
    f00, fh0, fk0, f0h, f0k, fkk = lu_solve(lu, rhs2).sum(axis=0).reshape(6, -1)
    # u(a, b) = f00 + ca a + cb b + caa a^2 + cbb b^2 + cab a b
    caa = 2.0 * (f00 - 2.0 * fh0 + fk0) / (kg * kg)
    ca = (fk0 - f00) / kg - caa * kg
    cbb = 2.0 * (f00 - 2.0 * f0h + f0k) / (kb * kb)
    cb = (f0k - f00) / kb - cbb * kb
    cab = (fkk - fk0 - f0k + f00) / (kg * kb)

    def inner(x):
        lin = cb + cab * x
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(cbb > 0.0, np.clip(-lin / (2.0 * cbb), 0.0, kb), 0.0)
        base = f00 + ca * x + caa * x * x
        return base + np.minimum(np.minimum(0.0, lin * kb + cbb * kb * kb), lin * y + cbb * y * y)

    lo, hi = np.zeros(len(f00)), np.full(len(f00), kg)
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    while np.max(hi - lo) > 1e-13 * kg:
        x_lo, x_hi = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        left = inner(x_lo) >= inner(x_hi)
        hi, lo = np.where(left, x_hi, hi), np.where(left, lo, x_lo)
    best = np.maximum(np.maximum(inner(np.zeros(len(f00))), inner(np.full(len(f00), kg))),
                      inner((lo + hi) / 2.0))
    return best.reshape(m, m)


def check_two_camp(text: bytes, src, dst, n: int, *, kg, kb,
                   camp_base: float = 0.1) -> list[str]:
    """Sweep rows of the two-camp game. The payoff is assembled here from
    simulations of the dynamics and compared entry by entry with the one the
    library builds; the library's equilibrium must be certified on its own
    payoff, and the reported value must match HiGHS on the simulated one."""
    from opinion_game.model import Network
    from opinion_game.strategy_dependent import two_camp_equilibrium

    fail: list[str] = []
    theta = np.full(n, 2.0 * camp_base)
    for row in _rows(text):
        w0 = float(row["w0"])
        camp_w = camp_base * (1.0 - w0)
        w = weights(src, dst, n, w0, camp_base)
        net = Network(
            n=n, weights=w, w0=np.full(n, w0), v0=np.zeros(n),
            wg=np.full(n, camp_w), wb=np.full(n, camp_w), theta=theta,
        )
        sol = two_camp_equilibrium(net, kg, kb)
        simulated = two_camp_payoff(lu_factor(np.eye(n) - w.toarray()), theta,
                                    np.full(n, w0), kg, kb)
        rho = (1.0 - 2.0 * camp_base) * (1.0 - w0)
        eps = (kg + kb) * solver_bound(n, rho, w0) + 1e-11 * max(1.0, float(np.abs(simulated).max()))
        gap = np.abs(simulated - sol.payoff)
        if gap.max() > eps:
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            fail.append(f"w0={w0}: payoff[{i}, {j}] {float(sol.payoff[i, j])!r} vs simulated "
                        f"{float(simulated[i, j])!r} (tolerance {eps:.3g})")
        value = float(row["objective"])
        if abs(value - sol.value) > 1e-11 * max(1.0, abs(sol.value)):
            fail.append(f"w0={w0}: reported {value!r} vs equilibrium value {sol.value!r}")
        malformed, certificate = check_game(sol.payoff, sol.row_mix, sol.col_mix, sol.value)
        fail += [f"w0={w0}: {msg}" for msg in malformed + certificate]
        lo, hi = highs_bounds(simulated)
        if not lo - eps - GAME_TOL <= value <= hi + eps + GAME_TOL:
            fail.append(f"w0={w0}: value {value!r} outside HiGHS [{lo!r}, {hi!r}] "
                        "on the simulated payoff")
    return fail
