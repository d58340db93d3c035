"""Shared test helpers: seeded random instances that satisfy the weight
constraints, plus independent oracles (truncated series, dense-inverse
dynamics, plain sweeps of the phase recursion, scalar loops over arcs and
slots) that never route through the package's solvers or its array code,
and a recorder of the Chebyshev series' calls."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st
from scipy import sparse

from opinion_game import (
    GOOD,
    ConvergenceError,
    DependencyCoefficients,
    Network,
    Topology,
    compute_profile,
)
import opinion_game.dynamics as dynamics
from opinion_game.centrality import delta_matrix
from opinion_game.dynamics import DEFAULT_TOL, EPS, MAX_SWEEPS, STALL_ULPS, solve_linear
from opinion_game.game import PIVOT_TOL, GameSolverError, _pivot, solve_zero_sum
from opinion_game.model import TOLERANCE
from opinion_game.strategy_dependent import (
    _box_saddle,
    _camp_terms,
    _coefficient_block,
    _profile_nodes,
)


def random_network(
    rng: np.random.Generator,
    n: int,
    *,
    nonneg: bool = True,
    dependency: bool = False,
    edge_mass: float = 0.8,
    density: float = 0.6,
) -> Network:
    """Random network whose rows satisfy the weight constraints with margin.

    Per node the network-edge mass is at most ``edge_mass`` (< 1) and the
    leftover up to 1 is split between the bias and camp weights with a
    random share left unused. Dependency instances are nonnegative with
    opinions in [-1, 1] and theta equal to the camps' combined weight.
    """
    if dependency:
        nonneg = True
    edges = []
    row_mass = np.zeros(n)
    for i in range(n):
        targets = [j for j in range(n) if rng.random() < density]
        if not targets:
            continue
        raw = rng.random(len(targets)) + 0.05
        total = rng.uniform(0.05, edge_mass)
        weights = raw / raw.sum() * total
        if not nonneg:
            weights = weights * rng.choice([-1.0, 1.0], size=len(targets))
        row_mass[i] = total
        edges.extend((i, int(j), float(w)) for j, w in zip(targets, weights))
    shares = rng.dirichlet([1.0, 1.0, 1.0, 1.0], size=n)
    slack = 1.0 - row_mass
    w0 = shares[:, 0] * slack
    wg = shares[:, 1] * slack
    wb = shares[:, 2] * slack
    if not dependency:
        w0 = w0 * rng.choice([-1.0, 1.0], size=n)
    v0 = rng.uniform(-1.0, 1.0, n)
    theta = wg + wb
    return Network.build(n, edges, w0=w0, v0=v0, wg=wg, wb=wb, theta=theta)


@st.composite
def validated_networks(draw, dependency: bool = False) -> Network:
    """Networks of 1-8 nodes that ``validate`` accepts, in dependency mode
    when asked. Arcs are drawn over all ordered pairs, self-loops included,
    so nodes without out-arcs, nodes nobody listens to and isolated nodes
    all occur. Node i's row of |w| sums to 1 - 10^-k_i with k_i in [0, 9],
    so up to 1 - 1e-9; w0, wg, wb and theta take shares of the rest of the
    row's mass, each node its own. Outside dependency mode arc weights and
    w0 carry random signs. v0 lies in [-1, 1]."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    unit = st.floats(0.0, 1.0)
    signs = st.sampled_from([1.0] if dependency else [1.0, -1.0])
    raw = [draw(st.floats(0.01, 1.0)) * draw(signs) for _ in arcs]
    slack = np.array([10.0 ** -draw(st.floats(0.0, 9.0)) for _ in range(n)])
    mass = np.zeros(n)
    for (i, _), w in zip(arcs, raw):
        mass[i] += abs(w)
    weights = [
        (i, j, w / mass[i] * (1.0 - slack[i])) for (i, j), w in zip(arcs, raw)
    ]
    shares = np.array([[draw(unit) for _ in range(5)] for _ in range(n)])
    shares /= np.maximum(shares.sum(axis=1, keepdims=True), 1.0)
    w0, wg, wb, theta = (shares[:, k] * slack for k in range(4))
    w0 = w0 * np.array([draw(signs) for _ in range(n)])
    v0 = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(n)])
    return Network.build(n, weights, w0=w0, v0=v0, wg=wg, wb=wb, theta=theta)


def directed_family(seed: int, n: int = 2000, rho: float = 0.56, w0: float = 0.3) -> Network:
    """Seeded random digraph, where ``ba_graph`` is symmetric: node i has
    Poisson(2) out-arcs to random other nodes, repeats merged, and a fifth of
    the nodes have none (sinks). Each row of w with arcs sums to ``rho``, so
    w has a complex spectrum; w0 is uniform."""
    rng = np.random.default_rng(seed)
    degree = rng.poisson(2, n) * (rng.random(n) > 0.2)
    arcs = np.unique(np.column_stack([np.repeat(np.arange(n), degree),
                                      rng.integers(0, n, degree.sum())]), axis=0)
    src, dst = arcs[arcs[:, 0] != arcs[:, 1]].T
    weight = rho / np.bincount(src, minlength=n)[src]
    return Network.build(n, Topology(n, src, dst, weight), w0=w0)


def two_node_net(w0=0.3, v0=1.0, wg=0.0, wb=0.0, theta=0.0) -> Network:
    """The hand-checkable pair: mutual weight 0.5, everything else settable."""
    return Network.build(
        2, [(0, 1, 0.5), (1, 0, 0.5)], w0=w0, v0=v0, wg=wg, wb=wb, theta=theta
    )


def neumann_transpose_apply(net: Network, rhs: np.ndarray, terms: int = 200) -> np.ndarray:
    """Truncated series sum of (w^T)^k rhs, the defining expansion of the
    influence solves; independent of the package's linear solvers."""
    wt = net.weights.toarray().T
    acc = rhs.astype(float).copy()
    term = rhs.astype(float).copy()
    for _ in range(terms):
        term = wt @ term
        acc += term
    return acc


def dense_steady_state(net: Network, v_prev, x=None, y=None) -> np.ndarray:
    """One phase's converged opinions with the fixed camp weights, from a
    dense solve of (I - w) v = w0 o v_prev + wg o x - wb o y."""
    n = net.n
    x = np.zeros(n) if x is None else np.asarray(x, dtype=float)
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    rhs = net.w0 * np.asarray(v_prev, dtype=float) + net.wg * x - net.wb * y
    return np.linalg.solve(np.eye(n) - net.weights.toarray(), rhs)


def plain_iterate(mat, rhs, start, rho: float, column_sums: bool = False,
                  tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """(J(v), sweeps) of plain sweeps v <- J(v) = mat @ v + rhs from
    ``start``, the paper's per-phase recursion, under the stop rules of the
    library's iterative solves. ``mat`` contracts by ``rho`` < 1 in the
    max-norm, or in each column's 1-norm with ``column_sums``. The loop stops
    once rho / (1 - rho) * |step| < ``tol``, or once a step fails to shrink
    by rho within ``STALL_ULPS`` ulps of the iterate; it raises
    ConvergenceError past its budget: where the first step, shrunk by rho
    per sweep, meets tol / 2, plus two sweeps, at most ``MAX_SWEEPS``."""

    def norm(a):
        a = np.abs(a)
        return float((a.sum(axis=0) if column_sums else a).max(initial=0.0))

    gain = rho / (1.0 - rho)
    v, prev, budget = start, math.inf, None
    for sweeps in range(1, MAX_SWEEPS + 1):
        nxt = mat @ v + rhs
        step = norm(nxt - v)
        if gain * step < tol:
            return nxt, sweeps
        if step > rho * prev and step < STALL_ULPS * EPS * norm(nxt):
            return nxt, sweeps
        if not math.isfinite(step):
            break
        if budget is None:
            bound = gain * step
            budget = 2 + (0 if bound < tol / 2 else
                          math.ceil(math.log(tol / 2 / bound) / math.log(rho)))
        if sweeps >= budget:
            break
        v, prev = nxt, step
    raise ConvergenceError(f"plain sweeps stopped at sweep {sweeps} with step {step:.3e}")


def plain_phase(net: Network, v_prev, x=None, y=None, *, tol: float = DEFAULT_TOL):
    """(opinions, sweeps) of one phase with the fixed camp weights, run as
    plain sweeps of v <- w v + (w0 o v_prev + wg o x - wb o y) from v_prev."""
    n = net.n
    v_prev = np.asarray(v_prev, dtype=float)
    x = np.zeros(n) if x is None else np.asarray(x, dtype=float)
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    rhs = net.w0 * v_prev + net.wg * x - net.wb * y
    return plain_iterate(net.weights, rhs, v_prev, float(net.row_abs_sums.max()), tol=tol)


def refined_solve(a: np.ndarray, b: np.ndarray, rounds: int = 4) -> np.ndarray:
    """Solution of a z = b to about float64 rounding, whatever the conditioning
    of a: an LU solve refined with residuals computed in extended precision."""
    a_ext = a.astype(np.longdouble)
    z = np.linalg.solve(a, b).astype(np.longdouble)
    for _ in range(rounds):
        resid = b.astype(np.longdouble) - a_ext @ z
        z = z + np.linalg.solve(a, resid.astype(float)).astype(np.longdouble)
    return z.astype(float)


def dependency_two_phase_sum(net: Network, x1, x2, y1, y2) -> float:
    """Final-phase opinion sum in the bias-dependency setting, computed from
    a dense inverse and the raw update formulas only."""
    n = net.n
    delta = np.linalg.inv(np.eye(n) - net.weights.toarray())
    wg1 = net.theta * (1.0 + net.w0 * net.v0) / 2.0
    wb1 = net.theta * (1.0 - net.w0 * net.v0) / 2.0
    v1 = delta @ (net.w0 * net.v0 + wg1 * np.asarray(x1) - wb1 * np.asarray(y1))
    wg2 = net.theta * (1.0 + net.w0 * v1) / 2.0
    wb2 = net.theta * (1.0 - net.w0 * v1) / 2.0
    v2 = delta @ (net.w0 * v1 + wg2 * np.asarray(x2) - wb2 * np.asarray(y2))
    return float(v2.sum())


def certificate_bound(net, exact_norm, rhs_norm, transpose):
    """The iterative path's bound on a solve whose solution and right-hand
    side have these norms: the stop rule (tolerance or stall) plus the
    rounding of sweeps over rows of d terms, in the system's norm (the
    max-norm, or each column's 1-norm for transposed systems)."""
    rho = float(net.row_abs_sums.max())
    gain = rho / (1.0 - rho)
    w = net.weights
    degree = np.bincount(w.indices, minlength=net.n) if transpose else np.diff(w.indptr)
    d = int(degree.max()) + 1
    stop = max(DEFAULT_TOL, gain * STALL_ULPS * EPS * exact_norm)
    rounding = d * EPS * (rho * exact_norm + rhs_norm) / (1.0 - rho)
    return stop + rounding


def within_certificate(net, z, exact, rhs, transpose):
    """Whether z lies within :func:`certificate_bound` of the exact solution."""
    norm = (lambda v: np.abs(v).sum(axis=0).max()) if transpose else (lambda v: np.abs(v).max())
    return norm(z - exact) <= certificate_bound(net, norm(exact), norm(rhs), transpose)


def resolvent_row(net: Network, j: int) -> np.ndarray:
    """Row j of (I - w)^{-1}, from the transposed solve (I - w)^T z = e_j: on
    the dense path a product of the cached inverse with a unit vector, so
    bitwise equal to ``delta_matrix(net)[j]``."""
    return solve_linear(net, np.eye(1, net.n, j)[0], transpose=True)


def quad_coefficients(net: Network, coef, good, bad, kg: float, kb: float):
    """Coefficients (u00, qa, qb, qaa, qbb, qab) of the final-phase objective

        u(a, b) = u00 + qa a + qb b + qaa a^2 + qbb b^2 + qab a b

    after fixing the node profiles and substituting the phase-2 budgets
    kg - a and kb - b (a, b are the phase-1 budgets). A camp passed as None
    stays out entirely: its variable disappears and its budget is forced to
    zero. Under the dependency assumptions qaa <= 0 and qbb >= 0, making u
    concave in a and convex in b. Entry by entry this is what
    ``strategy_dependent._coefficient_block`` assembles in blocks; here each
    coefficient comes from the scalar formulas, with ``coef`` the network's
    ``DependencyCoefficients`` and row j of b read as scale[j] * delta[j, :].
    """

    def b_row(j):
        return coef.scale[j] * resolvent_row(net, j)

    def cb(j):
        return float(b_row(j) @ coef.c)

    u00 = coef.s_total
    qa = qb = qaa = qbb = qab = 0.0
    g1 = g2 = 0.0
    if good is not None:
        alpha, beta = good
        g1 = 0.5 * coef.theta[alpha] * (1.0 + coef.c[alpha])
        g2 = 0.5 * coef.theta[beta]
        gain_beta = cb(beta) + coef.r[beta]
        b_ba = b_row(beta)[alpha]
        u00 += kg * g2 * gain_beta
        qa = g1 * (coef.s[alpha] + kg * g2 * b_ba) - g2 * gain_beta
        qaa = -g1 * g2 * b_ba
    if bad is not None:
        gamma, delta = bad
        h1 = 0.5 * coef.theta[gamma] * (1.0 - coef.c[gamma])
        h2 = 0.5 * coef.theta[delta]
        gain_delta = cb(delta) - coef.r[delta]
        b_dg = b_row(delta)[gamma]
        u00 += kb * h2 * gain_delta
        qb = -h1 * (coef.s[gamma] + kb * h2 * b_dg) - h2 * gain_delta
        qbb = h1 * h2 * b_dg
        if good is not None:
            b_da = b_row(delta)[alpha]
            b_bg = b_row(beta)[gamma]
            qa += g1 * kb * h2 * b_da
            qb -= h1 * kg * g2 * b_bg
            qab = -g1 * h2 * b_da + h1 * g2 * b_bg
    return u00, qa, qb, qaa, qbb, qab


def oracle_profile(k: int, n: int):
    """Profile k of an n-node game in the form the scalar oracles take: its
    (phase-1 node, phase-2 node) pair, or None for stay-out."""
    pair = _profile_nodes(k, n)
    return None if pair[0] is None else pair


def saddle_entry(net: Network, good, bad, kg: float, kb: float) -> tuple[float, float, float]:
    """(value, kg1, kb1) of one payoff entry: the box saddle of the scalar
    :func:`quad_coefficients` of the profiles ``good`` and ``bad``, each a
    (phase-1 node, phase-2 node) pair or None for a camp that stays out and
    so has a budget of 0."""
    coefs = quad_coefficients(net, DependencyCoefficients(net), good, bad, kg, kb)
    ka = kg if good is not None else 0.0
    kd = kb if bad is not None else 0.0
    value, a, b = _box_saddle(*coefs, ka, kd)
    return float(value), float(a), float(b)


def interior_saddle(qa, qb, qaa, qbb, qab):
    """Stationary point of u(a, b) = qa a + qb b + qaa a^2 + qbb b^2 + qab a b
    from its first-order conditions, or None unless u is strictly concave
    in a and strictly convex in b."""
    if not (qaa < 0.0 and qbb > 0.0):
        return None
    a, b = np.linalg.solve([[2.0 * qaa, qab], [qab, 2.0 * qbb]], [-qa, -qb])
    return float(a), float(b)


def outer_split(px, py, pxx, pyy, pxy, kx, ky):
    """First maximizer over [0, kx] of min over y in [0, ky] of

        p(x, y) = px x + py y + pxx x^2 + pyy y^2 + pxy x y,

    elementwise, from the box endpoints, piece breakpoints and piece
    stationary points, scored in that order; the candidates are stacked from
    broadcast arrays and out-of-box scores dropped with ``np.where``."""
    with np.errstate(all="ignore"):
        convex = pyy > 0.0
        cands = np.stack(np.broadcast_arrays(
            0.0,
            kx,
            -np.where(convex, py, py + pyy * ky) / pxy,
            np.where(convex, -(py + 2.0 * pyy * ky) / pxy, np.nan),
            -px / (2.0 * pxx),
            -(px + pxy * ky) / (2.0 * pxx),
            np.where(
                convex,
                -(px - pxy * py / (2.0 * pyy)) / (2.0 * (pxx - pxy * pxy / (4.0 * pyy))),
                np.nan,
            ),
        ))
        slope = py + pxy * cands
        y = np.where(
            convex,
            np.clip(-slope / (2.0 * pyy), 0.0, ky),
            np.where(slope * ky + pyy * ky * ky >= 0.0, 0.0, ky),
        )
        score = px * cands + pxx * cands * cands + slope * y + pyy * y * y
        score = np.where((cands >= 0.0) & (cands <= kx), score, -np.inf)
    best = np.expand_dims(np.argmax(score, axis=0), 0)
    return np.take_along_axis(cands, best, axis=0)[0]


def mirrored_box_saddle(u00, qa, qb, qaa, qbb, qab, kg, kb):
    """(value, a, b) of the box saddle of u00 + qa a + qb b + qaa a^2 +
    qbb b^2 + qab a b over [0, kg] x [0, kb] from two candidate searches,
    one per camp: a maximizes min_b u and b minimizes max_a u."""
    u00, qa, qb, qaa, qbb, qab, kg, kb = (
        np.asarray(x, dtype=float) for x in (u00, qa, qb, qaa, qbb, qab, kg, kb)
    )
    a = outer_split(qa, qb, qaa, qbb, qab, kg, kb)
    b = outer_split(-qb, -qa, -qbb, -qaa, -qab, kb, kg)
    value = u00 + qa * a + qb * b + qaa * a * a + qbb * b * b + qab * a * b
    return value, a, b


@dataclass(frozen=True)
class FullGame:
    payoff: np.ndarray
    kg1: np.ndarray
    kb1: np.ndarray
    row_mix: np.ndarray
    col_mix: np.ndarray
    value: float


def full_game_solution(net: Network, kg: float, kb: float) -> FullGame:
    """The two-camp game solved whole: every payoff entry assembled in
    n x (n^2+1) row blocks, one per phase-1 node of the good camp plus the
    stay-out row, by the saddle kernel, then one ``solve_zero_sum`` over the
    (n^2+1) x (n^2+1) matrix."""
    n = net.n
    m = n * n + 1
    coef = DependencyCoefficients(net)
    b_mat = (coef.r * net.w0)[:, None] * delta_matrix(net)
    good = _camp_terms(coef, kg, 1.0)
    bad = _camp_terms(coef, kb, -1.0)
    payoff, kg1, kb1 = (np.empty((m, m)) for _ in range(3))
    for start in range(0, m, n):
        rows = slice(start, start + n)
        block = _coefficient_block(coef, b_mat, [x[rows, None] for x in good], bad)
        payoff[rows], kg1[rows], kb1[rows] = _box_saddle(*block)
    row_mix, col_mix, value = solve_zero_sum(payoff)
    return FullGame(payoff, kg1, kb1, row_mix, col_mix, value)


def compositions(total_units: int, bins: int):
    """All nonnegative integer tuples of length ``bins`` summing to at most
    ``total_units`` (grid enumeration for brute-force allocation oracles)."""
    if bins == 0:
        yield ()
        return
    for first in range(total_units + 1):
        for rest in compositions(total_units - first, bins - 1):
            yield (first,) + rest


def arc_list(topology: Topology) -> list[tuple[int, int, float]]:
    """The arcs of a Topology as (src, dst, weight) triples, in its order."""
    return list(zip(topology.src.tolist(), topology.dst.tolist(), topology.weight.tolist()))


def loop_load_edge_list(path, symmetrize: bool = False):
    """(n, src, dst, weight) of an edge-list file read one line at a time:
    the first malformed line raises ValueError, then the first arc, in file
    order, that repeats an earlier (src, dst). Ids of 2**63 - 1 or more are
    out of its scope: the loader refuses them, since the node count would not
    fit in int64."""
    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}: line {lineno}: expected 'src dst [weight]', got {raw.strip()!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 0.0
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {raw.strip()!r}"
                ) from None
            if i < 0 or j < 0:
                raise ValueError(f"{path}: line {lineno}: negative node id in {raw.strip()!r}")
            src.append(i)
            dst.append(j)
            wts.append(w)
            linenos.append(lineno)
    if not src:
        raise ValueError(f"{path}: no nodes (empty edge list)")
    n = max(max(src), max(dst)) + 1
    arcs = []
    for i, j, w, lineno in zip(src, dst, wts, linenos):
        arcs.append((i, j, w, lineno))
        if symmetrize and i != j:
            arcs.append((j, i, w, lineno))
    seen: set[tuple[int, int]] = set()
    for i, j, _, lineno in arcs:
        if (i, j) in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate edge ({i}, {j})")
        seen.add((i, j))
    return (
        n,
        np.array([a[0] for a in arcs], dtype=np.int64),
        np.array([a[1] for a in arcs], dtype=np.int64),
        np.array([a[2] for a in arcs], dtype=float),
    )


def loop_build_weights(n: int, edges) -> sparse.csr_array:
    """The weight matrix ``Network.build`` makes, one arc at a time, with
    int32 indices: the first arc out of range raises ValueError, and only
    then, when every arc is in range, the first arc repeating an earlier
    (src, dst)."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    seen: set[tuple[int, int]] = set()
    for i, j, _ in edges:
        if not (0 <= int(i) < n and 0 <= int(j) < n):
            raise ValueError(f"edge ({int(i)}, {int(j)}) out of range for n={n}")
    for i, j, w in edges:
        i, j = int(i), int(j)
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        rows.append(i)
        cols.append(j)
        vals.append(float(w))
    return sparse.csr_array(
        (np.asarray(vals, dtype=float),
         (np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32))),
        shape=(n, n),
    )


@dataclass(frozen=True)
class ScoredSlot:
    node: int
    phase: int
    coefficient: float


def scored_slots(net: Network, camp: str, profile=None) -> list[ScoredSlot]:
    """All 2n investment slots of a camp with their per-unit objective worth:
    s_i w_i in phase 1, r_i w_i in phase 2."""
    prof = profile if profile is not None else compute_profile(net)
    w = net.wg if camp == GOOD else net.wb
    slots = [ScoredSlot(i, 1, float(prof.s[i] * w[i])) for i in range(net.n)]
    slots += [ScoredSlot(i, 2, float(prof.r[i] * w[i])) for i in range(net.n)]
    return slots


def greedy_oracle(net: Network, budget: float, camp: str, cap: float = 1.0, profile=None):
    """(x1, x2) of the bounded greedy plan from a Python sort of the slots:
    worth descending, then phase 2 first, then the lowest node id."""
    order = sorted(
        scored_slots(net, camp, profile),
        key=lambda slot: (-slot.coefficient, -slot.phase, slot.node),
    )
    x = {1: np.zeros(net.n), 2: np.zeros(net.n)}
    remaining = float(budget)
    for slot in order:
        if remaining <= 0 or slot.coefficient <= 0:
            break
        amount = min(cap, remaining)
        x[slot.phase][slot.node] = amount
        remaining -= amount
    return x[1], x[2]


def plan_total(plan) -> float:
    """Total investment of a plan over both phases."""
    return float(plan.x1.sum() + plan.x2.sum())


def plan_violations(plan, budget: float, cap: float | None = None) -> list[str]:
    """A plan's breaches of its budget and of the per-node cap, each beyond
    the model's ``TOLERANCE``, as messages."""
    out = []
    if plan_total(plan) > budget + TOLERANCE:
        out.append(f"total investment {plan_total(plan):.6g} exceeds budget {budget:.6g}")
    if cap is not None:
        for name, vec in (("x1", plan.x1), ("x2", plan.x2)):
            for i in np.nonzero(vec > cap + TOLERANCE)[0]:
                out.append(f"{name}[{i}] = {vec[i]:.6g} exceeds the per-node cap {cap:.6g}")
    return out


def bland_oracle(tableau: np.ndarray, basis, cap: int) -> int:
    """Scalar loops of Bland's rule, a drop-in for ``game._simplex_bland``:
    scan for the first improving column, then scan the rows for the least
    ratio, ties to the smallest basic index."""
    nrows = tableau.shape[0] - 1
    ncols = tableau.shape[1] - 1
    for pivots in range(cap):
        enter = -1
        for j in range(ncols):
            if tableau[0, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return pivots
        col = tableau[1:, enter]
        leave = -1
        best_ratio = np.inf
        for i in range(nrows):
            if col[i] > PIVOT_TOL:
                ratio = tableau[i + 1, -1] / col[i]
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < basis[leave]):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise GameSolverError("unbounded pivot column; payoff matrix is ill-formed")
        _pivot(tableau, leave + 1, enter)
        basis[leave] = enter
    raise GameSolverError(
        f"pivot cap {cap} exceeded on a {nrows}x{ncols - nrows} game "
        f"(payoff range [{tableau.min():.3g}, {tableau.max():.3g}]); "
        "the matrix is likely too ill-conditioned for this solver"
    )


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
