"""Shared test helpers: seeded random instances that satisfy the weight
constraints, plus independent oracles (truncated series, dense-inverse
dynamics) that never route through the package's solvers."""

from __future__ import annotations

import numpy as np

from opinion_game import Network


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


def interior_saddle(qa, qb, qaa, qbb, qab):
    """Stationary point of u(a, b) = qa a + qb b + qaa a^2 + qbb b^2 + qab a b
    from its first-order conditions, or None unless u is strictly concave
    in a and strictly convex in b."""
    if not (qaa < 0.0 and qbb > 0.0):
        return None
    a, b = np.linalg.solve([[2.0 * qaa, qab], [qab, 2.0 * qbb]], [-qa, -qb])
    return float(a), float(b)


def compositions(total_units: int, bins: int):
    """All nonnegative integer tuples of length ``bins`` summing to at most
    ``total_units`` (grid enumeration for brute-force allocation oracles)."""
    if bins == 0:
        yield ()
        return
    for first in range(total_units + 1):
        for rest in compositions(total_units - first, bins - 1):
            yield (first,) + rest
