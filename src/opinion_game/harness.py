"""Experiment pipeline: weight assignment over a topology, bias-weight sweeps,
and a seeded synthetic graph generator for desk-scale runs.

One private point solver, ``_solve_point``, runs a sweep mode's optimizer on
one network. :func:`sweep_w0` calls it at every grid value, and the CLI's
``strategy-fixed`` and ``strategy-dep`` call it once, so a single-point
command and the sweep row of a one-value grid print the same answers.

Weights follow a one-knob scheme: at the reference bias weight w0 = 0 every
node grants each camp ``camp_base`` and spreads the remaining 1 - 2*camp_base
uniformly over its out-edges; for a general w0 all of those values scale by
(1 - w0), so each node's weights always sum to exactly 1. The camp total
theta used by the dependency setting stays at the unscaled reference value
2 * camp_base across the whole sweep. The arc weights of a topology are one
array expression, (1 - 2*camp_base)(1 - w0) / out_degree[src].
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .centrality import compute_profile
from .model import BAD, GOOD, Budgets, Network, Topology
from .strategy_dependent import single_camp_optimal, two_camp_equilibrium
from .strategy_fixed import bounded_greedy, evaluate_two_phase, myopic_loss

DEFAULT_W0_GRID = tuple(i * 0.05 for i in range(20))

SWEEP_MODES = ("bounded", "dependency1", "dependency2")

#: column order of sweep rows; myopic_loss is None outside the bounded mode
SWEEP_COLUMNS = ("w0", "k1_good", "k2_good", "k1_bad", "k2_bad", "objective", "myopic_loss")

#: mix probabilities at or below this are left out of a sweep row's expected
#: phase-1 budgets and of the schedules ``strategy-dep`` prints
SUPPORT_CUTOFF = 1e-12


@dataclass(frozen=True)
class WeightScheme:
    """Reference camp weight and the grid of bias weights to sweep."""

    camp_base: float = 0.1
    w0_grid: tuple[float, ...] = DEFAULT_W0_GRID

    def __post_init__(self):
        if not 0.0 < self.camp_base or not 2.0 * self.camp_base < 1.0:
            raise ValueError(f"camp_base must satisfy 0 < 2*camp_base < 1, got {self.camp_base}")
        if len(self.w0_grid) == 0:
            raise ValueError("w0_grid must be non-empty")
        for g in self.w0_grid:
            if not 0.0 <= g < 1.0:
                raise ValueError(f"w0 grid values must lie in [0, 1), got {g}")


def generate_weights(topology: Topology, w0: float, scheme: WeightScheme | None = None) -> Network:
    """Assign weights to a topology for one bias-weight value.

    Initial opinions are zero. Isolated nodes simply have no edge weights;
    their camp and bias weights are still assigned.
    """
    scheme = scheme if scheme is not None else WeightScheme()
    if not 0.0 <= w0 < 1.0:
        raise ValueError(f"w0 must lie in [0, 1), got {w0}")
    scale = 1.0 - w0
    cg = scheme.camp_base
    weight = (1.0 - 2.0 * cg) * scale / topology.out_degrees()[topology.src]
    return Network.build(
        topology.n,
        Topology._trusted(topology.n, topology.src, topology.dst, weight),
        w0=w0,
        v0=0.0,
        wg=cg * scale,
        wb=cg * scale,
        theta=2.0 * cg,
    )


def ba_graph(n: int, attach: int = 2, seed: int = 0) -> Topology:
    """Seeded preferential-attachment topology with arcs in both directions.

    Each new node links to ``attach`` distinct existing nodes drawn in
    proportion to degree. Edge weights are placeholders until
    :func:`generate_weights` assigns them.
    """
    if attach < 1 or n <= attach:
        raise ValueError(f"need n > attach >= 1, got n={n}, attach={attach}")
    rng = random.Random(seed)
    src: list[int] = []
    dst: list[int] = []
    repeated: list[int] = []
    targets = list(range(attach))
    for v in range(attach, n):
        src.extend([v] * attach)
        dst.extend(targets)
        repeated.extend(targets)
        repeated.extend([v] * attach)
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    return Topology(n, src + dst, dst + src, np.zeros(2 * len(src)))


def _expected_splits(solution):
    """Mixed-strategy expectation of the phase-1 budgets over support pairs,
    read from the splits of the solve's row and column sets."""
    p = solution.row_mix[solution.row_set]
    q = solution.col_mix[solution.col_set]
    rows, cols = p > SUPPORT_CUTOFF, q > SUPPORT_CUTOFF
    return tuple(
        float(p[rows] @ split[np.ix_(rows, cols)] @ q[cols])
        for split in (solution.restricted_kg1, solution.restricted_kb1)
    )


def _spent(plan):
    return float(plan.x1.sum()), float(plan.x2.sum())


def _solve_point(net, mode, budgets, cap, start=None):
    """Solve one point's network in ``mode``, a member of SWEEP_MODES.

    Returns the budget and objective cells of its sweep row (SWEEP_COLUMNS
    after w0) and what they were read from: the (good, bad) plans of
    per-node cap ``cap`` in the bounded mode, the good camp's plan in
    dependency1, and the GameSolution in dependency2, whose double oracle
    starts from the supports of ``start`` when one is given.
    """
    if mode == "bounded":
        prof = compute_profile(net)
        good = bounded_greedy(net, budgets.kg, GOOD, cap=cap, profile=prof)
        bad = bounded_greedy(net, budgets.kb, BAD, cap=cap, profile=prof)
        objective = evaluate_two_phase(net, good.x1, good.x2, bad.x1, bad.x2, profile=prof)
        loss = myopic_loss(net, budgets.kb, profile=prof)
        cells, source = (*_spent(good), *_spent(bad), objective, loss), (good, bad)
    elif mode == "dependency1":
        source, value = single_camp_optimal(net, budgets.kg)
        cells = (*_spent(source), 0.0, 0.0, value, None)
    else:
        source = two_camp_equilibrium(net, budgets.kg, budgets.kb, start=start)
        eg1, eb1 = _expected_splits(source)
        cells = (eg1, budgets.kg - eg1, eb1, budgets.kb - eb1, source.value, None)
    return dict(zip(SWEEP_COLUMNS[1:], cells)), source


def sweep_w0(
    topology: Topology,
    scheme: WeightScheme | None = None,
    mode: str = "bounded",
    budgets: Budgets | None = None,
    *,
    bounded_cap: float = 1.0,
) -> list[dict]:
    """One row per grid value, with the columns of SWEEP_COLUMNS: generate
    weights at that w0, solve the mode's optimum, and report the phase
    budgets and objective. A one-value grid gives a single point's row. The
    ``strategy-fixed`` and ``strategy-dep`` commands solve their one point
    through the same point solver, so their objectives print as this row's.
    In the dependency2 mode each point's double oracle starts from the
    supports of the previous point's equilibrium, which neighbouring bias
    weights mostly share."""
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    scheme = scheme if scheme is not None else WeightScheme()
    budgets = budgets if budgets is not None else Budgets(100.0, 100.0)
    rows, start = [], None
    for w0 in scheme.w0_grid:
        # the previous point's result; only the dependency2 mode reads it
        cells, start = _solve_point(
            generate_weights(topology, w0, scheme), mode, budgets, bounded_cap, start
        )
        rows.append({"w0": w0, **cells})
    return rows
