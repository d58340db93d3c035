"""Camp strategies when the camp influence weights are fixed per node.

With fixed weights the two camps' objectives decouple, so each camp can rank
the 2n (node, phase) slots by their per-unit worth: s_i * w_i for a phase-1
slot (the investment must survive into the final phase) and r_i * w_i for a
phase-2 slot. Under a per-node cap the optimum greedily fills slots in worth
order; with no cap (``cap=math.inf``) that fill puts the whole budget on the
best slot, the farsighted unbounded optimum. Only the slots the fill can
reach, about budget / cap of them, are ranked: ``np.partition`` finds the
worth threshold and a stable sort orders the slots at or above it. Every
strategy returns an :class:`~opinion_game.model.InvestmentPlan`.

Ties are broken deterministically: phase 2 first, then the lowest node id.
:func:`_slot_worth` sets this rule for every strategy by listing the phase-2
slots first, so a first maximum or a stable sort on worth alone keeps it.
"""

from __future__ import annotations

import math

import numpy as np

from .centrality import CentralityProfile, compute_profile
from .dynamics import _dot, _vec
from .model import BAD, GOOD, InvestmentPlan, Network


def _profile(net: Network, profile: CentralityProfile | None) -> CentralityProfile:
    return profile if profile is not None else compute_profile(net)


def _slot_worth(net: Network, camp: str, profile: CentralityProfile | None) -> np.ndarray:
    """Per-unit worth of the camp's 2n slots: entry i is node i's phase-2
    slot, r_i * w_i, and entry n + i its phase-1 slot, s_i * w_i."""
    if camp not in (GOOD, BAD):
        raise ValueError(f"camp must be {GOOD!r} or {BAD!r}, got {camp!r}")
    w = net.wg if camp == GOOD else net.wb
    prof = _profile(net, profile)
    return np.concatenate([prof.r * w, prof.s * w])


def myopic_strategy(
    net: Network, budget: float, camp: str, profile: CentralityProfile | None = None
) -> InvestmentPlan:
    """Greedy strategy that only looks at the current phase: entire budget on
    the node with the largest r_i * w_i, spent in phase 1; no investment when
    that worth is not positive."""
    if not 0 <= budget < math.inf:  # also refuses nan
        raise ValueError("budget must be finite and nonnegative")
    worth = _slot_worth(net, camp, profile)[:net.n]
    i = int(np.argmax(worth))
    x1 = np.zeros(net.n)
    if worth[i] > 0:
        x1[i] = budget
    return InvestmentPlan(camp, x1, np.zeros(net.n))


def myopic_loss(net: Network, kb: float, profile: CentralityProfile | None = None) -> float:
    """Objective loss the bad camp suffers by playing myopically instead of
    farsightedly, with budget kb.

    The myopic camp dumps its budget in phase 1 on the node with the top
    r_i * w_ib, realizing a final-phase worth of s_i * w_ib there, while the
    farsighted play would realize the best slot worth overall; the loss is kb
    times the worth gap (never negative).
    """
    if not 0 <= kb < math.inf:  # also refuses nan
        raise ValueError("kb must be finite and nonnegative")
    worth = _slot_worth(net, BAD, profile)
    best = max(float(worth.max()), 0.0)
    i_hat = int(np.argmax(worth[:net.n]))
    achieved = max(float(worth[net.n + i_hat]), 0.0)
    return kb * (best - achieved)


def _by_worth(worth: np.ndarray, head: int):
    """Indices in the order of ``np.argsort(-worth, kind="stable")``: worth
    descending, ties by lowest index. Only the slots worth at least the
    head-th largest are sorted up front; the rest only if they are read."""
    top = 0
    if head < len(worth):
        kth = len(worth) - head
        head_slots = np.flatnonzero(worth >= np.partition(worth, kth)[kth])
        yield from head_slots[np.argsort(-worth[head_slots], kind="stable")]
        top = len(head_slots)
    if top < len(worth):
        yield from np.argsort(-worth, kind="stable")[top:]


def bounded_greedy(
    net: Network,
    budget: float,
    camp: str,
    cap: float = 1.0,
    profile: CentralityProfile | None = None,
) -> InvestmentPlan:
    """Optimal plan when each (node, phase) slot holds at most ``cap`` units:
    fill slots in decreasing worth while the worth stays positive. With
    ``cap=math.inf`` the whole budget goes on the first slot of largest
    worth if that worth is positive, the farsighted unbounded optimum;
    otherwise the camp stays out."""
    if not 0 <= budget < math.inf:  # also refuses nan
        raise ValueError("budget must be finite and nonnegative")
    if not cap > 0:
        raise ValueError("cap must be positive")
    worth = _slot_worth(net, camp, profile)
    n = net.n
    # top-k by partition: only the ceil(budget / cap) slots the fill takes,
    # plus slack for rounding in the running remainder, are ranked up front
    reach = budget / cap
    head = math.ceil(reach) + 2 if reach < 2 * n else 2 * n
    x = np.zeros(2 * n)
    remaining = float(budget)
    for k in _by_worth(worth, head):
        if remaining <= 0 or worth[k] <= 0:
            break
        amount = min(cap, remaining)
        x[k] = amount
        remaining -= amount
    return InvestmentPlan(camp, x[n:], x[:n])


def multi_election_scores(
    net: Network, d1: float, d2: float, profile: CentralityProfile | None = None
) -> np.ndarray:
    """Per-node decision scores when the first-phase outcome itself carries
    weight d1 and the final outcome weight d2: d1 * r + d2 * s."""
    if not (d1 >= 0 and d2 >= 0):  # also refuses nan
        raise ValueError("weights must be nonnegative")
    prof = _profile(net, profile)
    return d1 * prof.r + d2 * prof.s


def evaluate_two_phase(
    net: Network, x1, x2, y1, y2, profile: CentralityProfile | None = None
) -> float:
    """Total final-phase opinion mass for a two-phase schedule, evaluated in
    closed form (no dynamics run):

        sum_i s_i w0_i v0_i + s . (wg o x1 - wb o y1) + r . (wg o x2 - wb o y2)
    """
    prof = _profile(net, profile)
    x1, x2 = _vec(x1, net.n, "x1"), _vec(x2, net.n, "x2")
    y1, y2 = _vec(y1, net.n, "y1"), _vec(y2, net.n, "y2")
    base = _dot(prof.s, net.w0 * net.v0)
    phase1 = _dot(prof.s, net.wg * x1 - net.wb * y1)
    phase2 = _dot(prof.r, net.wg * x2 - net.wb * y2)
    return base + phase1 + phase2
