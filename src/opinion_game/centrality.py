"""Influence measures: one-phase and look-ahead Katz vectors, the resolvent.

``r`` solves (I - w^T) r = 1; r[i] is the total opinion mass a unit of direct
influence on node i produces within a single phase. ``s`` reweights that by
how much of the produced opinion survives into a following phase through the
bias weights, s = (I - w^T)^{-1} (r o w0), and higher orders extend the
look-ahead one phase at a time. Every function here reads the network's one
solver (``Network._solver``), which alone chooses between its dense inverse
and iterative solves: the chain r, s, ... comes from ``_Solver.katz`` and
the resolvent (I - w)^{-1} from ``_Solver.inverse``. Like every solve, each
reader refuses a network whose rows of |w| reach 1 with ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network


@dataclass(frozen=True)
class CentralityProfile:
    """The influence vectors of a network: r, s, and the optional higher
    orders 3, 4, ... in ``higher``."""

    r: np.ndarray
    s: np.ndarray
    higher: tuple[np.ndarray, ...] = ()


def compute_profile(net: Network, orders: int = 2) -> CentralityProfile:
    """r, s and any further look-ahead orders in one pass: r solves
    (I - w^T) r = 1, and each further order solves (I - w^T) r_q = r_{q-1} o w0.
    The solver forms the chain (``dynamics._Solver.katz``) and may start r and
    s from one Chebyshev series: 37 sparse products instead of 63 sweeps on a
    200k-node preferential-attachment graph with rows of 0.56."""
    if orders < 2:
        raise ValueError("orders must be at least 2")
    r, s, *higher = net._solver.katz(orders)
    return CentralityProfile(r=r, s=s, higher=tuple(higher))


def delta_matrix(net: Network) -> np.ndarray:
    """Dense (I - w)^{-1}, read-only, from the network's solver; refused with
    ValueError where its solves are iterative, so it is only ever formed for
    networks of at most ``DENSE_LIMIT_N`` nodes."""
    return net._solver.inverse
