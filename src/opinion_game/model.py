"""Network model: weighted directed graph, per-node parameters, constraint checks.

Conventions used throughout the package: ``w[i, j]`` is the weight node ``i``
puts on node ``j``'s current opinion, ``w0[i]`` the weight on its own initial
bias, ``wg[i]`` / ``wb[i]`` the weights on the good and bad camps' investments,
and ``theta[i]`` the total camp weight a node grants when camp influence
depends on its bias. Nodes are dense 0-based integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy import sparse

GOOD = "good"
BAD = "bad"

# Slack for the weight bound checks, so that generated weights which meet a
# bound exactly up to float rounding are not flagged.
TOLERANCE = 1e-12


def _as_vector(value, n: int, name: str) -> np.ndarray:
    """Coerce a scalar or sequence to a read-only float vector of length n."""
    vec = np.asarray(value, dtype=float)
    if vec.ndim == 0:
        vec = np.full(n, float(vec))
    if vec.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector, got shape {vec.shape}")
    out = np.array(vec, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Topology:
    """Bare directed graph: node count plus weighted arcs, no node parameters."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, _, _ in self.edges:
            deg[i] += 1
        return deg


def load_edge_list(path, symmetrize: bool = False, default_weight: float = 0.0) -> Topology:
    """Read a whitespace-delimited "src dst [weight]" file into a Topology.

    Node ids are 0-based integers and the node count is one plus the largest
    id seen. Lines whose first non-blank character is '#' are comments. With
    ``symmetrize`` every listed edge is duplicated in both directions (a
    self-loop is added once). A missing weight column falls back to
    ``default_weight``; duplicate (src, dst) pairs are an error rather than
    being summed.
    """
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}: line {lineno}: expected 'src dst [weight]', got {line!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else float(default_weight)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {line!r}"
                ) from None
            if i < 0 or j < 0:
                raise ValueError(f"{path}: line {lineno}: negative node id in {line!r}")
            arcs = [(i, j)] if (not symmetrize or i == j) else [(i, j), (j, i)]
            for a, b in arcs:
                if (a, b) in seen:
                    raise ValueError(f"{path}: line {lineno}: duplicate edge ({a}, {b})")
                seen.add((a, b))
                edges.append((a, b, w))
            max_id = max(max_id, i, j)
    if max_id < 0:
        raise ValueError(f"{path}: no nodes (empty edge list)")
    return Topology(n=max_id + 1, edges=tuple(edges))


def save_edge_list(topology: Topology, path) -> None:
    """Write a Topology back to the edge-list text format."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in topology.edges:
            fh.write(f"{i} {j} {w!r}\n")


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable opinion network; construct with :meth:`Network.build`.

    ``weights`` is a CSR matrix (row i lists the opinion weights node i puts
    on its out-neighbours). All parameter vectors are read-only, so instances
    are safe to share across threads; the derived matrices below are cached
    read-only on first use (a race only computes one twice).
    """

    n: int
    weights: sparse.csr_array
    w0: np.ndarray
    v0: np.ndarray
    wg: np.ndarray
    wb: np.ndarray
    theta: np.ndarray

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, float]] = (),
        *,
        w0=0.0,
        v0=0.0,
        wg=0.0,
        wb=0.0,
        theta=0.0,
    ) -> "Network":
        if n <= 0:
            raise ValueError("need at least one node")
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        seen: set[tuple[int, int]] = set()
        for i, j, w in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            rows.append(i)
            cols.append(j)
            vals.append(float(w))
        mat = sparse.csr_array(
            (np.asarray(vals, dtype=float), (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))),
            shape=(n, n),
        )
        mat.data.setflags(write=False)
        return cls(
            n=n,
            weights=mat,
            w0=_as_vector(w0, n, "w0"),
            v0=_as_vector(v0, n, "v0"),
            wg=_as_vector(wg, n, "wg"),
            wb=_as_vector(wb, n, "wb"),
            theta=_as_vector(theta, n, "theta"),
        )

    @classmethod
    def from_topology(cls, topology: Topology, **params) -> "Network":
        return cls.build(topology.n, topology.edges, **params)

    @cached_property
    def weights_t(self) -> sparse.csr_array:
        """The transposed weights in CSR form, for solves with w^T."""
        mat = self.weights.T.tocsr()
        mat.data.setflags(write=False)
        return mat

    @cached_property
    def resolvent(self) -> np.ndarray:
        """Dense (I - w)^{-1}; raises numpy's LinAlgError when I - w is singular."""
        inv = np.linalg.inv(np.eye(self.n) - self.weights.toarray())
        inv.setflags(write=False)
        return inv

    @cached_property
    def row_abs_sums(self) -> np.ndarray:
        sums = np.abs(self.weights).sum(axis=1)
        out = np.asarray(sums, dtype=float).reshape(self.n)
        out.setflags(write=False)
        return out

    def topology(self) -> Topology:
        coo = self.weights.tocoo()
        edges = tuple(
            (int(i), int(j), float(w)) for i, j, w in zip(coo.row, coo.col, coo.data)
        )
        return Topology(n=self.n, edges=edges)


@dataclass(frozen=True)
class Violation:
    """One violated constraint; ``node`` is None for network-wide problems."""

    node: int | None
    message: str

    def __str__(self) -> str:
        where = "network" if self.node is None else f"node {self.node}"
        return f"{where}: {self.message}"


def validate(net: Network, mode: str = "fixed") -> list[Violation]:
    """Check every weight constraint; empty result means the network is admissible.

    ``mode`` is "fixed" or "dependency". Both modes require, per node, the
    full weight mass |w0| + sum_j |w_ij| + |wg| + |wb| to stay at most 1 and
    the network row sum sum_j |w_ij| to stay strictly below 1 (this is what
    makes every per-phase solve convergent). Dependency mode additionally
    requires nonnegative edge weights, bias weights and camp totals, and
    initial opinions inside [-1, 1]. Violations are returned as data, nothing
    raises.
    """
    if mode not in ("fixed", "dependency"):
        raise ValueError(f"mode must be 'fixed' or 'dependency', got {mode!r}")
    out: list[Violation] = []
    for name, vec in (("w0", net.w0), ("v0", net.v0), ("wg", net.wg),
                      ("wb", net.wb), ("theta", net.theta)):
        if not np.all(np.isfinite(vec)):
            out.append(Violation(None, f"non-finite entries in {name}"))
    if not np.all(np.isfinite(net.weights.data)):
        out.append(Violation(None, "non-finite edge weights"))
        return out

    row_abs = net.row_abs_sums
    total = np.abs(net.w0) + row_abs + np.abs(net.wg) + np.abs(net.wb)
    for i in np.nonzero(total > 1.0 + TOLERANCE)[0]:
        out.append(Violation(int(i), f"total weight mass {total[i]:.6g} exceeds 1"))
    for i in np.nonzero(row_abs >= 1.0 - TOLERANCE)[0]:
        out.append(Violation(int(i), f"row sum of |w| is {row_abs[i]:.6g}, not strictly below 1"))

    if mode == "dependency":
        coo = net.weights.tocoo()
        for k in np.nonzero(coo.data < -TOLERANCE)[0]:
            i, j, w = coo.row[k], coo.col[k], coo.data[k]
            out.append(Violation(int(i), f"negative weight {w:.6g} on edge ({i}, {j}) in dependency mode"))
        for i in np.nonzero(net.w0 < -TOLERANCE)[0]:
            out.append(Violation(int(i), f"negative bias weight {net.w0[i]:.6g} in dependency mode"))
        for i in np.nonzero(net.theta < -TOLERANCE)[0]:
            out.append(Violation(int(i), f"negative camp total {net.theta[i]:.6g} in dependency mode"))
        for i in np.nonzero(np.abs(net.v0) > 1.0 + TOLERANCE)[0]:
            out.append(Violation(int(i), f"initial opinion {net.v0[i]:.6g} outside [-1, 1] in dependency mode"))
    return out


@dataclass(frozen=True)
class Budgets:
    """Total budgets of the two camps."""

    kg: float
    kb: float

    def __post_init__(self):
        for name, val in (("kg", self.kg), ("kb", self.kb)):
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {val}")


@dataclass(frozen=True, eq=False)
class InvestmentPlan:
    """Per-phase investments of one camp: x1 in the first phase, x2 in the second."""

    camp: str
    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        if self.camp not in (GOOD, BAD):
            raise ValueError(f"camp must be {GOOD!r} or {BAD!r}, got {self.camp!r}")
        n = len(np.asarray(self.x1))
        for name in ("x1", "x2"):
            vec = _as_vector(getattr(self, name), n, name)
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} has non-finite entries")
            if np.any(vec < 0):
                raise ValueError(f"{name} has negative entries")
            object.__setattr__(self, name, vec)

    def total(self) -> float:
        return float(self.x1.sum() + self.x2.sum())

    def violations(self, budget: float, cap: float | None = None) -> list[str]:
        """Budget and per-node-cap checks, reported as messages."""
        out = []
        if self.total() > budget + TOLERANCE:
            out.append(f"total investment {self.total():.6g} exceeds budget {budget:.6g}")
        if cap is not None:
            for name, vec in (("x1", self.x1), ("x2", self.x2)):
                over = np.nonzero(vec > cap + TOLERANCE)[0]
                for i in over:
                    out.append(f"{name}[{i}] = {vec[i]:.6g} exceeds the per-node cap {cap:.6g}")
        return out
