"""Network model: weighted directed graph, per-node parameters, constraint checks.

Conventions used throughout the package: ``w[i, j]`` is the weight node ``i``
puts on node ``j``'s current opinion, ``w0[i]`` the weight on its own initial
bias, ``wg[i]`` / ``wb[i]`` the weights on the good and bad camps' investments,
and ``theta[i]`` the total camp weight a node grants when camp influence
depends on its bias. Nodes are dense 0-based integers.

Arcs stay numpy arrays from the edge-list file to the CSR matrix: a
``Topology`` holds ``src``, ``dst`` and ``weight`` arrays, and duplicate and
range checks and symmetrizing are array operations. The loader finds lines
and fields with byte masks over the whole file and parses the well-formed
lines with numpy in one pass; only the other lines go through Python's
``int()`` and ``float()``, one at a time, and only they word errors.
Duplicates are found by one plain sort of packed (src, dst) keys; a stable
lexsort runs only to name the repeat, or when the keys would overflow.
``Network.build`` gets its CSR layout from scipy's COO conversion, one
scatter by row that sums repeats, so a repeat shows as a missing entry.
"""

from __future__ import annotations

import warnings
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


@dataclass(frozen=True, eq=False)
class Topology:
    """Bare directed graph: node count plus weighted arcs, no node parameters.

    Arc k runs from ``src[k]`` to ``dst[k]`` with weight ``weight[k]``; the
    three are read-only arrays of one length (int64, int64, float).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name, dtype in (("src", np.int64), ("dst", np.int64), ("weight", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.src.ndim != 1 or not self.src.shape == self.dst.shape == self.weight.shape:
            raise ValueError(
                "src, dst and weight must be 1-d arrays of one length, got shapes "
                f"{self.src.shape}, {self.dst.shape}, {self.weight.shape}"
            )

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)


# Largest node count n for which the key src * n + dst of ids in [0, n),
# at most n * n - 1, fits in int64.
_KEY_MAX_N = 3_037_000_499


def _first_repeat(src: np.ndarray, dst: np.ndarray, n: int) -> int | None:
    """Index of the first arc, in input order, that repeats an earlier
    (src, dst), or None; ids lie in [0, n).

    A plain sort of the key src * n + dst shows whether any pair repeats.
    Only then, or when the key could overflow, a stable lexsort names the
    repeat: equal pairs keep input order, so every later member of a run
    repeats an earlier arc and the first repeat is the smallest of them."""
    if n <= _KEY_MAX_N:
        key = np.sort(src * n + dst)
        if not (key[1:] == key[:-1]).any():
            return None
    order = np.lexsort((dst, src))
    a, b = src[order], dst[order]
    repeats = order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]
    return int(repeats.min()) if repeats.size else None


# Bytes a bulk weight may hold; a bulk node id holds ASCII digits only, at
# most 18 of them, so that it fits in int64.
_WEIGHT_BYTE = np.zeros(256, dtype=bool)
_WEIGHT_BYTE[list(b"0123456789.eE+-")] = True
_BULK_ID_DIGITS = 18
_INT64_MAX = int(np.iinfo(np.int64).max)


def _parse_line(path, lineno: int, raw: str, default: float) -> tuple[int, int, float] | None:
    """(src, dst, weight) of one edge-list line, or None for a blank or
    comment line; ValueError naming the line if it is malformed."""
    parts = raw.split()
    if not parts or parts[0].startswith("#"):
        return None
    if len(parts) not in (2, 3):
        raise ValueError(f"{path}: line {lineno}: expected 'src dst [weight]', got {raw.strip()!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
        w = float(parts[2]) if len(parts) == 3 else default
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: could not parse {raw.strip()!r}") from None
    if i < 0 or j < 0:
        raise ValueError(f"{path}: line {lineno}: negative node id in {raw.strip()!r}")
    # the node count, one more than the largest id, must fit in int64 too
    if i >= _INT64_MAX or j >= _INT64_MAX:
        raise ValueError(f"{path}: line {lineno}: node id too large in {raw.strip()!r}")
    return i, j, w


def _fields(byte: np.ndarray):
    """[start, stop) of each field, a maximal run of bytes other than space,
    tab and newline; and whether each field holds a byte that no node id may
    hold (anything but an ASCII digit), and one that no weight may hold."""
    # in place, to hold at most three byte-sized temporaries at once
    word = byte != ord(" ")
    word &= byte != ord("\t")
    word &= byte != ord("\n")
    other = np.subtract(byte, np.uint8(ord("0")))
    other = np.greater(other, 9, out=other.view(bool))
    other &= word
    at = np.flatnonzero(other)
    del other
    edge = np.zeros(len(byte) + 1, dtype=np.int8)
    edge[:-1] = word
    edge[1:] -= word
    del word
    start, stop = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    del edge
    field = np.searchsorted(start, at, side="right") - 1
    not_digits = np.zeros(len(start), dtype=bool)
    not_digits[field] = True
    not_weight = np.zeros(len(start), dtype=bool)
    not_weight[field[~_WEIGHT_BYTE[byte[at]]]] = True
    return start, stop, not_digits, not_weight


def _span_mask(size: int, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Boolean mask of the bytes inside the disjoint spans [start, stop)."""
    mask = np.zeros(size + 1, dtype=np.uint8)
    mask[start], mask[stop] = 1, 255  # uint8 wraps 1 + 255 to 0
    return np.cumsum(mask, dtype=np.uint8, out=mask)[:-1].view(bool)


def _parse_numbers(text: np.ndarray, dtype, count: int) -> np.ndarray | None:
    """The ``count`` whitespace-separated numbers in the bytes ``text``, parsed
    in one pass by numpy, which reads floats as ``float()`` does; None if the
    text does not hold ``count`` numbers."""
    try:
        with warnings.catch_warnings():
            # older numpy warns about text it could not parse, newer numpy
            # raises
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=dtype, sep=" ")
    except (DeprecationWarning, ValueError):
        return None
    return values if len(values) == count else None


def _bulk_lines(byte: np.ndarray, line_start: np.ndarray):
    """Field counts of the lines, the bulk lines, which of them have a
    weight, and the byte spans (start, stop) of those weights."""
    start, stop, not_digits, not_weight = _fields(byte)
    first = np.searchsorted(start, line_start)
    n_fields = np.diff(first, append=len(start))
    line = np.flatnonzero((n_fields == 2) | (n_fields == 3))
    ids = first[line]
    bad_id = not_digits | (stop - start > _BULK_ID_DIGITS)
    ok = ~(bad_id[ids] | bad_id[ids + 1])
    weighted = n_fields[line] == 3
    ok[weighted] &= ~not_weight[ids[weighted] + 2]
    line, ids, weighted = line[ok], ids[ok], weighted[ok]
    field = ids[weighted] + 2
    return n_fields, line, weighted, (start[field], stop[field])


def _read_arcs(path, data: bytes, default: float):
    """src, dst, weight and line-number arrays of the arcs of an edge-list
    text, in line order.

    Bulk lines, two or three fields of which the first two are node ids of
    at most 18 ASCII digits and the third a weight of ``0-9 . e E + -``, are
    parsed all at once by numpy. The other, odd lines are parsed one at a
    time by :func:`_parse_line`, which alone words errors. A bulk line cannot
    fail, except for a weight such as ``1e`` that passes the byte filter but
    not ``float()``; then every line is parsed as odd, so the first bad line
    in file order is still the one reported.
    """
    byte = np.frombuffer(data, dtype=np.uint8)
    line_end = np.flatnonzero(byte == ord("\n"))
    if len(byte) and byte[-1] != ord("\n"):
        line_end = np.append(line_end, len(byte))
    line_start = np.zeros_like(line_end)
    line_start[1:] = line_end[:-1] + 1
    n_fields, line, weighted, weight_span = _bulk_lines(byte, line_start)
    blank = np.uint8(ord(" "))
    weight = np.full(len(line), default)
    inside = None
    if weighted.any():
        inside = _span_mask(len(byte), *weight_span)
        values = _parse_numbers(np.where(inside, byte, blank), float, len(weight_span[0]))
        if values is None:
            line, weight = line[:0], weight[:0]
        else:
            weight[weighted] = values
    odd = n_fields > 0
    odd[line] = False
    odd_start, odd_end = line_start[odd].tolist(), line_end[odd].tolist()
    odd_src, odd_dst, odd_weight, odd_line = [], [], [], []
    for k, lo, hi in zip(np.flatnonzero(odd).tolist(), odd_start, odd_end):
        row = _parse_line(path, k + 1, data[lo:hi + 1].decode("utf-8"), default)
        if row is not None:
            odd_src.append(row[0])
            odd_dst.append(row[1])
            odd_weight.append(row[2])
            odd_line.append(k)
    src = dst = np.zeros(0, dtype=np.int64)
    if len(line):
        # the bulk ids are what is left of the file once the weights and the
        # odd lines are blanked
        text = byte.copy() if inside is None else np.where(inside, blank, byte)
        for lo, hi in zip(odd_start, odd_end):
            text[lo:hi] = blank
        src, dst = _parse_numbers(text, np.int64, 2 * len(line)).reshape(-1, 2).T
    del odd_start, odd_end  # before the merge copies the arrays
    lineno = line + 1
    if odd_line:
        # put the odd lines' arcs among the bulk ones, in line order
        at = np.searchsorted(line, odd_line)
        src, dst = np.insert(src, at, odd_src), np.insert(dst, at, odd_dst)
        weight = np.insert(weight, at, odd_weight)
        lineno = np.insert(lineno, at, np.array(odd_line) + 1)
    return src, dst, weight, lineno


def load_edge_list(path, symmetrize: bool = False, default_weight: float = 0.0) -> Topology:
    """Read a whitespace-delimited "src dst [weight]" file into a Topology.

    Node ids are 0-based integers and the node count is one plus the largest
    id seen. Lines whose first non-blank character is '#' are comments. With
    ``symmetrize`` every listed edge is duplicated in both directions (a
    self-loop is added once). A missing weight column falls back to
    ``default_weight``; duplicate (src, dst) pairs are an error rather than
    being summed.

    The file is decoded as UTF-8 up front, so invalid UTF-8 is reported
    before any line error. Well-formed lines are parsed in bulk and the
    others one at a time; the first bad line in file order is reported. Every
    line is checked before duplicates are looked for, so a malformed line is
    reported even when a duplicate precedes it.
    """
    default = float(default_weight)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = text.encode("utf-8")
    del text
    a, b, weight, line = _read_arcs(path, data, default)
    if not len(a):
        raise ValueError(f"{path}: no nodes (empty edge list)")
    n = int(max(a.max(), b.max())) + 1
    if symmetrize:
        # each line's arc, then its reverse unless it is a self-loop
        keep = np.stack([np.ones(len(a), dtype=bool), a != b], axis=1).ravel()
        a, b = np.stack([a, b], axis=1).ravel()[keep], np.stack([b, a], axis=1).ravel()[keep]
        weight = np.repeat(weight, 2)[keep]
        line = np.repeat(line, 2)[keep]
    k = _first_repeat(a, b, n)
    if k is not None:
        raise ValueError(f"{path}: line {line[k]}: duplicate edge ({a[k]}, {b[k]})")
    return Topology(n, a, b, weight)


def save_edge_list(topology: Topology, path) -> None:
    """Write a Topology back to the edge-list text format."""
    arcs = zip(topology.src.tolist(), topology.dst.tolist(), topology.weight.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in arcs:
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
        edges: Topology | Iterable[tuple[int, int, float]] = (),
        *,
        w0=0.0,
        v0=0.0,
        wg=0.0,
        wb=0.0,
        theta=0.0,
    ) -> "Network":
        """Network on n nodes from its arcs, a Topology or (src, dst, weight)
        triples, plus per-node parameters (scalars broadcast to every node).
        The first arc, in input order, that is out of range or repeats an
        earlier (src, dst) raises ValueError."""
        if n <= 0:
            raise ValueError("need at least one node")
        if isinstance(edges, Topology):
            src, dst, weight = edges.src, edges.dst, edges.weight
        else:
            arcs = np.asarray(list(edges), dtype=float)
            if arcs.size == 0:
                arcs = arcs.reshape(0, 3)
            if arcs.ndim != 2 or arcs.shape[1] != 3:
                raise ValueError(f"edges must be (src, dst, weight) triples, got shape {arcs.shape}")
            src, dst, weight = arcs[:, 0].astype(np.int64), arcs[:, 1].astype(np.int64), arcs[:, 2]
        bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if not bad.size:
            # scatters the arcs by row, sorts each row's columns and sums
            # repeats, so a repeat shows as a missing entry
            mat = sparse.csr_array((weight, (src, dst)), shape=(n, n))
        if bad.size or mat.nnz < len(src):
            # errors name the first bad arc in input order: the first arc out
            # of range, unless an arc before it repeats an earlier one
            stop = int(bad[0]) if bad.size else len(src)
            k = _first_repeat(src[:stop], dst[:stop], n)
            if k is not None:
                raise ValueError(f"duplicate edge ({src[k]}, {dst[k]})")
            raise ValueError(f"edge ({src[stop]}, {dst[stop]}) out of range for n={n}")
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
        return Topology(self.n, coo.row, coo.col, coo.data)


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
