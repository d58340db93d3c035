"""Network model: weighted directed graph, per-node parameters, constraint checks.

Conventions used throughout the package: ``w[i, j]`` is the weight node ``i``
puts on node ``j``'s current opinion, ``w0[i]`` the weight on its own initial
bias, ``wg[i]`` / ``wb[i]`` the weights on the good and bad camps' investments,
and ``theta[i]`` the total camp weight a node grants when camp influence
depends on its bias. Nodes are dense 0-based integers.

Arcs stay numpy arrays from the edge-list file to the CSR matrix: a
``Topology`` holds ``src``, ``dst`` and ``weight`` arrays with ids in [0, n),
and range and duplicate checks and symmetrizing are array operations.
The loader reads a file once, as UTF-8 text with universal newlines. numpy's
``loadtxt`` parses it in one pass (a regular file by its path, which numpy
reads in chunks); a file numpy cannot read, or may read otherwise than
Python's ``int()`` and ``float()``, goes from the same text through those
one line at a time, which alone word errors.
Duplicates are found by one plain sort of packed (src, dst) keys; a stable
lexsort runs only to name the repeat, or when the keys would overflow.
Topologies the package has checked already come from ``Topology._trusted``.
``Network.build`` gets its CSR layout from scipy's COO conversion, one
scatter by row that sums repeats, so a repeat shows as a missing entry. It
hands scipy int32 ids wherever they fit, so the matrix keeps 32-bit indices
and every product reads 12 bytes per entry, not 16.
"""

from __future__ import annotations

import io
import os
import stat
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


_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Topology:
    """Bare directed graph: node count plus weighted arcs, no node parameters.

    Arc k runs from ``src[k]`` to ``dst[k]`` with weight ``weight[k]``; the
    three are read-only arrays of one length (int64, int64, float). Ids must
    come as integers in [0, n); any other id, even 1.0, raises ValueError.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name, dtype in (("src", np.int64), ("dst", np.int64), ("weight", float)):
            arr = np.asarray(getattr(self, name))
            if dtype is np.int64 and arr.size and (
                    arr.dtype.kind not in "iu" or arr.dtype.kind == "u" and arr.max() > _INT64_MAX):
                raise ValueError(f"{name} must hold integer node ids that fit int64")
            arr = np.array(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.src.ndim != 1 or not self.src.shape == self.dst.shape == self.weight.shape:
            raise ValueError(
                "src, dst and weight must be 1-d arrays of one length, got shapes "
                f"{self.src.shape}, {self.dst.shape}, {self.weight.shape}"
            )
        bad = np.flatnonzero((self.src < 0) | (self.src >= self.n) | (self.dst < 0) | (self.dst >= self.n))
        if bad.size:
            raise ValueError(f"edge ({self.src[bad[0]]}, {self.dst[bad[0]]}) out of range for n={self.n}")

    @classmethod
    def _trusted(cls, n: int, src, dst, weight) -> "Topology":
        """A Topology of arcs the package has checked already, without rerunning
        ``__post_init__`` (int64 copies and a range mask, about 6 ms on 800,000
        arcs); arrays of the right dtype and layout are kept, not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        for name, arr, dtype in (("src", src, np.int64), ("dst", dst, np.int64), ("weight", weight, float)):
            arr = np.ascontiguousarray(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out

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


def _parse_line(path, lineno: int, raw: str) -> tuple[int, int, float] | None:
    """(src, dst, weight) of one edge-list line, or None for a blank or
    comment line; ValueError naming the line if it is malformed."""
    parts = raw.split()
    if not parts or parts[0].startswith("#"):
        return None
    if len(parts) not in (2, 3):
        raise ValueError(f"{path}: line {lineno}: expected 'src dst [weight]', got {raw.strip()!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
        w = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: could not parse {raw.strip()!r}") from None
    if i < 0 or j < 0:
        raise ValueError(f"{path}: line {lineno}: negative node id in {raw.strip()!r}")
    # the node count, one more than the largest id, must fit in int64 too
    if i >= _INT64_MAX or j >= _INT64_MAX:
        raise ValueError(f"{path}: line {lineno}: node id too large in {raw.strip()!r}")
    return i, j, w


def _read_lines(path, text: str):
    """src, dst and weight arrays and the line numbers of the arcs of an
    edge-list file's text, parsed one line at a time by :func:`_parse_line`,
    which raises on the first malformed line; ValueError if there is no arc."""
    src, dst, weight, line = [], [], [], []
    for k, raw in enumerate(text.split("\n"), start=1):
        arc = _parse_line(path, k, raw)
        if arc is not None:
            src.append(arc[0])
            dst.append(arc[1])
            weight.append(arc[2])
            line.append(k)
    if not line:
        raise ValueError(f"{path}: no nodes (empty edge list)")
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(weight), line


def _inline_hash(text: str) -> bool:
    """Whether a '#' follows a non-blank character on its line, a comment to
    numpy but not to the format, which has only whole comment lines."""
    at = text.find("#")
    while at >= 0:
        # ASCII blanks only: the loop's str.split() judges any other
        head = text[text.rfind("\n", 0, at) + 1:at].lstrip(" \t\v\f")
        if head and not head.startswith("#"):
            return True
        at = text.find("#", at + 1)
    return False


#: suffixes by which numpy's loadtxt, given a path, decompresses the file
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_bulk(path, text: str, regular: bool):
    """(src, dst, weight, None) arrays of the arcs of an edge-list file, read
    in one pass by numpy's loadtxt, which numbers no lines; None where numpy
    cannot read the file or may read it otherwise than :func:`_parse_line`.
    ``text`` is the file's text and ``regular`` whether it is a regular file.

    numpy splits fields where ``str.split`` does, and reads a subset of what
    ``int()`` and ``float()`` read to the same values. Left to check are a
    '#' after a non-blank on its line, ids the loop refuses, and warnings
    (on a file without arcs, or from numpy 1.x on an id such as ``3.0``).
    numpy reads a path in chunks but a handle line by line, about twice as
    slowly, so it gets the absolute path of a regular file, which has no URL
    scheme for numpy to download, and UTF-8, not the locale's encoding. The
    caller has read the file, so a missing one has raised FileNotFoundError
    rather than numpy reading ``<path>.gz`` beside it. A name numpy would
    decompress by its suffix, and a file that is not regular, go in as text.
    """
    ids = [("src", np.int64), ("dst", np.int64)]
    name = os.path.abspath(os.fsdecode(path))
    by_path = regular and not name.endswith(_COMPRESSED)
    for dtype in (ids, ids + [("weight", float)]):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if by_path:
                    arcs = np.loadtxt(name, dtype=dtype, ndmin=1, encoding="utf-8")
                else:
                    arcs = np.loadtxt(io.StringIO(text), dtype=dtype, ndmin=1)
            break
        except (ValueError, Warning):
            pass
    else:
        return None
    src, dst = arcs["src"], arcs["dst"]
    if (not len(arcs) or min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= _INT64_MAX or _inline_hash(text)):
        return None
    weight = arcs["weight"] if len(dtype) == 3 else np.zeros(len(arcs))
    return src, dst, weight, None


def load_edge_list(path, symmetrize: bool = False) -> Topology:
    """Read a whitespace-delimited "src dst [weight]" file into a Topology.

    Node ids are 0-based integers and the node count is one plus the largest
    id seen. Lines whose first non-blank character is '#' are comments. With
    ``symmetrize`` every listed edge is duplicated in both directions (a
    self-loop is added once). A missing weight column reads as 0.0;
    duplicate (src, dst) pairs are an error rather than being summed.

    The file is opened once, so a pipe, a FIFO or ``/dev/stdin`` reads as a
    file does; invalid UTF-8 raises UnicodeDecodeError before any other
    error, and "\\r\\n" or a lone "\\r" ends a line. numpy reads a file whose
    arc lines all have two fields, or all three, in one pass. Any other
    file, or one whose arcs fail a check, is parsed from the same text one
    line at a time, and only that loop words errors: the first bad line in
    file order, even one after a duplicate, and then the first arc that
    repeats an earlier one.
    """
    with open(path, encoding="utf-8") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        text = fh.read()  # decoded whole, so an error gives its byte's file position
    a, b, weight, line = _read_bulk(path, text, regular) or _read_lines(path, text)
    n = int(max(a.max(), b.max())) + 1
    if symmetrize:
        # each line's arc, then its reverse unless it is a self-loop
        keep = np.stack([np.ones(len(a), dtype=bool), a != b], axis=1).ravel()
        a, b = np.stack([a, b], axis=1).ravel()[keep], np.stack([b, a], axis=1).ravel()[keep]
        weight = np.repeat(weight, 2)[keep]
    k = _first_repeat(a, b, n)
    if k is not None:
        # numpy numbers no lines; the loop reads the same arcs and does
        line = line or _read_lines(path, text)[3]
        arc = np.flatnonzero(keep)[k] // 2 if symmetrize else k
        raise ValueError(f"{path}: line {line[arc]}: duplicate edge ({a[k]}, {b[k]})")
    # ids are >= 0, and n is one more than the largest
    return Topology._trusted(n, a, b, weight)


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
    on its out-neighbours), with int32 indices wherever n and the arc count
    fit them. All parameter vectors are read-only, so instances are safe to
    share across threads. ``row_abs_sums`` and the network's linear solver
    are cached on first use (a race only computes one twice).
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
        """Network on n nodes from its arcs, a Topology on n nodes or
        (src, dst, weight) triples, which go through Topology and its checks,
        plus per-node parameters (scalars broadcast to every node). A Topology
        on another n, or the first arc repeating an earlier (src, dst), raises ValueError."""
        if n <= 0:
            raise ValueError("need at least one node")
        if not isinstance(edges, Topology):
            arcs = list(edges)
            for arc in arcs:
                try:
                    triple = np.shape(arc) == (3,)
                except ValueError:  # numpy refuses a ragged arc such as (0, (1, 2), 0.5)
                    triple = False
                if not triple:
                    raise ValueError(f"edges must be (src, dst, weight) triples, got {arc!r}")
            edges = Topology(n, *zip(*arcs)) if arcs else Topology(n, (), (), ())
        if edges.n != n:
            raise ValueError(f"topology has n={edges.n}, not n={n}")
        # scipy keeps the dtype of int64 ids; int32 ones give 32-bit indices
        ids = np.int32 if max(n, len(edges.src)) <= _INT32_MAX else np.int64
        mat = sparse.csr_array((edges.weight, (edges.src.astype(ids), edges.dst.astype(ids))),
                               shape=(n, n))
        if mat.nnz < len(edges.src):
            k = _first_repeat(edges.src, edges.dst, n)
            raise ValueError(f"duplicate edge ({edges.src[k]}, {edges.dst[k]})")
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
    def _solver(self):
        """The network's one linear solver, ``dynamics._Solver``, made on the
        first solve; it refuses rho >= 1 there, and then nothing is cached."""
        from .dynamics import _Solver  # dynamics imports this module

        return _Solver(self)

    @cached_property
    def row_abs_sums(self) -> np.ndarray:
        """sum_j |w_ij| per row: the reduction scipy's ``sum(axis=1)`` runs,
        over the non-empty rows, without copying w to take |w|."""
        w = self.weights
        rows = np.flatnonzero(np.diff(w.indptr))
        out = np.zeros(self.n)
        out[rows] = np.add.reduceat(np.abs(w.data), w.indptr[rows])
        out.setflags(write=False)
        return out

    def topology(self) -> Topology:
        coo = self.weights.tocoo(copy=True)  # else it shares w's arrays, which _trusted freezes
        return Topology._trusted(self.n, coo.row, coo.col, coo.data)


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
