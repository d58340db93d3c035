"""Seeded inputs of the benchmark, made by its own generators.

Nothing here calls the library, so a change to ``harness.ba_graph`` or to the
edge-list reader leaves the inputs, and their hashes, unchanged.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

#: the ROADMAP item-2 payoff on which the Bland simplex misses the value 5 by 3.5e-9
PINNED_PAYOFF = (
    (0.0, 5.0, 5.0, 5.0, 5.0),
    (5.0, 0.0, 5.0, 5.0, 5.0),
    (5.0, 1e-6, 5.0, 5.0, 5.0),
    (5.0, 5.0, 5.0, 5.0, 5.0),
)


def pa_arcs(n: int, seed: int, attach: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Preferential-attachment graph with arcs in both directions.

    Node v >= attach links to ``attach`` distinct earlier nodes, drawn in
    proportion to degree; the first new node links to nodes 0..attach-1.
    Returns (src, dst) arrays of 2 * attach * (n - attach) arcs.
    """
    rng = random.Random(seed)
    ends: list[int] = []  # every endpoint of every edge so far, so a draw is degree-weighted
    src: list[int] = []
    dst: list[int] = []
    targets = list(range(attach))
    for v in range(attach, n):
        for t in targets:
            src.append(v)
            dst.append(t)
        ends.extend(targets)
        ends.extend([v] * attach)
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(ends[int(rng.random() * len(ends))])
        targets = sorted(chosen)
    s = np.asarray(src, dtype=np.int64)
    d = np.asarray(dst, dtype=np.int64)
    return np.concatenate([s, d]), np.concatenate([d, s])


def write_arcs(path, src: np.ndarray, dst: np.ndarray) -> str:
    """Write 'src dst' lines and return the sha256 of the file."""
    text = "\n".join(f"{i} {j}" for i, j in zip(src.tolist(), dst.tolist())) + "\n"
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def payoff_batch(seed: int) -> list[np.ndarray]:
    """The matrix-game batch: two Gaussian games, two small-integer games with
    many ties (degenerate pivots), and the pinned 4x5 payoff, in that order."""
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(200, 200)),
        rng.integers(0, 6, size=(200, 200)).astype(float),
        rng.normal(size=(150, 250)),
        rng.integers(-3, 4, size=(250, 150)).astype(float),
        np.array(PINNED_PAYOFF),
    ]


def batch_sha256(batch: list[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for mat in batch:
        digest.update(np.asarray(mat.shape, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(mat, dtype="<f8").tobytes())
    return digest.hexdigest()
