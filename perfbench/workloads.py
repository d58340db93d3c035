"""The workloads: their inputs, one operation each, and its check.

``BENCHMARK.json`` lists the ones the benchmark runs, ``fixed-200k`` and
``two-camp-12``; ``dep1-2000``, ``dep1-400`` and ``matrix-game`` are defined
here and run by hand (see NOTES.md for why they are left out). Four workloads
run one CLI command through ``opinion_game.cli.main(argv)`` in-process;
``matrix-game`` runs one pass of ``solve_zero_sum`` over a payoff batch.
NOTES.md says why each exists and which layer it stresses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import inputs

#: a certificate miss of ``solve_zero_sum`` up to this size is the known
#: Bland-simplex precision defect of ROADMAP item 2 (3.5e-9 on the pinned
#: payoff); a larger miss is a wrong answer
KNOWN_MISS = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int  # graph size; 0 for the matrix-game batch
    argv: tuple[str, ...] = ()
    #: fresh processes per run that each time a set-up, the cold operation
    #: and warm operations; cold_s is the median over them
    procs: int = 2
    #: set-up samples per run, from procs to 2 * procs: one from each timing
    #: process, the rest from processes that only set up; setup_s is their
    #: median
    setups: int = 4
    params: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        "fixed-200k", 200_000,
        ("strategy-fixed", "--bounded", "--cap", "1", "--kg", "100", "--kb", "50",
         "--v0", "0.2", "--w0-grid", "0.3"),
        procs=2, setups=4, params=dict(w0=0.3, v0=0.2, kg=100.0, kb=50.0, cap=1.0),
    ),
    Workload(
        "dep1-2000", 2000,
        ("sweep", "--mode", "dependency1", "--kg", "100", "--v0", "0.2",
         "--w0-grid", "0.1,0.5,0.9"),
        params=dict(kg=100.0),
    ),
    Workload(
        "dep1-400", 400,
        ("sweep", "--mode", "dependency1", "--kg", "100", "--v0", "0.2"),
        procs=6, setups=6, params=dict(kg=100.0),
    ),
    Workload(
        "two-camp-12", 12,
        ("sweep", "--mode", "dependency2", "--kg", "100", "--kb", "50", "--v0", "0.2",
         "--w0-grid", "0.3,0.7"),
        procs=5, setups=10, params=dict(kg=100.0, kb=50.0),
    ),
    Workload("matrix-game", 0),
)}


def write_inputs(work: Workload, seed: int, workdir: str) -> dict:
    """Generate and write the workload's inputs; returns their record."""
    if work.nodes == 0:
        batch = inputs.payoff_batch(seed)
        path = os.path.join(workdir, "games.npz")
        np.savez(path, *batch)
        return {"games": [list(m.shape) for m in batch], "sha256": inputs.batch_sha256(batch)}
    src, dst = inputs.pa_arcs(work.nodes, seed)
    digest = inputs.write_arcs(os.path.join(workdir, "graph.txt"), src, dst)
    return {"nodes": work.nodes, "arcs": int(len(src)), "sha256": digest}


class Runner:
    """Runs operations of one workload in this process and checks them."""

    def __init__(self, work: Workload, seed: int, workdir: str):
        self.work, self.seed = work, seed
        self.graph = os.path.join(workdir, "graph.txt")
        self._arcs = None  # the checks' own copy of the graph, made after the timed work
        if not work.nodes:
            with np.load(os.path.join(workdir, "games.npz")) as data:
                self.batch = [data[f"arr_{k}"] for k in range(len(data.files))]
            self._highs = [None] * len(self.batch)
        self._verified: bytes | None = None

    @property
    def per_op(self) -> int:
        """Checked operations in one timed operation."""
        return len(self.batch) if self.work.nodes == 0 else 1

    def run(self, out: str):
        """One timed operation; returns its result for ``check``."""
        import opinion_game
        from opinion_game import cli

        if self.work.nodes == 0:
            results = []
            for payoff in self.batch:
                try:
                    results.append(opinion_game.solve_zero_sum(payoff))
                except Exception as exc:  # a raise is a failed game, not a crash
                    results.append(exc)
            return results
        try:
            code = cli.main([*self.work.argv, "--graph", self.graph, "--out", out])
        except Exception as exc:
            return exc
        if code != 0:
            return code
        with open(out, "rb") as fh:
            text = fh.read()
        os.remove(out)
        return text

    def check(self, result) -> list[tuple[str, bool]]:
        """(message, known) per failed command, or per failed game. Known
        failures are certificate misses of ``solve_zero_sum`` on the
        matrix-game batch no larger than KNOWN_MISS: the Bland-simplex
        precision defect of ROADMAP item 2, which the pinned payoff shows on
        every seed. Any other failure is not known."""
        import oracles  # after the timed work: it loads scipy.optimize and scipy.linalg

        if self.work.nodes == 0:
            return self._check_games(result)
        if not isinstance(result, bytes):
            return [(f"command failed: {result!r}", False)]
        # outputs are deterministic: once one output passes its oracle, a
        # byte-identical one passes too
        if result == self._verified:
            return []
        p, n = self.work.params, self.work.nodes
        if self._arcs is None:
            self._arcs = inputs.pa_arcs(n, self.seed)
        src, dst = self._arcs
        if self.work.name == "fixed-200k":
            fail = oracles.check_fixed(result, src, dst, n, **p)
        elif self.work.name.startswith("dep1-"):
            fail = oracles.check_single_camp(result, src, dst, n, seed=self.seed, **p)
        else:
            fail = oracles.check_two_camp(result, src, dst, n, **p)
        if fail:
            return [("; ".join(fail), False)]
        self._verified = result
        return []

    def _check_games(self, results) -> list[tuple[str, bool]]:
        import oracles

        fail = []
        for k, (payoff, res) in enumerate(zip(self.batch, results)):
            if isinstance(res, Exception):
                fail.append((f"game {k}: raised {res!r}", False))
                continue
            if self._highs[k] is None:
                self._highs[k] = oracles.highs_bounds(payoff)
            malformed, certificate = oracles.check_game(payoff, *res, self._highs[k])
            if malformed or certificate:
                known = not malformed and oracles.certificate_miss(
                    payoff, *res, self._highs[k]) <= KNOWN_MISS
                fail.append((f"game {k}: " + "; ".join(malformed + certificate), known))
        return fail
