"""Regenerate the CLI reference outputs that ``tests/test_golden.py`` replays.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_golden.py

It writes ``ba_graph(n, 2, seed)`` for every n in ``NODES`` and seed in
``SEEDS`` as edge-list files in a temporary directory, runs each command of
``commands()`` on them through ``opinion_game.cli.main`` in-process, and
writes the exit code and the stdout and stderr lines of every run to
``cli_outputs.json`` next to this script. The test reads any difference from
these references beyond its float tolerance as a changed answer, so run this
only at a commit whose answers are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from opinion_game import ba_graph, save_edge_list
from opinion_game.cli import main

NODES = (12, 40, 2000)
SEEDS = (0, 1)
#: the two-camp game is refused above 40 nodes
TWO_CAMP_MAX_NODES = 40

FIXED_WEIGHT = (
    ("strategy-fixed", "--bounded", "--cap", "1", "--kb", "50", "--v0", "0.2", "--w0-grid", "0.3"),
    ("strategy-fixed",),
    ("strategy-fixed", "--bounded", "--cap", "0.3", "--kg", "7"),
    ("sweep", "--mode", "bounded", "--kb", "50"),
)
#: a 20-point single-camp sweep on 2,000 nodes takes minutes, so it is left out
SINGLE_CAMP_SWEEP = ("sweep", "--mode", "dependency1")
SINGLE_CAMP = ("strategy-dep", "--mode", "dependency1")
TWO_CAMP = (
    ("sweep", "--mode", "dependency2", "--kb", "50"),
    ("strategy-dep", "--kb", "50"),
)


def graph_name(n: int, seed: int) -> str:
    return f"ba-{n}-{seed}"


def write_graph(directory: str, name: str) -> str:
    _, n, seed = name.split("-")
    path = os.path.join(directory, f"{name}.txt")
    save_edge_list(ba_graph(int(n), 2, int(seed)), path)
    return path


def commands():
    """(graph name, argv without --graph) for every reference run."""
    for n in NODES:
        for seed in SEEDS:
            runs = list(FIXED_WEIGHT)
            if n < 2000:
                runs.append(SINGLE_CAMP_SWEEP)
            runs.append(SINGLE_CAMP)
            if n <= TWO_CAMP_MAX_NODES:
                runs.extend(TWO_CAMP)
            for argv in runs:
                yield graph_name(n, seed), list(argv)


def run(argv):
    """Exit code, stdout lines and stderr lines of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def build() -> list[dict]:
    records = []
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name, argv in commands():
            if name not in paths:
                paths[name] = write_graph(directory, name)
            code, out, err = run(argv + ["--graph", paths[name]])
            records.append({"graph": name, "argv": argv, "code": code,
                            "stdout": out, "stderr": err})
    return records


if __name__ == "__main__":
    records = build()
    target = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_outputs.json")
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    lines = sum(len(r["stdout"]) + len(r["stderr"]) for r in records)
    print(f"{len(records)} runs, {lines} output lines -> {target}", file=sys.stderr)
