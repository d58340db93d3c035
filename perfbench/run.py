"""Benchmark of the opinion-game library: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``. An
untraced run starts the workload's timing processes one after another. Each
is a fresh interpreter: it imports the library and writes the inputs (one
set-up sample), times its first operation (one cold sample) and then warm
operations for its share of S seconds. Processes that only set up run
between them. Every output is then checked with ``oracles``, and the run
prints one JSON object as its last line, with the median of each kind of
sample. With
``--trace 1`` the run instead times, in its own process, one cold operation
and warm operations, then as many again with every public library function
wrapped in a span, and reports per-layer metrics. Details (samples,
environment, input hashes, failures) go to the line before, and spans to
``.perfbench/``.
"""

from __future__ import annotations

import time

#: process start, as near as this file can see it: set-up timing counts every
#: import the library needs, numpy and scipy included. Nothing the checks
#: need (scipy.optimize, scipy.linalg) is imported before the set-up ends.
T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402  (needs the path above)

PINNED_HASHES = os.path.join(HERE, "inputs.sha256.json")
#: a process of the run that takes longer than this is stopped and the run fails
PROCESS_TIMEOUT_S = 150


def set_up(work: workloads.Workload, seed: int, workdir: str) -> dict:
    """Import the library and write the inputs: this process's set-up sample."""
    import opinion_game  # noqa: F401
    imported = time.perf_counter()
    record = workloads.write_inputs(work, seed, workdir)
    end = time.perf_counter()
    return {"import_s": imported - T0, "inputs_s": end - imported,
            "setup_s": end - T0, "inputs": record}


def operate(runner: workloads.Runner, workdir: str, seconds: float = 0.0,
            count: int | None = None) -> tuple[list[float], list]:
    """Operations in a closed loop, each starting when the previous one ends:
    exactly ``count``, or at least one and then more while the next one is
    expected to end within ``seconds``. Returns (times, results)."""
    out = os.path.join(workdir, f"out-{os.getpid()}.csv")
    times: list[float] = []
    results: list = []
    start = time.perf_counter()
    while True:
        done = len(times)
        if count is not None:
            if done >= count:
                break
        elif done and time.perf_counter() - start + sum(times) / done > seconds:
            break
        begin = time.perf_counter()
        results.append(runner.run(out))
        times.append(time.perf_counter() - begin)
    return times, results


def worker(work: workloads.Workload, seed: int, workdir: str, index: int,
           seconds: float, timing: bool) -> dict:
    """One fresh process of an untraced run: a set-up sample and, if
    ``timing``, a cold sample, warm samples and the peak RSS. The results go
    to a pickle for the checks, which run in the parent."""
    sample = set_up(work, seed, workdir)
    if timing:
        import resource

        runner = workloads.Runner(work, seed, workdir)
        (cold,), results = operate(runner, workdir, count=1)
        warm, more = operate(runner, workdir, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sample.update(cold_s=cold, warm_s=warm, peak_rss_mb=rss)
        with open(os.path.join(workdir, f"results-{index}.pkl"), "wb") as fh:
            pickle.dump(results + more, fh)
    return sample


def spawn(work: workloads.Workload, seed: int, workdir: str, index: int,
          seconds: float, timing: bool) -> dict:
    """Run ``worker`` in a fresh interpreter and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "time" if timing else "setup",
         "--index", str(index), "--workload", work.name, "--seed", str(seed),
         "--seconds", repr(seconds), "--workdir", workdir],
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"process {index} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(result) -> str:
    """sha256 of an operation's result; results are compared, never loaded."""
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def check(runner: workloads.Runner, results: list) -> tuple[int, list[tuple[str, bool]]]:
    """(operations attempted, [(failure message, known)]), after the timed work."""
    failures = [msg for result in results for msg in runner.check(result)]
    return len(results) * runner.per_op, failures


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": nproc, "cpu": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": threads,
        "blas_threads_within_nproc": all(int(v) <= nproc for v in threads.values() if v.isdigit()),
        "load_processes": 1,
    }


def per_layer(tracer, ops: int, overhead: float, fail_frac: float) -> dict:
    import numpy as np
    from oracles import game_exploitability

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    totals = tracer.totals()
    payoffs = [getattr(game, "payoff", game) for game, _ in tracer.games]

    def stat(name, key):
        return totals[name][key] / ops

    delta_calls = totals["centrality.delta_row"]["calls"]
    pu_calls = totals["strategy_dependent.profile_utility"]["calls"]
    misses = tracer.count_children("dynamics.solve_linear", "centrality.delta_row")
    outside = tracer.count_outside("strategy_dependent.profile_utility",
                                   "strategy_dependent.two_camp_equilibrium")
    values = {}
    for metric, _ in names:
        module_fn, _, key = metric.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            values[metric] = stat(module_fn, key)
    values.update({
        "dynamics.solve_linear.rhs": tracer.rhs / ops,
        "centrality.delta_row.hit_ratio": 1.0 - misses / delta_calls if delta_calls else 0.0,
        "strategy_dependent.profile_utility.resolve_ratio": outside / pu_calls if pu_calls else 0.0,
        "game.payoff_entries": sum(p.size for p in payoffs) / ops,
        "game.exploitability_max": max(
            (game_exploitability(np.asarray(p, dtype=float), *res)
             for p, (_, res) in zip(payoffs, tracer.games)), default=0.0),
        "fail_frac": fail_frac,
        "trace.spans": len(tracer.spans) / ops,
        "trace.overhead_s": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("time", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "opinion_game")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload]
    workdir = args.workdir or os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    if args.worker:
        sample = worker(work, args.seed, workdir, args.index, args.seconds,
                        args.worker == "time")
        print(json.dumps(sample))
        return 0

    # not in the library's import chain, so kept out of the set-up processes
    import statistics

    self_check = []
    if args.trace:
        from tracing import Tracer

        setups = [set_up(work, args.seed, workdir)]
        runner = workloads.Runner(work, args.seed, workdir)
        (cold,), results = operate(runner, workdir, count=1)
        warm, more = operate(runner, workdir, args.seconds / work.procs)
        with Tracer() as tracer:
            traced, traced_results = operate(runner, workdir, count=len(warm))
        tracer.write(os.path.join(workdir, "spans.csv"))
        results += more + traced_results
        # tracing must not change a single output byte
        first = digest(results[0])
        if any(digest(r) != first for r in results[1:]):
            self_check.append("outputs differ between operations, traced or not")
        colds = [cold]
    else:
        # the processes that only set up run between the timing ones, so
        # that set-up samples come from the whole run
        setups = []
        for k in range(work.procs):
            if k < work.setups - work.procs:
                setups.append(spawn(work, args.seed, workdir, work.procs + k, 0.0, False))
            setups.append(spawn(work, args.seed, workdir, k, args.seconds / work.procs, True))
        timed = [s for s in setups if "cold_s" in s]
        colds = [s["cold_s"] for s in timed]
        warm = [t for s in timed for t in s["warm_s"]]
        rss = [s["peak_rss_mb"] for s in timed]
        results = []
        for k in range(work.procs):
            path = os.path.join(workdir, f"results-{k}.pkl")
            with open(path, "rb") as fh:
                results += pickle.load(fh)
            os.remove(path)
        runner = workloads.Runner(work, args.seed, workdir)

    records = {json.dumps(s["inputs"], sort_keys=True) for s in setups}
    if len(records) != 1:
        print(f"error: set-up is not deterministic: {records}", file=sys.stderr)
        return 3
    record = setups[0]["inputs"]
    if os.path.exists(PINNED_HASHES):
        with open(PINNED_HASHES, encoding="utf-8") as fh:
            pinned = json.load(fh).get(str(args.seed), {}).get(args.workload)
        if pinned is not None and pinned != record["sha256"]:
            print(f"error: input hash {record['sha256']} differs from pinned {pinned}",
                  file=sys.stderr)
            return 3

    attempted, failures = check(runner, results)
    detail = {
        "workload": args.workload, "seed": args.seed, "inputs": record,
        "environment": environment(), "setup_samples": setups,
        "cold_s": colds, "warm_s": warm, "solve_s_samples": len(warm),
    }
    if args.trace:
        detail["traced_s"] = traced
        overhead = statistics.median(traced) - statistics.median(warm)
        metrics = per_layer(tracer, len(traced), overhead, len(failures) / attempted)
    else:
        metrics = {
            "solve_s": {"value": statistics.median(warm), "unit": "s"},
            "cold_s": {"value": statistics.median(colds), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    # known failures (see Runner.check) count in "failed" but do not make
    # the run incorrect; any other failure does
    detail["failures"] = self_check + [msg for msg, _ in failures]
    unexpected = self_check + [msg for msg, known in failures if not known]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
