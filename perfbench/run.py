"""Closed-loop benchmark of the two exact k-server solvers.

    python3 perfbench/run.py --workload subq-ksp --seed 0 --seconds 20 --trace 0

One client: one process, one solve at a time, BLAS pinned to one thread.
The library is imported from ``src/`` of the checkout this file sits in and
called through its public API.

A run solves every instance of the workload's fixed seed list once per
pass, in an order drawn from ``--seed``, and starts another pass only if
it fits in ``--seconds``.  The seed list, not ``--seed``, fixes which
instances are solved, because solve times differ between instances by up
to half; so every run measures the same work.  ``--instance-seeds`` swaps
the list, e.g. for the held-out seed named in references.json.

Every solve is checked, untimed: its dual certificate, its matching size
and its cost against a stored reference.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` solves each instance
untraced and then traced and reports the per-layer metrics of the traced
solves.  The last line of standard output is the result object; the line
before it holds the sample counts, the paper's counters and the
environment, which are also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "kserver_match"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
ROOT_SPAN = {"nk": "nk_solver.solve", "subq": "subquadratic.solve", "grs": "subquadratic.solve"}


class SetupError(RuntimeError):
    pass


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0, help="orders the passes; seeds the warm-up")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--instance-seeds",
        type=lambda s: [int(x) for x in s.split(",") if x],
        default=None,
        help="comma-separated instance seeds (default: references.json default_seeds)",
    )
    return ap.parse_args(argv)


def load_references():
    with open(HERE / "references.json") as fh:
        return json.load(fh)


def set_up(workloads, w, seeds, warm_seed):
    """Import the library, build the inputs, load references, warm up.

    The package is dropped from sys.modules first, so that every repeat
    pays its import again; numpy stays loaded.
    """
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    km = importlib.import_module(PACKAGE)
    instances = [workloads.make_instance(km, w, s) for s in seeds]
    costs = load_references()["costs"][w.family]
    missing = [s for s in seeds if str(s) not in costs]
    if missing:
        raise SetupError(
            f"no reference cost for {w.family} seeds {missing}; "
            "add them with perfbench/make_references.py"
        )
    references = [costs[str(s)] for s in seeds]
    warm = workloads.solve(km, w, workloads.make_instance(km, w, warm_seed, workloads.WARMUP_N))
    problems = workloads.check(km, warm, None)
    if problems:
        raise SetupError(f"warm-up solve failed its check: {problems}")
    return km, instances, references, time.perf_counter() - t0


def timed_solve(workloads, km, w, instance, recorder=None):
    """(wall seconds, Outcome or None if the solve raised)."""
    gc.collect()  # so one solve's garbage is not collected inside the next
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = workloads.solve(km, w, instance)
        else:
            out = recorder.span(ROOT_SPAN[w.solver], workloads.solve, km, w, instance)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, out


@dataclass
class Measurement:
    times: list = field(default_factory=list)  # untraced solve seconds
    instance_of: list = field(default_factory=list)  # instance index per time
    layer_rows: list = field(default_factory=list)  # one dict per traced solve
    solves: list = field(default_factory=list)  # one record per solve
    attempted: int = 0
    failed: int = 0
    served: int = 0  # requests of untraced solves that passed their check
    passes: int = 0


def measure(spans, workloads, km, w, instances, references, seeds, args, recorder):
    """Closed loop: whole passes over the instances while they fit in --seconds.

    With a recorder, each instance is solved untraced and then traced, so
    the traced solve has an untraced twin to give the tracing overhead.
    """
    rng = random.Random(args.seed)
    m = Measurement()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        order = list(range(len(seeds)))
        rng.shuffle(order)
        for i in order:
            for rec in (None,) if recorder is None else (None, recorder):
                if rec is None:
                    secs, out = timed_solve(workloads, km, w, instances[i])
                else:
                    first = rec.mark()
                    with spans.traced(rec, PACKAGE):
                        secs, out = timed_solve(workloads, km, w, instances[i], rec)
                m.attempted += 1
                if out is None:
                    problems = ["raised"]
                else:
                    problems = workloads.check(km, out, references[i])
                if problems:
                    m.failed += 1
                    print(f"instance seed {seeds[i]}: {problems}", file=sys.stderr)
                if rec is None:
                    m.times.append(secs)
                    m.instance_of.append(i)
                    if not problems:
                        m.served += out.requests
                elif out is not None:
                    overhead = secs / m.times[-1] - 1.0
                    m.layer_rows.append(layer_metrics(rec.summary(first), out, overhead))
                m.solves.append(
                    {
                        "instance_seed": seeds[i],
                        "traced": rec is not None,
                        "solve_s": secs,
                        "ok": not problems,
                        "counters": None if out is None else out.counters,
                    }
                )
                del out  # free the solve's state before the next one
        m.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            return m


def solve_s(m: Measurement) -> float:
    """Median solve time of each instance, averaged over the instances.

    The instances differ in size of work by up to half, so a plain median
    of the pooled times would fall between them and jump with each sample.
    """
    per_instance = {}
    for i, secs in zip(m.instance_of, m.times):
        per_instance.setdefault(i, []).append(secs)
    return statistics.fmean(statistics.median(v) for v in per_instance.values())


def layer_metrics(summary: dict, out, overhead: float) -> dict:
    """Per-layer metrics of one traced solve."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m = {
        "search_engine.dijkstra.calls": get("search_engine.dijkstra", "calls"),
        "search_engine.dijkstra.self_s": get("search_engine.dijkstra", "self_s"),
        "search_engine.view.calls": get("search_engine.view", "calls"),
        "search_engine.view.s": get("search_engine.view", "s"),
        "search_engine.nn_query.calls": get("search_engine.nn_query", "calls"),
        "search_engine.nn_query.s": get("search_engine.nn_query", "s"),
        "geometry.cost_to_many.calls": get("geometry.cost_to_many", "calls"),
        "geometry.cost_to_many.s": get("geometry.cost_to_many", "s"),
        "hierarchy.build.s": get("hierarchy.build", "s"),
        "matching_state.apply_path.calls": get("matching_state.apply_path", "calls"),
        "matching_state.apply_path.s": get("matching_state.apply_path", "s"),
        "matching_state.init.s": get("matching_state.init", "s"),
        "nk_solver.search.calls": get("nk_solver.search", "calls"),
        "nk_solver.iterations": out.counters.get("nk_iterations", 0),
        "nk_solver.self_s": get("nk_solver.solve", "self_s") + get("nk_solver.search", "self_s"),
        "subquadratic.self_s": get("subquadratic.solve", "self_s"),
        "reduction.s": get("reduction", "s"),
        "trace_overhead_frac": overhead,
    }
    res = out.result
    if res is None:  # nk: no hierarchy, no cells
        runs = apply = merge = freed = max_per_cell = nn = cells = 0
    else:
        t = res.trace
        runs = t.dijkstra_runs
        apply = sum(t.searches_per_cell.values())
        merge = sum(t.merge_iters_per_cell.values())
        freed = sum(t.divider_freed_per_cell.values())
        max_per_cell = out.counters["max_searches_per_cell"]
        nn = t.nn_queries
        cells = len(res.hierarchy.cells)
    m.update(
        {
            "subquadratic.dijkstra_runs": runs,
            "subquadratic.apply_searches": apply,
            "subquadratic.merge_iters": merge,
            "subquadratic.key_searches": runs - apply - merge,
            "subquadratic.useful_search_frac": (apply + merge) / runs if runs else 0.0,
            "subquadratic.max_searches_per_cell": max_per_cell,
            "subquadratic.nn_queries": nn,
            "subquadratic.divider_freed": freed,
            "hierarchy.cells": cells,
        }
    )
    return m


def git_revision(root: Path):
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy) -> dict:
    return {
        "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    # pinned before numpy loads, so the BLAS pool starts with one thread
    for var in BLAS_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    import numpy

    numpy_import_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    units = {
        m["name"]: m["unit"]
        for m in declared["end_to_end" if args.trace == 0 else "per_layer"]
    }
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"run.py: library source {SRC / PACKAGE} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = load_references()
    seeds = args.instance_seeds or refs["default_seeds"]

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            km, instances, references, secs = set_up(workloads, w, seeds, args.seed)
            setups.append(secs)
    except (ImportError, SetupError) as exc:
        print(f"run.py: set-up failed: {exc}", file=sys.stderr)
        return 2
    if not Path(km.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: imported {km.__file__}, not the checkout's", file=sys.stderr)
        return 2
    setup_s = numpy_import_s + statistics.median(setups)

    recorder = spans.SpanRecorder() if args.trace else None
    m = measure(spans, workloads, km, w, instances, references, seeds, args, recorder)
    if args.trace == 0:
        metrics = {
            "solve_s": solve_s(m),
            "requests_per_s": m.served / sum(m.times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    elif m.layer_rows:
        metrics = {
            name: statistics.median(row[name] for row in m.layer_rows)
            for name in m.layer_rows[0]
        }
    else:  # every traced solve raised
        metrics = dict.fromkeys(units, 0.0)
    if set(metrics) != set(units):
        print(
            f"run.py: metrics {sorted(set(metrics) ^ set(units))} differ from "
            "BENCHMARK.json",
            file=sys.stderr,
        )
        return 2

    details = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": seeds,
        "held_out_seed": refs["held_out_seed"],
        "passes": m.passes,
        "solve_s_samples": len(m.times),
        "failed_frac": m.failed / m.attempted,
        "setup": {"numpy_import_s": numpy_import_s, "repeats_s": setups},
        "solves": m.solves,
        "environment": environment(numpy),
    }
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({**details, "result": result}, fh, indent=1)
        fh.write("\n")
    if recorder is not None:
        recorder.save(stem.with_name(stem.name + "-spans.npz"))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
