"""The four benchmark workloads: how each instance is generated, solved and checked.

Every function here takes the imported ``kserver_match`` package as its
first argument, so the caller decides which copy of the library runs.
The library only ever receives the generated instances.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance between a solve's cost and its stored reference.  Both
# solvers sum the same chain costs in float64, so an optimal answer lands
# within a few ulps; a wrong matching misses by far more.
COST_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # key of the instance family in references.json
    solver: str  # "nk" | "subq" | "grs"
    n: int
    k: int  # servers for ksp; unused for grs
    engine: str


# Why each workload exists is stated once, in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nk-ksp", "ksp-1024", "nk", 1024, 256, "explicit"),
        Workload("subq-ksp", "ksp-1024", "subq", 1024, 256, "explicit"),
        Workload("subq-grs", "grs-1024", "grs", 1024, 0, "explicit"),
        Workload("bcp-ksp", "ksp-512", "subq", 512, 128, "bcp"),
    )
}

# Size of the warm-up instance solved once per set-up.
WARMUP_N = 64


def make_instance(km, w: Workload, seed: int, n: int | None = None):
    """The instance of workload w for one seed (n overrides the size)."""
    n = w.n if n is None else n
    if w.solver == "grs":
        # the same recipe as kserver_match.experiments.run_grs
        experiments = importlib.import_module(km.__name__ + ".experiments")
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(2 * n, 2))
        while np.unique(pts, axis=0).shape[0] != 2 * n:
            pts = rng.uniform(0.0, 1.0, size=(2 * n, 2))
        return experiments.random_color_split(pts, seed + 1)
    k = max(1, w.k * n // w.n)
    return km.generate("uniform", n, 2, k, seed, model=km.CostModel(p=2, q=1))


@dataclass
class Outcome:
    cost: float
    state: object  # the solver's final ExtendedMatchingState
    requests: int  # requests served, or pairs matched for grs
    expected_size: int  # matching size an optimal answer must have
    result: object  # subquadratic.SolveResult, or None for nk
    counters: dict  # the paper's counters, reported with every run


def solve(km, w: Workload, instance) -> Outcome:
    """One call into the library's public solver for workload w."""
    if w.solver == "nk":
        _, trace, state = km.solve_nk(instance, engine=w.engine)
        return Outcome(
            cost=float(trace["cost"]),
            state=state,
            requests=instance.n,
            expected_size=instance.n - instance.k,
            result=None,
            # one reversed-view Dijkstra run per iteration
            counters={
                "dijkstra_runs": len(trace["iterations"]),
                "nk_iterations": len(trace["iterations"]),
            },
        )
    if w.solver == "grs":
        a_pts, b_pts = instance
        res = km.solve_grs(
            a_pts, b_pts, model=km.CostModel(p=2, q=2), engine=w.engine
        )
        n = a_pts.shape[0]
        return Outcome(
            cost=float(res.cost),
            state=res.state,
            requests=res.state.matching.size,
            expected_size=n,
            result=res,
            counters=subq_counters(res),
        )
    res = km.solve(instance, mode="ksp", engine=w.engine, nn_backend="linear")
    return Outcome(
        cost=float(res.cost),
        state=res.state,
        requests=instance.n,
        expected_size=instance.n - instance.k,
        result=res,
        counters=subq_counters(res),
    )


def subq_counters(res) -> dict:
    t = res.trace
    return {
        "dijkstra_runs": t.dijkstra_runs,
        "max_searches_per_cell": max(t.searches_per_cell.values(), default=0),
        "nn_queries": t.nn_queries,
    }


def check(km, outcome: Outcome, reference: float | None) -> list:
    """Problems with one solve's answer; empty when it is certified optimal.

    The dual certificate proves the matching optimal at its size; the
    reference cost, confirmed once by an independent solver, catches a
    wrong cost conversion after the matching.
    """
    st = outcome.state
    problems = []
    ok, report = km.verify_certificate(
        st.graph, st.matching, st.y_a, st.y_b, eps=max(st.eps, 1e-9)
    )
    if not ok:
        problems.append("certificate: " + "; ".join(report[:3]))
    if st.matching.size != outcome.expected_size or st.boundary_matched.any():
        problems.append(
            f"matching size {st.matching.size}, expected {outcome.expected_size}"
        )
    if reference is not None and not math.isclose(
        outcome.cost, reference, rel_tol=COST_RTOL
    ):
        problems.append(f"cost {outcome.cost!r} != reference {reference!r}")
    return problems
