"""Compute the reference costs in references.json, each confirmed independently.

    python3 perfbench/make_references.py --seeds 0,1,7

For every instance family and seed, each benchmark workload of that
family solves the instance, and an independent exact solver must agree:
on the k-SP instances ``solve_nk`` and ``subquadratic.solve`` confirm each
other, and ``hungarian_explicit`` confirms the red-blue matchings.  Every answer must also pass its dual
certificate.  Any disagreement aborts before the file is written.
Takes about a minute per seed on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kserver_match as km  # noqa: E402
import workloads  # noqa: E402


def independent_costs(family_workloads, instance) -> dict:
    """Costs from an exact solver that is independent of the family's solvers."""
    solvers = {w.solver for w in family_workloads}
    if solvers == {"grs"}:
        a_pts, b_pts = instance
        g = km.build_matching_graph(a_pts, b_pts, km.CostModel(p=2, q=2))
        return {"hungarian_explicit": float(km.hungarian_explicit(g, a_pts.shape[0]).cost)}
    if solvers == {"subq"}:
        _, trace, _ = km.solve_nk(instance, engine="explicit")
        return {"solve_nk(engine=explicit)": float(trace["cost"])}
    if solvers == {"nk", "subq"}:
        return {}  # the two exact solvers already confirm each other
    raise ValueError(f"no independent solver for {sorted(solvers)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    args = ap.parse_args(argv)
    path = HERE / "references.json"
    refs = json.loads(path.read_text())
    families = {}
    for w in workloads.WORKLOADS.values():
        families.setdefault(w.family, []).append(w)
    for family, ws in families.items():
        for seed in args.seeds:
            instance = workloads.make_instance(km, ws[0], seed)
            costs = {}
            for w in ws:
                out = workloads.solve(km, w, instance)
                problems = workloads.check(km, out, None)
                if problems:
                    print(f"{family} seed {seed}: {w.name}: {problems}", file=sys.stderr)
                    return 1
                costs[w.name] = out.cost
            costs.update(independent_costs(ws, instance))
            ref = costs[ws[0].name]
            if not all(math.isclose(c, ref, rel_tol=workloads.COST_RTOL) for c in costs.values()):
                print(f"{family} seed {seed}: solvers disagree: {costs}", file=sys.stderr)
                return 1
            refs["costs"].setdefault(family, {})[str(seed)] = ref
            refs["confirmed_by"].setdefault(family, {})[str(seed)] = sorted(costs)
            print(f"{family} seed {seed}: {ref!r} from {sorted(costs)}", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
