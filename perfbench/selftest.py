"""Show that the benchmark's checks catch faulty trees.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed 1]

For each workload the script explores the problem with both variants, checks
the unmodified trees, then checks deliberately broken copies:

- ``drop-one``: the largest region removed from the baseline tree only;
- ``drop-both``: the largest region removed from both trees, so the node sets
  still agree and only coverage can notice;
- ``law``: the offset of one baseline law moved by 1e-3;
- ``evaluate``: the same moved law, seen through ``evaluate`` on the loaded
  tree.

Each broken copy must produce at least one problem. Exit code 0 when all are
caught, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import numpy as np

import checks
import run
from reference import chebyshev


def largest(tree_doc) -> tuple:
    return max((chebyshev(nd["L"], nd["l"])[1], tuple(nd["active"])) for nd in tree_doc["nodes"])[1]


def without(tree_doc, active: tuple):
    out = copy.deepcopy(tree_doc)
    out["nodes"] = [nd for nd in out["nodes"] if tuple(nd["active"]) != active]
    return out


def moved_law(tree_doc, node_id: int, delta: float = 1e-3):
    out = copy.deepcopy(tree_doc)
    out["nodes"][node_id]["ku"][0] += delta
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    missed = 0
    for workload in sorted(run.WORKLOADS):
        r = run.Run(workload, args.seed, 0.0)
        r.set_up(1)
        trees = {v: json.loads(run.explorer.export_json(run.explorer.explore(r.cp, variant=v, **r.opts))) for v in run.VARIANTS}
        thr = r.opts["radius_threshold"]

        def problems(docs):
            return [p for probs in checks.explore_problems(r.ref, docs, r.cover_x, r.probe_x, thr).values() for p in probs]

        print(f"{workload}: unmodified trees: {sorted({k for k, _ in problems(trees)}) or 'no problems'}")
        big = largest(trees["baseline"])
        # the node most queries land in, so that a moved law shows in evaluate
        tree = run.explorer.import_json(json.dumps(trees["baseline"]))
        xs = r.states.draw(200)
        hits = np.bincount([run.runtime.locate(tree, x) for x in xs])
        busy = int(np.argmax(hits))
        cases = {
            "drop-one": {**trees, "baseline": without(trees["baseline"], big)},
            "drop-both": {v: without(t, big) for v, t in trees.items()},
            "law": {**trees, "baseline": moved_law(trees["baseline"], busy)},
        }
        before = set(problems(trees))
        for name, docs in cases.items():
            kinds = sorted({k for k, m in set(problems(docs)) - before})
            missed += not kinds
            print(f"  {name:10s} {'caught: ' + ', '.join(kinds) if kinds else 'NOT CAUGHT'}")
        broken = run.explorer.import_json(json.dumps(moved_law(trees["baseline"], busy)))
        flagged = sum(checks.eval_problem(r.ref, x, run.runtime.evaluate(broken, x)) is not None for x in xs)
        missed += not flagged
        print(f"  {'evaluate':10s} {'caught: ' + str(flagged) + ' of 200 queries off' if flagged else 'NOT CAUGHT'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
