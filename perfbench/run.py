"""czempc benchmark: offline explore and online evaluate/simulate, with checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload box-n3 --seed 1 --seconds 60 --trace 0

A run repeats whole rounds for at most ``--seconds`` seconds. A round
explores the workload's problem with the ``baseline`` and ``iter`` variants,
sets the problem up a few times (parse, condense, load the baseline tree from
its JSON), and sends a fixed, interleaved set of ``evaluate`` queries and
closed-loop ``simulate`` runs to the loaded tree. Every output is checked
against the reference computations in ``reference.py``. The last line on standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``spans.py`` with ``--trace 1``. Raw samples, check problems and
span aggregates go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from czempc import cli, condense, explorer, runtime  # noqa: E402

import checks  # noqa: E402
from reference import ReferenceMpc, hit_and_run  # noqa: E402

PROBLEM = ROOT / "problems" / "paper4state.json"
OUT_DIR = ROOT / "perfbench" / "out"

# Why each workload: see README.md. ``sampler`` draws the online and coverage
# states: ``uniform`` over X when (almost) all of X is feasible, ``walk``
# (hit-and-run over feasible (x0, u) pairs) when the feasible set is a thin
# sliver of X, as under the invariant CZ terminal set.
WORKLOADS = {
    "box-n3": {"N": 3, "T": None, "sampler": "uniform"},
    "cz-n1": {"N": 1, "T": {"recurrence": {"K": "lqr"}}, "sampler": "walk"},
}
VARIANTS = ("iter", "baseline")
ONLINE_VARIANT = "baseline"
SETUP_REPS_PER_ROUND = 4
EVALS_PER_ROUND = 3000
SIMS_PER_ROUND = 150
SIM_STEPS = 30
EVAL_CHECKS = 12  # evaluate outputs per online half compared with the reference QP
COVERAGE_SAMPLES = 400
SAMPLE_MARGIN = 1e-6


def workload_doc(name: str) -> tuple:
    spec = WORKLOADS[name]
    with open(PROBLEM) as fh:
        doc = json.load(fh)
    doc["N"] = spec["N"]
    if spec["T"] is not None:
        doc["T"] = spec["T"]
    return doc, spec


class States:
    """Seeded feasible initial states, each with an LP feasibility certificate:
    ``uniform`` draws over X and keeps what the reference LP accepts, ``walk``
    takes the x0 part of hit-and-run walks over feasible (x0, u) pairs."""

    def __init__(self, ref: ReferenceMpc, sampler: str, rng):
        self.ref, self.rng = ref, rng
        self.polytope = ref.joint_polytope(SAMPLE_MARGIN) if sampler == "walk" else None

    def uniform(self, count: int) -> np.ndarray:
        """Points drawn uniformly over the state box X, feasible or not."""
        return self.ref.xc + self.rng.uniform(-1.0, 1.0, (count, self.ref.n)) @ self.ref.xG.T

    def draw(self, count: int) -> np.ndarray:
        if self.polytope is not None:
            return hit_and_run(*self.polytope, self.rng, count)[:, : self.ref.n]
        out = []
        while len(out) < count:
            out.extend(x for x in self.uniform(count - len(out)) if self.ref.feasible(x, SAMPLE_MARGIN))
        return np.array(out)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.doc, spec = workload_doc(workload)
        self.N = spec["N"]
        opts = self.doc.get("options", {})
        self.opts = {
            "radius_threshold": float(opts.get("radiusThreshold", 1e-6)),
            "eps": float(opts.get("eps", 1e-10)),
        }
        self.ref = ReferenceMpc.from_doc(self.doc, self.N)
        self.rng = np.random.default_rng(seed)
        self.states = States(self.ref, spec["sampler"], self.rng)
        self.cover_x = self.states.draw(COVERAGE_SAMPLES)
        self.probe_x = self.states.uniform(COVERAGE_SAMPLES)
        self.samples = {"explore_s": [], "explore_baseline_s": [], "eval_s": [], "sim_s": []}
        self.setup = {"build_s": [], "import_s": []}
        self.online_text = None  # JSON of the first baseline tree
        self.online_tree = None
        self.problems = []  # (operation, kind, message)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def _phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    def _fail(self, op, kind, msg):
        self.failed += 1
        self.problems.append((op, kind, msg))

    def set_up(self, reps: int):
        """``reps`` timed set-ups: parsing the problem plus ``build_condensed_qp``
        and, once a baseline tree exists, loading its JSON the way ``czempc
        eval`` does. They are spread over the run, a few per round."""
        self._phase("setup")
        for _ in range(reps):
            t0 = time.perf_counter()
            self.problem, _ = cli.parse_problem(self.doc, self.N)
            self.cp = condense.build_condensed_qp(self.problem)
            self.setup["build_s"].append(time.perf_counter() - t0)
            if self.online_text is not None:
                t0 = time.perf_counter()
                self.online_tree = explorer.import_json(self.online_text)
                self.setup["import_s"].append(time.perf_counter() - t0)
        self._phase("round")

    def explore(self, variant: str, key: str) -> None:
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            tree = explorer.explore(self.cp, variant=variant, **self.opts)
            self.samples[key].append(time.perf_counter() - t0)
        except Exception:
            self._fail(f"explore {variant}", "error", traceback.format_exc())
            return
        text = explorer.export_json(tree)
        if variant not in self.trees:
            self.trees[variant] = text
            self.tree_stats[variant] = (tree.stats.examined, tree.num_regions)
        elif text == self.trees[variant]:
            self.tree_same[variant] += 1
        else:
            self.changed.append((variant, text))
        if variant == ONLINE_VARIANT and self.online_text is None:
            self.online_text = text

    def measure(self):
        """Whole rounds until the next one would end past ``seconds``. A round:
        baseline explore, set-ups, half the online traffic, iter explore,
        the other half."""
        self.trees = {}  # variant -> exported JSON of the first round
        self.tree_stats = {}
        self.tree_same = dict.fromkeys(VARIANTS, 0)  # later rounds that repeat it
        self.changed = []  # (variant, JSON) of later rounds that differ
        self.set_up(1)
        t_start = time.perf_counter()
        last = 0.0
        while self.rounds == 0 or time.perf_counter() - t_start + last <= self.seconds:
            t_round = time.perf_counter()
            self.explore("baseline", "explore_baseline_s")
            self.set_up(SETUP_REPS_PER_ROUND)
            if self.online_tree is None:
                raise SystemExit("no tree to query: " + "; ".join(m.splitlines()[-1] for _, _, m in self.problems))
            self.online(EVALS_PER_ROUND // 2, SIMS_PER_ROUND // 2)
            self.explore("iter", "explore_s")
            self.online(EVALS_PER_ROUND - EVALS_PER_ROUND // 2, SIMS_PER_ROUND - SIMS_PER_ROUND // 2)
            self.rounds += 1
            last = time.perf_counter() - t_round
        self.wall_s = time.perf_counter() - t_start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def online(self, n_eval: int, n_sim: int):
        """Fresh seeded states; evaluate queries and closed loops interleaved
        in a seeded order from one caller, each call timed. Outputs are
        checked afterwards, outside the timed calls."""
        eval_x = self.states.draw(n_eval)
        sim_x = self.states.draw(n_sim)
        order = self.rng.permutation(np.r_[np.zeros(n_eval, int), np.ones(n_sim, int)])
        p, tree = self.problem, self.online_tree
        evals, sims = [], []
        clock = time.perf_counter
        for kind in order:
            if kind == 0:
                x = eval_x[len(evals)]
                t0 = clock()
                try:
                    out = runtime.evaluate(tree, x)
                except Exception as exc:
                    out = repr(exc)
                self.samples["eval_s"].append(clock() - t0)
                evals.append(out)
            else:
                x = sim_x[len(sims)]
                t0 = clock()
                try:
                    traj = runtime.simulate(tree, p.A_d, p.B_d, p.Q, p.R, x, SIM_STEPS)
                    out = (traj.states, traj.inputs)
                except Exception as exc:
                    out = repr(exc)
                self.samples["sim_s"].append(clock() - t0)
                sims.append(out)
        self.attempted += len(order)
        for i, (x, u) in enumerate(zip(eval_x, evals)):
            if isinstance(u, str):
                self._fail("evaluate", "error", u)
            elif i < EVAL_CHECKS and (prob := checks.eval_problem(self.ref, x, u)):
                self._fail("evaluate", *prob)
        for s in sims:
            prob = ("error", s) if isinstance(s, str) else checks.sim_problem(self.ref, *s)
            if prob:
                self._fail("simulate", *prob)

    def check(self):
        """Explore outputs: the first round's trees in full; a later round that
        returns the same JSON shares its verdict, another tree is checked anew."""
        thr = self.opts["radius_threshold"]
        trees = {v: json.loads(t) for v, t in self.trees.items()}
        found = checks.explore_problems(self.ref, trees, self.cover_x, self.probe_x, thr)
        for variant, probs in found.items():
            for kind, msg in probs:
                self.problems.append((f"explore {variant}", kind, msg))
            if probs:
                self.failed += 1 + self.tree_same[variant]
        for variant, text in self.changed:
            self.problems.append((f"explore {variant}", "repeat", "a later round returned another tree"))
            probs = checks.explore_problems(self.ref, {**trees, variant: json.loads(text)}, self.cover_x, self.probe_x, thr)[variant]
            if probs:
                self.failed += 1
            for kind, msg in probs:
                self.problems.append((f"explore {variant} (later round)", kind, msg))

    @property
    def correct(self) -> bool:
        return all(kind == checks.MISSING for _, kind, _ in self.problems)

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.samples
        us = np.asarray(s["eval_s"]) * 1e6
        ms = np.asarray(s["sim_s"]) * 1e3
        return {
            "explore_s": (statistics.median(s["explore_s"]), "s"),
            "explore_baseline_s": (statistics.median(s["explore_baseline_s"]), "s"),
            "setup_s": (statistics.median(self.setup["build_s"]) + statistics.median(self.setup["import_s"]), "s"),
            "eval_us_p50": (float(np.percentile(us, 50)), "us"),
            "eval_us_p90": (float(np.percentile(us, 90)), "us"),
            "sim_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "sim_ms_p90": (float(np.percentile(ms, 90)), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        S, R = tr.aggs["setup"], tr.aggs["round"]
        rounds = self.rounds

        def per(name, field="total"):
            """Work for one set-up plus one round."""
            s = getattr(S[name], field) / len(self.setup["build_s"]) if name in S else 0.0
            r = getattr(R[name], field) / rounds if name in R else 0.0
            return s + r

        def mean_us(name):
            calls = per(name, "calls")
            return per(name) / calls * 1e6 if calls else 0.0

        def mean_s(name):
            a = S.get(name) or R.get(name)
            return a.total / a.calls if a and a.calls else 0.0

        candidates = sum(c for c, _ in self.tree_stats.values())
        regions = sum(r for _, r in self.tree_stats.values())
        cheb_calls = per("sets.cheb", "calls")
        locate_calls = per("runtime.locate", "calls")
        m = {
            "explorer.candidates": (candidates, "count"),
            "explorer.regions": (regions, "count"),
            "explorer.useful_ratio": (regions / candidates, "ratio"),
            "explorer.bfs_self_s": (per("explorer.explore", "self_s"), "s"),
            "explorer.explore_s": (statistics.median(self.samples["explore_s"]), "s"),
            "explorer.import_s": (mean_s("explorer.import"), "s"),
            "regions.update_calls": (per("regions.update", "calls"), "count"),
            "regions.update_s": (per("regions.update"), "s"),
            "regions.update_us": (mean_us("regions.update"), "us"),
            "regions.scratch_calls": (per("regions.scratch", "calls"), "count"),
            "regions.scratch_s": (per("regions.scratch"), "s"),
            "regions.scratch_us": (mean_us("regions.scratch"), "us"),
            "regions.reject_second_order": (tr.rejects["second_order"] / rounds, "count"),
            "regions.reject_singular": (tr.rejects["singular"] / rounds, "count"),
            "regions.ared_s": (per("regions.ared"), "s"),
            "linalg.woodbury_s": (per("linalg.woodbury"), "s"),
            "linalg.greville_s": (per("linalg.greville"), "s"),
            "linalg.sparse_null_s": (per("linalg.sparse_null"), "s"),
            "linalg.null_qr_s": (per("linalg.null_qr"), "s"),
            "sets.cheb_calls": (cheb_calls, "count"),
            "sets.cheb_s": (per("sets.cheb"), "s"),
            "sets.cheb_us": (mean_us("sets.cheb"), "us"),
            "sets.nonempty_ratio": (1.0 - per("sets.cheb", "tally") / cheb_calls if cheb_calls else 0.0, "ratio"),
            "sets.support_calls": (per("sets.support", "calls"), "count"),
            "sets.support_s": (per("sets.support"), "s"),
            "lp.calls": (per("lp.solve", "calls"), "count"),
            "lp.s": (per("lp.solve"), "s"),
            "condense.build_s": (mean_s("condense.build"), "s"),
            "condense.terminal_s": (mean_s("condense.terminal"), "s"),
            "runtime.scanned_mean": (per("runtime.locate", "tally") / locate_calls if locate_calls else 0.0, "count"),
            "runtime.locate_s": (per("runtime.locate"), "s"),
            "runtime.law_s": (per("runtime.law"), "s"),
        }
        linalg = sum(m[k][0] for k in m if k.startswith("linalg."))
        if linalg > m["regions.update_s"][0] + m["regions.scratch_s"][0] or m["explorer.bfs_self_s"][0] < 0:
            self.problems.append(("trace", "nesting", "linalg time exceeds its callers' or BFS self time is negative"))
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.trace:
        from spans import Tracer

        with Tracer() as tracer:
            run = Run(args.workload, args.seed, args.seconds, tracer)
            run.measure()
        metrics = run.per_layer()
    else:
        run = Run(args.workload, args.seed, args.seconds)
        run.measure()
        metrics = run.end_to_end()
    run.check()

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run.rounds,
        "wall_s": run.wall_s,
        "result": result,
        "problems": run.problems,
        "samples": run.samples,
        "setup": run.setup,
    }
    if args.trace:
        detail["spans"] = tracer.table()
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh)
    for op, kind, msg in run.problems:
        print(f"{op}: {kind}: {msg.splitlines()[-1] if msg else ''}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
