"""Spans around calls into czempc's layers, recorded from outside the package.

Each traced function is replaced by a wrapper in the module namespace where
its caller looks it up (``explorer`` binds the region functions and
``is_empty`` at import, ``regions`` binds the ``linalg`` kernels, ``sets``
binds ``solve_lp``, and so on). A wrapper times the call, charges its
duration to the enclosing span as child time, and adds calls, total and self
seconds to per-name aggregates. Aggregates are kept per phase (``setup`` or
``round``) and stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from czempc import condense, explorer, regions, runtime, sets
from czempc.regions import RegionRejected

# (module, attribute, span name); the module is the namespace the caller reads
SPANS = [
    (condense, "build_condensed_qp", "condense.build"),
    (condense, "resolve_terminal_set", "condense.terminal"),
    (condense, "support", "sets.support"),
    (sets, "solve_lp", "lp.solve"),
    (explorer, "explore", "explorer.explore"),
    (explorer, "import_json", "explorer.import"),
    (explorer, "region_iterative", "regions.update"),
    (explorer, "region_from_scratch", "regions.scratch"),
    (explorer, "reduced_active_set", "regions.ared"),
    (explorer, "is_empty", "sets.cheb"),
    (regions, "woodbury_rank2_inverse_update", "linalg.woodbury"),
    (regions, "greville_append_row_pinv", "linalg.greville"),
    (regions, "sparse_null_basis", "linalg.sparse_null"),
    (regions, "null_space_qr", "linalg.null_qr"),
    (runtime, "locate", "runtime.locate"),
    (regions.AffineLaw, "__call__", "runtime.law"),
]


class Agg:
    __slots__ = ("calls", "total", "self_s", "tally")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.tally = 0  # sets.cheb: calls that found the region empty; runtime.locate: sum of id + 1


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores the originals on exit."""

    def __init__(self):
        self.phase = "setup"
        self.aggs = {"setup": defaultdict(Agg), "round": defaultdict(Agg)}
        self.rejects = defaultdict(int)
        self._child = [0.0]  # child seconds of each open span, innermost last
        self._saved = []

    def _wrap(self, fn, name):
        clock = time.perf_counter
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except RegionRejected as exc:
                self.rejects[exc.reason] += 1
                raise
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                agg = self.aggs[self.phase][name]
                agg.calls += 1
                agg.total += dt
                agg.self_s += dt - inner
            if name == "sets.cheb":
                agg.tally += bool(out)
            elif name == "runtime.locate" and out is not None:
                agg.tally += out + 1
            return out

        return wrapper

    def __enter__(self):
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def table(self) -> dict:
        """Raw aggregates per phase, for the trace file."""
        return {
            phase: {k: {"calls": a.calls, "total_s": a.total, "self_s": a.self_s} for k, a in sorted(d.items())}
            for phase, d in self.aggs.items()
        }
