"""Spans around the functions each mixedbn layer calls into.

The program is not edited.  :func:`install` rebinds attributes of the
imported ``mixedbn`` modules to timing wrappers, so a call made through any
module's name for the function is timed.  Each span keeps its call count,
inclusive time and self time (inclusive time minus the time of the traced
calls made inside it); aggregates stay in memory and are read once the
measured command has returned.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (span, defining module, function): rebound in every mixedbn module that
# holds the function under its own name.
SPANS = (
    ("cli.main", "mixedbn.cli", "main"),
    ("dataset.load_dataset", "mixedbn.dataset", "load_dataset"),
    ("search.hill_climb_structure", "mixedbn.search", "hill_climb_structure"),
    ("search.coordinate_ascent", "mixedbn.search", "coordinate_ascent"),
    ("search.optimize_variable", "mixedbn.search", "optimize_variable"),
    ("search.affected_set", "mixedbn.search", "affected_set"),
    ("graph.has_path", "mixedbn.graph", "has_path"),
    ("graph.d_separated", "mixedbn.graph", "d_separated"),
    ("scoring.local_score", "mixedbn.scoring", "local_score"),
    ("scoring.network_score", "mixedbn.scoring", "network_score"),
)

# Rebound in mixedbn.search only.  There, family_counts and
# discrete_family_score are called by the edge scan alone, and
# discretize_all once per structure-search round; the same functions called
# from scoring or cli are not part of these spans.
SEARCH_ONLY_SPANS = (
    ("search.edge_scan.counts", "family_counts"),
    ("search.edge_scan.score", "discrete_family_score"),
    ("search.round", "discretize_all"),
)


class Tracer:
    """Per-span aggregates: ``calls``, ``s`` (inclusive) and ``self_s``."""

    def __init__(self) -> None:
        self.spans: dict[str, dict] = {}
        # Time of traced calls made inside each open span, innermost last.
        self._child_time: list[float] = []
        self.noop_solves = 0
        self.candidates = 0

    def wrap(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        open_spans = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                stats["calls"] += 1
                stats["s"] += elapsed
                stats["self_s"] += elapsed - inner
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_solve(self, signature):
        def after(args, kwargs, result) -> None:
            bound = signature.bind(*args, **kwargs).arguments
            i, policy, dataset = bound["i"], bound["policy"], bound["dataset"]
            if result.thresholds == policy[i].thresholds:
                self.noop_solves += 1
            self.candidates += len(dataset.candidate_thresholds(i))

        return after


def _mixedbn_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "mixedbn" or name.startswith("mixedbn.")
    ]


def install(tracer: Tracer) -> None:
    """Rebind the traced functions of the already imported mixedbn modules.

    A function the program no longer defines is skipped; its span then
    reads zero calls.
    """
    modules = _mixedbn_modules()
    for name, home, attr in SPANS:
        original = getattr(sys.modules[home], attr, None)
        if original is None:
            continue
        after = None
        if name == "search.optimize_variable":
            after = tracer._after_solve(inspect.signature(original))
        wrapper = tracer.wrap(name, original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    search = sys.modules["mixedbn.search"]
    for name, attr in SEARCH_ONLY_SPANS:
        original = getattr(search, attr, None)
        if original is not None:
            setattr(search, attr, tracer.wrap(name, original))
