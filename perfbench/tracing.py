"""Spans around the calls into each pathshap layer, for the traced run only.

``Tracer.install()`` replaces public functions by timing wrappers where
the calling module looks them up (``cli.load_graph``,
``explain.eval_crpq_bound``, ``game.shapley_mc`` as ``explain`` calls it,
...), and ``Tracer.uninstall()`` puts the originals back.  Names the program no longer has
are skipped, so their metrics read 0.  Nothing in the program changes.

A span has a name, start, end, parent and request id; its self time is its
duration minus the durations of its direct child spans.  Spans of functions
called thousands of times per request (valuations, product-BFS evaluations,
the short-word counters) are "hot": they are timed and counted like the
others but aggregated per (name, nearest cold ancestor) instead of kept one
by one.  ``CoalitionGame.value_of_mask`` is only counted: timing each of its
cache lookups would cost more than the lookup.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module, attribute as the caller looks it up, span name, hot)
WRAPPED = (
    ("cli", "load_graph", "graph.load_graph", False),
    ("query", "compile_crpq", "query.compile_crpq", False),
    ("query", "parse_binding", "query.parse_binding", False),
    ("query", "enumerate_answers", "query.enumerate_answers", False),
    ("query", "eval_crpq_bound", "query.eval_crpq_bound", True),
    ("regex", "parse_regex", "regex.parse_regex", False),
    ("automata", "compile", "automata.compile", False),
    ("automata", "language_profile", "automata.language_profile", False),
    ("explain", "solve", "explain.solve", False),
    ("explain", "eval_crpq_bound", "query.eval_crpq_bound", True),
    ("explain", "edge_game", "explain.build_game", False),
    ("explain", "vertex_game", "explain.build_game", False),
    ("explain", "shapley_short_rpq", "explain.shapley_short_rpq", False),
    ("explain", "count_enabling", "explain.count", True),
    ("explain", "count_enabling_general", "explain.count", True),
    ("explain", "blocking_structure", "explain.count", True),
    ("game", "shapley_exact_subset", "game.exact", False),
    ("game", "shapley_exact_subset_all", "game.exact", False),
    ("game", "shapley_mc", "game.mc", False),
)


class Tracer:
    """Spans of one traced run over ``package`` (the imported pathshap).

    The wrappers are built once; ``install()`` and ``uninstall()`` only swap
    attributes, so traced and untraced requests can alternate cheaply."""

    def __init__(self, package):
        self.request = 0
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, self_ns)
        self.hot: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])  # (name, parent, request) -> [calls, ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # name -> [calls, ns, self_ns]
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []  # frames: [cold span id, child ns]
        self._next_id = 1
        self.patches = self._patches(package)
        self.main = self.span("cli.main", package.cli.main)

    def span(self, name: str, fn, hot: bool = False, on_result=None):
        """``fn`` wrapped so that each call records a span."""
        stack, totals = self._stack, self.totals

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                span_id = parent[0] if parent else 0
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                total = totals[name]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                parent_id = parent[0] if parent else 0
                if hot:
                    agg = self.hot[(name, parent_id, self.request)]
                    agg[0] += 1
                    agg[1] += duration
                else:
                    self.spans.append((span_id, name, start, end, parent_id, self.request, duration - frame[1]))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_game(self, game) -> None:
        valuation = getattr(game, "valuation", None)
        if callable(valuation):
            game.valuation = self.span("game.valuation", valuation, hot=True)

    def _on_dfa(self, dfa) -> None:
        self.counts["automata.dfa_states"] += len(getattr(dfa, "states", ()))

    def _on_estimate(self, estimate) -> None:
        self.counts["game.mc_trials"] += getattr(estimate, "samples", 0)

    def _patches(self, package) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every layer boundary of
        ``package`` (the imported pathshap)."""
        hooks = {
            "explain.build_game": self._on_game,
            "automata.compile": self._on_dfa,
            "game.mc": self._on_estimate,
        }
        patches = []
        for module_name, attr, name, hot in WRAPPED:
            module = getattr(package, module_name)
            original = getattr(module, attr, None)
            if original is not None:
                patches.append((module, attr, original, self.span(name, original, hot, hooks.get(name))))
        game_class = getattr(package.game, "CoalitionGame", None)
        if game_class is not None and hasattr(game_class, "value_of_mask"):
            original = game_class.__dict__["value_of_mask"]
            patches.append((game_class, "value_of_mask", original, self.counted("game.value_of_mask", original)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def call(self, argv, out) -> int:
        """One traced request: ``cli.main`` inside a ``cli.main`` span."""
        self.request += 1
        return self.main(argv, out=out)

    def write(self, path: Path) -> None:
        """All spans as JSON lines: one per cold span, one per hot aggregate."""
        with path.open("w") as f:
            for span_id, name, start, end, parent, request, self_ns in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "request": request, "self_ns": self_ns}) + "\n")
            for (name, parent, request), (calls, ns) in sorted(self.hot.items()):
                f.write(json.dumps({"name": name, "parent": parent, "request": request,
                                    "calls": calls, "total_ns": ns}) + "\n")

    def layer_metrics(self, requests: int, fallbacks: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``requests`` traced requests, of which
        ``fallbacks`` reported the non-disjoint fallback."""
        t = self.totals

        def calls(name):
            return t[name][0] if name in t else 0

        def total(name):
            return t[name][1] if name in t else 0

        def self_ns(name):
            return t[name][2] if name in t else 0

        def per(value, base, scale):
            return value / base / scale if base else 0.0

        request_ns = total("cli.main")
        value_calls = self.counts["game.value_of_mask"]
        valuations = calls("game.valuation")
        trials = self.counts["game.mc_trials"]
        exact_valuation_ns = self._hot_under("game.valuation", "game.exact")
        mc_valuation_ns = self._hot_under("game.valuation", "game.mc")
        return {
            "cli.self_ms": (per(self_ns("cli.main"), requests, 1e6), "ms"),
            "graph.load_ms": (per(total("graph.load_graph"), calls("graph.load_graph"), 1e6), "ms"),
            "regex.parse_us": (per(total("regex.parse_regex"), calls("regex.parse_regex"), 1e3), "us"),
            "automata.compile_us": (per(total("automata.compile"), calls("automata.compile"), 1e3), "us"),
            "automata.profile_us": (per(total("automata.language_profile"),
                                        calls("automata.language_profile"), 1e3), "us"),
            "automata.dfa_states": (per(self.counts["automata.dfa_states"], calls("automata.compile"), 1),
                                    "count"),
            "query.compile_crpq_self_us": (per(self_ns("query.compile_crpq"), calls("query.compile_crpq"), 1e3),
                                           "us"),
            "query.eval_calls": (per(calls("query.eval_crpq_bound"), requests, 1), "count"),
            "query.eval_us_per_call": (per(total("query.eval_crpq_bound"), calls("query.eval_crpq_bound"), 1e3),
                                       "us"),
            "query.eval_share": (per(total("query.eval_crpq_bound"), request_ns, 1), "ratio"),
            "query.enumerate_ms": (per(total("query.enumerate_answers"), calls("query.enumerate_answers"), 1e6),
                                   "ms"),
            "game.value_calls": (per(value_calls, requests, 1), "count"),
            "game.valuations": (per(valuations, requests, 1), "count"),
            "game.cache_hit_ratio": (per(value_calls - valuations, value_calls, 1), "ratio"),
            "game.exact_self_ms": (per(total("game.exact") - exact_valuation_ns, calls("game.exact"), 1e6), "ms"),
            "game.mc_trials": (per(trials, requests, 1), "count"),
            "game.mc_self_us_per_trial": (per(total("game.mc") - mc_valuation_ns, trials, 1e3), "us"),
            "explain.build_game_us": (per(total("explain.build_game"), calls("explain.build_game"), 1e3), "us"),
            "explain.solve_self_ms": (per(self_ns("explain.solve"), calls("explain.solve"), 1e6), "ms"),
            "explain.short_rpq_ms": (per(total("explain.shapley_short_rpq"), requests, 1e6), "ms"),
            "explain.count_calls": (per(calls("explain.count"), requests, 1), "count"),
            "explain.fallback_share": (per(fallbacks, requests, 1), "ratio"),
        }

    def _hot_under(self, hot_name: str, parent_name: str) -> int:
        """Nanoseconds in ``hot_name`` spans whose cold parent is a ``parent_name`` span."""
        parents = {span[0] for span in self.spans if span[1] == parent_name}
        return sum(ns for (name, parent, _), (_, ns) in self.hot.items() if name == hot_name and parent in parents)
