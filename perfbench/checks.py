"""Output checks behind ``error_ratio``; they run outside the timed region.

Exact reports: the values sum to v(N) - v(empty) exactly, none is negative,
the player set is the endogenous one, fan branch edges share one value, and
requests marked ``oracle`` match the textbook Shapley sum.  Sampled reports:
epsilon, delta and seed are echoed back, the trial count is the Hoeffding
count recomputed here, and across a run the share of estimates outside their
tolerance of the oracle's exact value is at most delta.  ``answers`` output
is compared with an independent per-atom evaluation joined over the query
variables.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable

from pathshap import graph as graph_mod, query as query_mod

FAN_SPINE = {"s->t", "s->s", "t->t"}


def options(argv) -> dict[str, str]:
    """``--name value`` pairs of a CLI argv (flags without a value do not occur)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def hoeffding_trials(eps: float, delta: float) -> int:
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))


def multiplicative_trials(eps: float, delta: float, max_word: int, players: int) -> int:
    """Trials of the (1+eps) wrapper: the additive count at tolerance
    gap*eps/(1+eps), where gap = 1/(m (m-1) ... (m-k+1)) is the smallest
    nonzero value a query with words of length <= k can take on m players."""
    denominator = 1
    for j in range(min(max_word, players)):
        denominator *= players - j
    eps_add = float(Fraction(1, denominator)) * eps / (1.0 + eps)
    return hoeffding_trials(eps_add, delta)


def definition_game(g, q, mu, kind: str):
    """(players, valuation) of the baseline-shifted edge or vertex game,
    straight from its definition: a coalition wins when the query holds on
    it plus the exogenous part, unless the exogenous part alone answers."""
    if kind == "edge":
        players = sorted(g.endo_edges)

        def holds(coalition):
            allowed = coalition | g.exo_edges
            return query_mod.eval_crpq_bound(g, q, mu, edge_ok=allowed.__contains__)
    else:
        players = sorted(g.endo_vertices)
        bound = {mu[v] for v in q.variables}

        def holds(coalition):
            keep = coalition | g.exo_vertices
            if not bound <= keep:
                return False
            return query_mod.eval_crpq_bound(
                g, q, mu,
                edge_ok=lambda eid: (e := g.edges_by_id[eid]).source in keep and e.target in keep,
            )

    base = holds(frozenset())

    def valuation(coalition):
        return 0 if base else int(holds(coalition))

    return players, valuation


class Checker:
    """Checks reports of one run; caches parsed inputs and reference values.

    ``brute_shapley(players, valuation)`` is the textbook oracle."""

    def __init__(self, brute_shapley: Callable):
        self.brute_shapley = brute_shapley
        self._graphs: dict[str, graph_mod.LabeledGraph] = {}
        self._games: dict[tuple, tuple] = {}
        self._references: dict[tuple, dict[str, Fraction]] = {}
        self._relations: dict[tuple, set] = {}
        # sampled mode -> [estimates outside tolerance, estimates, delta]
        self.tally: dict[str, list] = {}

    # --- inputs ---------------------------------------------------------------

    def _graph(self, path: str) -> graph_mod.LabeledGraph:
        if path not in self._graphs:
            self._graphs[path] = graph_mod.load_graph(Path(path).read_text())
        return self._graphs[path]

    def game(self, path: str, qtext: str, bind: str, kind: str):
        key = (path, qtext, bind, kind)
        if key not in self._games:
            g = self._graph(path)
            q = query_mod.compile_crpq(qtext, g.alphabet)
            self._games[key] = definition_game(g, q, query_mod.parse_binding(bind, q), kind)
        return self._games[key]

    def reference(self, path: str, qtext: str, bind: str) -> dict[str, Fraction]:
        """Exact edge values from the oracle over the definition's valuation,
        memoised so that each coalition is evaluated once."""
        key = (path, qtext, bind)
        if key not in self._references:
            players, valuation = self.game(path, qtext, bind, "edge")
            self._references[key] = self.brute_shapley(players, functools.cache(valuation))
        return self._references[key]

    # --- report checks -----------------------------------------------------------

    def check(self, argv, check: dict, text: str) -> list[str]:
        """Problems found in one request's output; empty when it is correct."""
        kind = check.get("kind")
        try:
            if kind == "answers":
                return self._check_answers(argv, check, text)
            report = json.loads(text)
            if kind == "exact":
                return self._check_exact(argv, check, report)
            return self._check_sampled(argv, check, report)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return [f"unreadable report: {exc!r}"]

    def _check_exact(self, argv, check: dict, report: dict) -> list[str]:
        opts = options(argv)
        kind = opts.get("player-kind", "edge")
        players, valuation = self.game(opts["graph"], opts["query"], opts["bind"], kind)
        values = {row["id"]: Fraction(row["value"]) for row in report["players"]}
        problems = []
        if sorted(values) != players:
            return [f"player set {sorted(values)} != endogenous {kind}s {players}"]
        expected = valuation(frozenset(players)) - valuation(frozenset())
        if "sum" in check and expected != check["sum"]:
            problems.append(f"instance gives v(N)-v(0)={expected}, generator promised {check['sum']}")
        total = sum(values.values())
        if total != expected:
            problems.append(f"sum of values {total} != v(N)-v(0) = {expected}")
        negative = sorted(p for p, v in values.items() if v < 0)
        if negative:
            problems.append(f"negative values for {negative}")
        if "fan" in check:
            branch = {values[p] for p in values if p not in FAN_SPINE}
            if len(branch) != 1:
                problems.append(f"fan branch edges differ: {sorted(branch)}")
        if check.get("oracle"):
            oracle = self.brute_shapley(players, valuation)
            wrong = sorted(p for p in players if oracle[p] != values[p])
            if wrong:
                problems.append(f"values differ from the oracle for {wrong}")
        return problems

    def _check_sampled(self, argv, check: dict, report: dict) -> list[str]:
        opts = options(argv)
        eps, delta, seed = check["eps"], check["delta"], check["seed"]
        reference = self.reference(opts["graph"], opts["query"], opts["bind"])
        rows = report["players"]
        problems = []
        if sorted(row["id"] for row in rows) != sorted(reference):
            return [f"player set differs from the endogenous edges {sorted(reference)}"]
        if check["kind"] == "approx-additive":
            trials = hoeffding_trials(eps, delta)
        else:
            trials = multiplicative_trials(eps, delta, check["max_word"], len(reference))
        tally = self.tally.setdefault(check["kind"], [0, 0, delta])
        for row in rows:
            echoed = (row["eps"], row["delta"], row["seed"], row["samples"])
            if echoed != (eps, delta, seed, trials):
                problems.append(f"{row['id']}: (eps, delta, seed, samples) = {echoed}, "
                                f"expected {(eps, delta, seed, trials)}")
            exact = reference[row["id"]]
            estimate = Fraction(row["value"])
            if check["kind"] == "approx-additive":
                outside = abs(estimate - exact) > Fraction(eps)
            elif exact == 0:
                outside = estimate != 0
            else:
                factor = 1 + Fraction(eps)
                outside = not exact / factor <= estimate <= exact * factor
            tally[0] += outside
            tally[1] += 1
        return problems

    def _check_answers(self, argv, check: dict, text: str) -> list[str]:
        listed = [tuple(line.split("\t")) for line in text.splitlines()]
        problems = []
        if listed != [tuple(a) for a in check["answers"]]:
            problems.append("answers differ from the set-up listing")
        opts = options(argv)
        truth = self._answer_set(opts["graph"], opts["query"])
        if set(listed) != truth or len(listed) != len(truth):
            problems.append(f"{len(set(listed) - truth)} wrong and {len(truth - set(listed))} "
                            "missing answers against per-atom evaluation")
        return problems

    def _answer_set(self, path: str, qtext: str) -> set[tuple[str, ...]]:
        """Answers by evaluating every atom on every vertex pair and joining."""
        key = (path, qtext)
        if key not in self._relations:
            g = self._graph(path)
            q = query_mod.compile_crpq(qtext, g.alphabet)
            vertices = sorted(g.vertices)
            rows = [{}]
            for atom in q.atoms:
                pairs = [
                    (s, t) for s in vertices for t in vertices
                    if query_mod.eval_rpq(g, s, t, atom.dfa)
                ]
                grown = []
                for row in rows:
                    for s, t in pairs:
                        if row.get(atom.source_var, s) != s or row.get(atom.target_var, t) != t:
                            continue
                        if atom.source_var == atom.target_var and s != t:
                            continue
                        grown.append({**row, atom.source_var: s, atom.target_var: t})
                rows = grown
            self._relations[key] = {tuple(row[v] for v in q.variables) for row in rows}
        return self._relations[key]

    def finish(self) -> list[str]:
        """Run-wide checks: the share of sampled estimates outside their
        tolerance is at most delta for every sampled mode."""
        return [
            f"{mode}: {outside}/{total} estimates outside tolerance exceeds delta={delta}"
            for mode, (outside, total, delta) in sorted(self.tally.items())
            if total and outside / total > delta
        ]
