"""Seeded instance generators for the benchmark workloads.

Every workload is a list of CLI requests over graph files.  The generators
take the workload seed and nothing else, so one seed always gives the same
graphs, the same argv lists and the same digest.  They call the library only
to pick bindings (and, for ``explain-answers``, to list the answers the flow
will explain); the timed requests go through ``pathshap.cli.main``.

Sizes are stratified: a seed changes which graphs, bindings and sampler seeds
a workload gets (for fans and the explain-every-answer graphs, only names and
order), never how many requests of each size it holds, and random graphs of
one size are kept to a band of search work (``scan_work``).  That
keeps the cost of a run comparable across seeds, so a second seed can confirm
a claim made on the first.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
from pathshap import graph as graph_mod, query as query_mod

RUNNING_EXAMPLE = """\
v1 a v2 n
v1 a v3 n
v3 a v2 n
v4 a v3 n
v2 b v4 n
v4 b v6 n
v3 b v5 n
v2 b v6 n
v5 c v6 n
"""
CHAIN3 = "u1 a u2 n\nu2 b u3 n\nu3 c u4 n\n"

SWEEP_QUERY = "(x, (a|b)* c, y)"
FAN_QUERY = "(x, a b | a c | c, y)"
ANSWERS_QUERY_1 = "(x, a (b|c)*, y)"
ANSWERS_QUERY_2 = "(x, a b*, y) & (y, c, z)"

WORKLOADS = ("subset-sweep", "poly-fan", "mc-sampled", "explain-answers")


@dataclass(frozen=True)
class Request:
    """One CLI request.  ``argv`` names its graph by file name; the runner
    swaps in the path of the written file.  ``check`` tells the output
    checker what kind of report to expect and how to verify it."""

    argv: tuple[str, ...]
    graph: str
    check: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class InstanceSet:
    """Graphs plus the ordered request list of one workload and seed.

    ``requests`` is one pass of the timed loop, which repeats it.
    ``warmup`` runs during set-up; ``checks`` run after the timed loop,
    small enough for the brute-force oracle.
    """

    workload: str
    seed: int
    graphs: dict[str, str]
    requests: list[Request]
    warmup: list[Request]
    checks: list[Request] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "graphs": sorted(self.graphs.items()),
            "requests": [[list(r.argv), r.check] for r in self.requests],
            "warmup": [list(r.argv) for r in self.warmup],
            "checks": [[list(r.argv), r.check] for r in self.checks],
        }
        h.update(json.dumps(payload, sort_keys=True).encode())
        return h.hexdigest()[:16]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.graphs.items():
            (directory / name).write_text(text)


def generate(workload: str, seed: int, scale: float = 1.0) -> InstanceSet:
    """Instance set of a workload.  ``scale`` below 1 shrinks the instances
    for smoke tests; the benchmark always runs at scale 1."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return _GENERATORS[workload](rng, seed, scale)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


# --- shared pieces ------------------------------------------------------------

def _edge_lines(rng: random.Random, vertices: list[str], n_endo: int, n_exo: int, labels: str) -> list[str]:
    pairs = [(u, v) for u in vertices for v in vertices if u != v]
    rng.shuffle(pairs)
    chosen = pairs[: n_endo + n_exo]
    return [
        f"{u} {rng.choice(labels)} {v} {'n' if i < n_endo else 'x'}"
        for i, (u, v) in enumerate(chosen)
    ]


def _explainable_bindings(text: str, qtext: str, player_kind: str) -> list[dict[str, str]]:
    """Bindings of a two-variable query under which the whole graph wins
    the game and the exogenous part alone does not."""
    g = graph_mod.load_graph(text)
    q = query_mod.compile_crpq(qtext, g.alphabet)
    out = []
    for x in sorted(g.vertices):
        for y in sorted(g.vertices):
            mu = query_mod.Assignment({"x": x, "y": y})
            players, valuation = checks.definition_game(g, q, mu, player_kind)
            if valuation(frozenset(players)):
                out.append(mu.binding)
    return out


def _bind_text(mu: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(mu.items()))


def shapley_argv(name: str, qtext: str, mu: dict[str, str], *extra: str) -> tuple[str, ...]:
    return ("shapley", "--graph", name, "--query", qtext, "--bind", _bind_text(mu), *extra)


def _random_explainable(rng, make_text, qtext: str, player_kind: str, band=None):
    """Draw graphs until one has an explainable binding; pick one of those.
    With a ``band``, also redraw until ``scan_work`` falls inside it."""
    while True:
        text = make_text()
        bindings = _explainable_bindings(text, qtext, player_kind)
        if bindings:
            mu = rng.choice(bindings)
            if band is None or band[0] <= scan_work(text, mu, player_kind) <= band[1]:
                return text, mu


def scan_work(text: str, mu: dict[str, str], kind: str) -> float:
    """Out-edges a valuation of ``SWEEP_QUERY`` scans, per edge of the
    graph, averaged over 64 fixed pseudo-random coalitions.

    A valuation is a breadth-first search from x over the product of the
    graph and the query's automaton; with ``(a|b)* c`` it visits the a/b
    reach of x, then the targets of c edges leaving it, and scans every
    out-edge of each.  Between graphs of one size this work varies about
    fourfold and sets much of their difference in cost (correlation 0.78
    with the request time on 30 graphs of 15 edges)."""
    g = graph_mod.load_graph(text)
    coalitions = random.Random(0)
    total = 0
    for _ in range(64):
        if kind == "edge":
            allowed = {e for e in sorted(g.endo_edges) if coalitions.random() < 0.5} | g.exo_edges
            ok = lambda e: e.id in allowed
        else:
            keep = {v for v in sorted(g.endo_vertices) if coalitions.random() < 0.5} | g.exo_vertices
            if not {mu["x"], mu["y"]} <= keep:
                continue
            ok = lambda e: e.source in keep and e.target in keep
        reach, frontier = {mu["x"]}, [mu["x"]]
        while frontier:
            v = frontier.pop()
            total += len(g.out_edges(v))
            for e in g.out_edges(v):
                if e.label in "ab" and e.target not in reach and ok(e):
                    reach.add(e.target)
                    frontier.append(e.target)
        total += sum(len(g.out_edges(e.target)) for v in reach for e in g.out_edges(v)
                     if e.label == "c" and ok(e))
    return total / 64 / len(g.edges)


# --- subset-sweep --------------------------------------------------------------

# One group of subset-sweep: six edge-player and two vertex-player requests.
# Three 15-edge requests put the median latency inside one size class
# instead of on the step between two.
SWEEP_GROUP = (("edge", 13), ("edge", 14), ("edge", 15), ("vertex", 14),
               ("edge", 16), ("edge", 15), ("edge", 15), ("vertex", 16))


# The middle 40% or so of ``scan_work`` for each player kind, measured on
# 120 graphs per size: it keeps the cost of a size class steady across seeds.
SCAN_BAND = {"edge": (0.55, 0.80), "vertex": (0.055, 0.095)}


def sweep_graph(rng: random.Random, kind: str, size: int, scale: float):
    """A random graph over {a, b, c} with ``size`` endogenous edges (plus 3
    exogenous) on 7 vertices, or ``size`` vertices with twice as many edges,
    and a binding of ``SWEEP_QUERY`` that needs the players.  At full scale
    its ``scan_work`` lies inside ``SCAN_BAND``."""
    if kind == "edge":
        vs = [f"v{i}" for i in range(_scaled(7, scale, 4))]
        make = lambda: "\n".join(_edge_lines(rng, vs, size, 3, "abc")) + "\n"
    else:
        vs = [f"w{i}" for i in range(size)]
        make = lambda: "".join(f"v {v} n\n" for v in vs) + "\n".join(
            _edge_lines(rng, vs, 2 * size, 0, "abc")) + "\n"
    band = SCAN_BAND[kind] if scale == 1 else None
    return _random_explainable(rng, make, SWEEP_QUERY, kind, band)


def sweep_request(name: str, kind: str, mu: dict[str, str], check: dict) -> Request:
    argv = shapley_argv(name, SWEEP_QUERY, mu, "--mode", "exact", "--format", "json", "--player-kind", kind)
    return Request(argv, name, {"kind": "exact", "sum": 1, **check})


def _subset_sweep(rng: random.Random, seed: int, scale: float) -> InstanceSet:
    """Exact subset enumeration, all players: a pass is three
    ``SWEEP_GROUP``s, every graph distinct.  Three small instances go to the
    oracle."""
    graphs: dict[str, str] = {}
    requests: list[Request] = []
    for _ in range(3):
        for kind, size in SWEEP_GROUP:
            name = f"sweep-{len(requests):02d}.graph"
            graphs[name], mu = sweep_graph(rng, kind, _scaled(size, scale, 3), scale)
            requests.append(sweep_request(name, kind, mu, {}))
    checks: list[Request] = []
    for kind, size in (("edge", 8), ("edge", 9), ("vertex", 8)):
        name = f"sweep-check{len(checks)}.graph"
        graphs[name], mu = sweep_graph(rng, kind, size, scale)
        checks.append(sweep_request(name, kind, mu, {"oracle": True}))
    graphs["running.graph"] = RUNNING_EXAMPLE
    warmup = [
        Request(shapley_argv("running.graph", "(x, a b c, y)", {"x": "v1", "y": "v6"},
                             "--mode", "exact", "--format", "json", "--player-kind", kind),
                "running.graph")
        for kind in ("edge", "vertex")
    ]
    return InstanceSet("subset-sweep", seed, graphs, requests, warmup, checks)


# --- poly-fan --------------------------------------------------------------------

def fan_text(branches: int, loops: bool, names: list[str]) -> str:
    """``s -a-> m_i -b-> t`` for every branch plus ``s -c-> t``; with loops,
    ``s -a-> s`` and ``t -b-> t`` too.  ``s -a-> s -c-> t`` then overlaps the
    direct ``c`` match, which forces the component fallback."""
    lines = ["s c t n"]
    for m in names[:branches]:
        lines += [f"s a {m} n", f"{m} b t n"]
    if loops:
        lines += ["s a s n", "t b t n"]
    return "\n".join(lines) + "\n"


def _poly_fan(rng: random.Random, seed: int, scale: float) -> InstanceSet:
    """Exact-poly requests on fans of 10-20 branches, each size once with
    and once without the self-loops; the seed names the branch vertices and
    orders the fans."""
    sizes = sorted({_scaled(k, scale, 1) for k in range(10, 21)})
    fans = [(k, loops) for k in sizes for loops in (False, True)]
    rng.shuffle(fans)
    graphs: dict[str, str] = {}
    requests: list[Request] = []
    for i, (k, loops) in enumerate(fans):
        names = [f"m{j}" for j in rng.sample(range(1000), k)]
        name = f"fan-{i:02d}.graph"
        graphs[name] = fan_text(k, loops, names)
        requests.append(Request(
            shapley_argv(name, FAN_QUERY, {"x": "s", "y": "t"}, "--mode", "exact", "--format", "json"),
            name,
            {"kind": "exact", "sum": 1, "fan": k},
        ))
    checks: list[Request] = []
    for k, loops in ((2, False), (2, True), (3, False), (3, True)):
        name = f"fan-check-{k}{'-loops' if loops else ''}.graph"
        graphs[name] = fan_text(k, loops, [f"m{j}" for j in range(k)])
        checks.append(Request(
            shapley_argv(name, FAN_QUERY, {"x": "s", "y": "t"}, "--mode", "exact", "--format", "json"),
            name,
            {"kind": "exact", "sum": 1, "fan": k, "oracle": True},
        ))
    graphs["fan-warmup.graph"] = fan_text(3, True, ["m0", "m1", "m2"])
    warmup = [Request(
        shapley_argv("fan-warmup.graph", FAN_QUERY, {"x": "s", "y": "t"}, "--mode", "exact",
                     "--format", "json"),
        "fan-warmup.graph",
    )]
    return InstanceSet("poly-fan", seed, graphs, requests, warmup, checks)


# --- mc-sampled ------------------------------------------------------------------

MC_ADDITIVE = {"eps": 0.05, "delta": 0.05}
# the chain query (x, a b c, y) has words of length at most 3
MC_MULTIPLICATIVE = {"eps": 0.5, "delta": 0.05, "max_word": 3}


def _mc_sampled(rng: random.Random, seed: int, scale: float) -> InstanceSet:
    """Twelve groups of three sampled requests, all players, each with its
    own sampler seed: the running example (additive), the 3-edge chain
    (multiplicative) and a 14-edge random graph (additive; four distinct
    graphs in rotation)."""
    graphs = {"running.graph": RUNNING_EXAMPLE, "chain3.graph": CHAIN3}
    randoms: list[tuple[str, dict[str, str]]] = []
    for i in range(4):
        name = f"mc-random{i}.graph"
        graphs[name], mu = sweep_graph(rng, "edge", _scaled(14, scale, 3), scale)
        randoms.append((name, mu))

    def sampled(name, qtext, mu, mode, params, sampler_seed):
        argv = shapley_argv(name, qtext, mu, "--mode", mode, "--eps", repr(params["eps"]),
                            "--delta", repr(params["delta"]), "--seed", str(sampler_seed),
                            "--format", "json")
        return Request(argv, name, {"kind": mode, "seed": sampler_seed, **params})

    requests: list[Request] = []
    for b in range(12):
        name, mu = randoms[b % len(randoms)]
        requests += [
            sampled("running.graph", "(x, a b c, y)", {"x": "v1", "y": "v6"},
                    "approx-additive", MC_ADDITIVE, rng.randrange(1, 2**31)),
            sampled("chain3.graph", "(x, a b c, y)", {"x": "u1", "y": "u4"},
                    "approx-multiplicative", MC_MULTIPLICATIVE, rng.randrange(1, 2**31)),
            sampled(name, SWEEP_QUERY, mu, "approx-additive", MC_ADDITIVE, rng.randrange(1, 2**31)),
        ]
    warmup = [
        sampled("chain3.graph", "(x, a b c, y)", {"x": "u1", "y": "u4"},
                "approx-multiplicative", MC_MULTIPLICATIVE, 1),
        sampled("chain3.graph", "(x, a b c, y)", {"x": "u1", "y": "u4"},
                "approx-additive", MC_ADDITIVE, 1),
    ]
    return InstanceSet("mc-sampled", seed, graphs, requests, warmup)


# --- explain-answers -------------------------------------------------------------

# (file, query, vertices, edges, endogenous edges, answer band, non-exogenous band)
_ANSWER_GRAPHS = (
    ("answers-1.graph", ANSWERS_QUERY_1, 30, 90, 10, (405, 415), (62, 66)),
    ("answers-2.graph", ANSWERS_QUERY_2, 40, 140, 10, (295, 305), (62, 66)),
)


def _explain_answers(rng: random.Random, seed: int, scale: float) -> InstanceSet:
    """The explain-every-answer flow on two graphs: one ``answers`` request,
    then one exact JSON report per answer it lists.

    Each graph's structure is drawn once, from a constant seed, and redrawn
    until the answer count, and the count of answers the exogenous edges
    alone do not give, fall in narrow bands.  The workload seed renames its
    vertices and orders its lines.  With the structure drawn per seed, the
    search work of the ~128 full reports varied so much that over ten seeds
    the IQR/median of the tail latency was 0.34 and of the throughput 0.17."""
    graphs: dict[str, str] = {}
    requests: list[Request] = []
    checks: list[Request] = []
    for name, qtext, n_vertices, n_edges, n_endo, band, nonexo_band in _ANSWER_GRAPHS:
        n_vertices = _scaled(n_vertices, scale, 4)
        n_edges = _scaled(n_edges, scale, 8)
        n_endo = _scaled(n_endo, scale, 3)
        if scale < 1:
            band, nonexo_band = (1, 10**9), (1, 10**9)
        structure = random.Random(f"perfbench:explain-answers:{name}")
        vs = [f"n{i}" for i in range(n_vertices)]
        while True:
            edges = _edge_lines(structure, vs, n_edges, 0, "abc")
            g = graph_mod.load_graph("\n".join(edges) + "\n" + "".join(f"v {v} n\n" for v in vs))
            q = query_mod.compile_crpq(qtext, g.alphabet)
            if band[0] <= len(query_mod.enumerate_answers(g, q)) <= band[1]:
                break
        while True:
            endo = set(structure.sample(range(n_edges), n_endo))
            lines = [f"v {v} n" for v in vs]
            lines += [e[:-1] + ("n" if i in endo else "x") for i, e in enumerate(edges)]
            g = graph_mod.load_graph("\n".join(lines) + "\n")
            answers = query_mod.enumerate_answers(g, q)
            exo_answers = set(query_mod.enumerate_answers(graph_mod.edge_subgraph(g, ()), q))
            if nonexo_band[0] <= sum(a not in exo_answers for a in answers) <= nonexo_band[1]:
                break
        rename = dict(zip(vs, (f"n{i}" for i in rng.sample(range(1000), n_vertices))))
        lines = [" ".join(rename.get(word, word) for word in line.split()) for line in lines]
        rng.shuffle(lines)
        text = "\n".join(lines) + "\n"
        g = graph_mod.load_graph(text)
        answers = query_mod.enumerate_answers(g, q)
        exo_answers = set(query_mod.enumerate_answers(graph_mod.edge_subgraph(g, ()), q))
        nonexo = [a for a in answers if a not in exo_answers]
        graphs[name] = text
        requests.append(Request(
            ("answers", "--graph", name, "--query", qtext, "--cap", "100000"),
            name,
            {"kind": "answers", "variables": list(q.variables),
             "answers": [list(a) for a in answers],
             "explain": ["--mode", "exact", "--format", "json"]},
        ))
        mu = dict(zip(q.variables, nonexo[0]))
        checks.append(Request(
            shapley_argv(name, qtext, mu, "--mode", "exact", "--format", "json"),
            name,
            {"kind": "exact", "oracle": True},
        ))
    graphs["running.graph"] = RUNNING_EXAMPLE
    warmup = [
        Request(("answers", "--graph", "running.graph", "--query", ANSWERS_QUERY_2, "--cap", "100000"),
                "running.graph"),
        Request(shapley_argv("running.graph", ANSWERS_QUERY_1, {"x": "v1", "y": "v6"},
                             "--mode", "exact", "--format", "json"), "running.graph"),
    ]
    return InstanceSet("explain-answers", seed, graphs, requests, warmup, checks)


_GENERATORS = {
    "subset-sweep": _subset_sweep,
    "poly-fan": _poly_fan,
    "mc-sampled": _mc_sampled,
    "explain-answers": _explain_answers,
}
