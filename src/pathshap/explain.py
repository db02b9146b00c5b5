"""Edge and vertex contribution games over a graph/query/answer triple.

Builds the coalition games, runs the closed-form counter for single-atom
queries whose words have length at most two, provides the gap-based
multiplicative wrapper and the simple-path positivity test, and dispatches
between the exact, counting and sampling engines.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import game as game_mod
from .automata import Dfa, Word
from .errors import (
    BudgetExceeded,
    InfiniteLanguage,
    InvalidPlayerSet,
    NonDisjointStructure,
    NoPlayers,
    UnknownVertex,
)
from .game import CoalitionGame, SampledEstimate, ShapleyReport
from .graph import Edge, LabeledGraph
from .query import (
    Assignment,
    Crpq,
    OutLists,
    bind_atoms,
    eval_crpq_bound,
    holds_on_mask,
    out_lists,
)


@dataclass(frozen=True)
class ExplainRequest:
    graph: LabeledGraph
    query: Crpq
    binding: Assignment
    player_kind: str = "edge"  # edge | vertex
    focus: Optional[str] = None
    mode: str = "auto"  # auto | exact | approx-additive | approx-multiplicative
    eps: float = 0.05
    delta: float = 0.01
    seed: int = 0
    subset_cap: int = game_mod.SUBSET_CAP
    budget: int = 1_000_000


@dataclass(frozen=True)
class EdgeCategorization:
    permitted: frozenset[str]
    on_path1: frozenset[str]
    on_path2x: frozenset[str]
    on_path2e_pairs: frozenset[frozenset[str]]


@dataclass(frozen=True)
class GapBound:
    k_sum: int
    m_n: int
    gap: Fraction


@dataclass(frozen=True)
class MultiplicativeEstimate:
    """Additive estimate rounded down to zero below half the gap."""

    raw: SampledEstimate
    gap: Fraction
    eps: float  # requested multiplicative tolerance (after clamping)

    @property
    def value(self) -> Fraction:
        if self.raw.value < self.gap / 2:
            return Fraction(0)
        return self.raw.value

    @property
    def samples(self) -> int:
        return self.raw.samples

    @property
    def delta(self) -> float:
        return self.raw.delta

    @property
    def seed(self) -> int:
        return self.raw.seed


# --- game construction -----------------------------------------------------

def edge_game(g: LabeledGraph, q: Crpq, mu: Assignment) -> CoalitionGame:
    """Players are the endogenous edges; the valuation is the query on the
    coalition's edges together with the exogenous ones, baseline-shifted."""
    _check_binding(g, q, mu)
    players = sorted(g.endo_edges)
    bits = {p: 1 << i for i, p in enumerate(players)}
    out = out_lists(g, lambda e: bits.get(e.id, 0))
    return _mask_game(players, q, mu, out, 0)


def vertex_game(g: LabeledGraph, q: Crpq, mu: Assignment) -> CoalitionGame:
    """Vertex analogue: removing a vertex removes its incident edges, and a
    coalition missing a bound endogenous vertex is losing."""
    _check_binding(g, q, mu)
    players = sorted(g.endo_vertices)
    bits = {p: 1 << i for i, p in enumerate(players)}
    out = out_lists(g, lambda e: bits.get(e.source, 0) | bits.get(e.target, 0))
    bound = 0
    for var in q.variables:
        bound |= bits.get(mu[var], 0)
    return _mask_game(players, q, mu, out, bound)


def _mask_game(
    players: list[str], q: Crpq, mu: Assignment, out: OutLists, bound: int
) -> CoalitionGame:
    """The game whose coalition wins when it holds every bit of ``bound`` and
    the query holds on the edges whose need mask it covers; constant 0 when
    the empty coalition (the exogenous part alone) already wins."""
    atoms = bind_atoms(q, mu)
    if bound:
        holds = lambda mask: not bound & ~mask and holds_on_mask(out, atoms, mask)
    else:
        holds = functools.partial(holds_on_mask, out, atoms)
    if holds(0):
        return CoalitionGame(players, mask_valuation=lambda mask: 0)
    return CoalitionGame(players, mask_valuation=holds)


def _check_binding(g: LabeledGraph, q: Crpq, mu: Assignment) -> None:
    for var in q.variables:
        if mu[var] not in g.vertices:
            raise UnknownVertex(mu[var])


# --- short-word matching structure -----------------------------------------

def _short_words(words: Iterable[Word]) -> list[Word]:
    out = [w for w in words if 1 <= len(w) <= 2]
    if any(len(w) > 2 for w in words):
        raise ValueError("language contains a word longer than two symbols")
    return out


def _matching_paths(g: LabeledGraph, s: str, t: str, words: Iterable[Word]) -> list[tuple[Edge, ...]]:
    """All length-1 and length-2 paths from s to t whose word is in the
    language.  A self-loop traversed twice yields a one-edge length-2 path."""
    wordset = set(_short_words(words))
    paths: list[tuple[Edge, ...]] = []
    if s not in g.vertices or t not in g.vertices:
        raise UnknownVertex(s if s not in g.vertices else t)
    for e1 in g.out_edges(s):
        if e1.target == t and (e1.label,) in wordset:
            paths.append((e1,))
        for e2 in g.out_edges(e1.target):
            if e2.target == t and (e1.label, e2.label) in wordset:
                paths.append((e1, e2))
    return paths


def categorize_edges(g: LabeledGraph, s: str, t: str, words: Iterable[Word]) -> EdgeCategorization:
    """Classify endogenous edges by the matching short paths they sit on.

    Raises NonDisjointStructure whenever an endogenous edge participates in
    more than one matching path, or a self-loop sits on a length-2 match;
    the component-based counter handles those shapes instead.
    """
    paths = _matching_paths(g, s, t, words)
    on_path1: set[str] = set()
    on_path2x: set[str] = set()
    pairs: set[frozenset[str]] = set()
    occurrences: dict[str, int] = {}
    for path in paths:
        if len(path) == 2 and any(e.source == e.target for e in path):
            raise NonDisjointStructure("self-loop on a matching length-2 path")
        endo = [e.id for e in path if e.id in g.endo_edges]
        if not endo:
            continue  # completed by exogenous edges alone; handled by callers
        for eid in endo:
            occurrences[eid] = occurrences.get(eid, 0) + 1
        if len(path) == 1:
            on_path1.add(endo[0])
        elif len(endo) == 1:
            on_path2x.add(endo[0])
        else:
            pairs.add(frozenset(endo))
    clashing = sorted(e for e, n in occurrences.items() if n > 1)
    if clashing:
        raise NonDisjointStructure(f"edges on multiple matching paths: {clashing}")
    members = on_path1 | on_path2x | {e for p in pairs for e in p}
    return EdgeCategorization(
        permitted=g.endo_edges - members,
        on_path1=frozenset(on_path1),
        on_path2x=frozenset(on_path2x),
        on_path2e_pairs=frozenset(pairs),
    )


def count_blocking(c: EdgeCategorization, k: int) -> int:
    """Size-k endogenous subsets completing no match: avoid the always-bad
    categories and take at most one edge per endogenous pair."""
    if k < 0:
        return 0
    free = len(c.permitted)
    p = len(c.on_path2e_pairs)
    total = 0
    for i in range(k + 1):
        j = k - i
        total += math.comb(free, i) * math.comb(p, j) * (2 ** j)
    return total


def has_exogenous_match(g: LabeledGraph, s: str, t: str, words: Iterable[Word]) -> bool:
    return any(
        all(e.id in g.exo_edges for e in path)
        for path in _matching_paths(g, s, t, words)
    )


def count_enabling(g: LabeledGraph, s: str, t: str, words: Iterable[Word], k: int) -> int:
    """Size-k endogenous subsets that, with the exogenous edges, connect a
    matching path; complement counting against the closed form."""
    m_n = len(g.endo_edges)
    if k < 0 or k > m_n:
        return 0
    if has_exogenous_match(g, s, t, words):
        return math.comb(m_n, k)
    return math.comb(m_n, k) - count_blocking(categorize_edges(g, s, t, words), k)


# --- component-based fallback counter --------------------------------------

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _independent_set_counts(vertices: frozenset[str], adj: dict[str, frozenset[str]]) -> list[int]:
    """coeff[k] = number of independent size-k subsets of the given vertices."""
    memo: dict[frozenset[str], tuple[int, ...]] = {}

    def count(vs: frozenset[str]) -> tuple[int, ...]:
        if not vs:
            return (1,)
        cached = memo.get(vs)
        if cached is not None:
            return cached
        v = min(vs)
        without = count(vs - {v})
        with_v = count(vs - {v} - adj[v])
        res = list(without) + [0] * max(0, len(with_v) + 1 - len(without))
        for k, x in enumerate(with_v):
            res[k + 1] += x
        memo[vs] = tuple(res)
        return memo[vs]

    return list(count(vertices))


def blocking_structure(
    g: LabeledGraph, s: str, t: str, words: Iterable[Word]
) -> Optional[tuple[list[int], int]]:
    """Blocking-count polynomial and largest conflict-component size.

    Returns None when exogenous edges alone complete a match (nothing
    blocks).  Handles arbitrary overlap between matching paths by counting
    fixed-size independent sets in the conflict graph, component-wise.
    """
    paths = _matching_paths(g, s, t, words)
    forbidden: set[str] = set()
    pair_reqs: set[frozenset[str]] = set()
    for path in paths:
        endo = {e.id for e in path if e.id in g.endo_edges}
        if not endo:
            return None
        if len(endo) == 1:
            forbidden.add(next(iter(endo)))
        else:
            pair_reqs.add(frozenset(endo))
    pair_reqs = {p for p in pair_reqs if not p & forbidden}
    conflict_vertices = {e for p in pair_reqs for e in p}
    adj: dict[str, frozenset[str]] = {
        v: frozenset(w for p in pair_reqs if v in p for w in p if w != v)
        for v in conflict_vertices
    }
    free = len(g.endo_edges) - len(forbidden) - len(conflict_vertices)
    poly = [math.comb(free, i) for i in range(free + 1)]
    largest = 0
    for component in _components(conflict_vertices, adj):
        largest = max(largest, len(component))
        poly = _poly_mul(poly, _independent_set_counts(component, adj))
    return poly, largest


def _components(vertices: set[str], adj: dict[str, frozenset[str]]) -> list[frozenset[str]]:
    remaining = set(vertices)
    out = []
    while remaining:
        root = min(remaining)
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        remaining -= seen
        out.append(frozenset(seen))
    return out


def count_enabling_general(g: LabeledGraph, s: str, t: str, words: Iterable[Word], k: int) -> int:
    m_n = len(g.endo_edges)
    if k < 0 or k > m_n:
        return 0
    structure = blocking_structure(g, s, t, words)
    if structure is None:
        return math.comb(m_n, k)
    poly, _ = structure
    blocked = poly[k] if k < len(poly) else 0
    return math.comb(m_n, k) - blocked


# --- short-word exact Shapley ----------------------------------------------

def _reclassify_exogenous(g: LabeledGraph, eid: str) -> LabeledGraph:
    return LabeledGraph(g.vertices, g.edges, g.endo_edges - {eid}, g.endo_vertices)


def _delete_edge(g: LabeledGraph, eid: str) -> LabeledGraph:
    return LabeledGraph(
        g.vertices,
        (e for e in g.edges if e.id != eid),
        g.endo_edges - {eid},
        g.endo_vertices,
    )


def shapley_short_rpq(
    g: LabeledGraph,
    s: str,
    t: str,
    words: Iterable[Word],
    eid: str,
    counter: str = "closed",
) -> Fraction:
    """Exact value of an endogenous edge for a single short-word atom.

    Recombines per-size enabling counts of the two derived graphs (the edge
    made exogenous vs. deleted) under the permutation weight
    k!(m-k-1)!/m! with m the original endogenous count.  counter selects the
    closed form ("closed", raising NonDisjointStructure when its
    precondition fails) or the component-based one ("components").
    """
    if eid not in g.endo_edges:
        raise InvalidPlayerSet(f"{eid} is not an endogenous edge")
    wordlist = list(words)
    m_n = len(g.endo_edges)
    count = count_enabling if counter == "closed" else count_enabling_general
    g_exo = _reclassify_exogenous(g, eid)
    g_del = _delete_edge(g, eid)
    fact = [math.factorial(i) for i in range(m_n + 1)]
    total = Fraction(0)
    for k in range(m_n):
        diff = count(g_exo, s, t, wordlist, k) - count(g_del, s, t, wordlist, k)
        if diff:
            total += Fraction(fact[k] * fact[m_n - k - 1], fact[m_n]) * diff
    return total


# --- gap bound and multiplicative wrapper ----------------------------------

def gap_bound(q: Crpq, m_n: int) -> GapBound:
    """Smallest possible nonzero value for a finite-language query."""
    k_sum = 0
    for atom in q.atoms:
        if not atom.profile.is_finite:
            raise InfiniteLanguage(f"atom {atom.text!r} has an infinite language")
        if not atom.profile.is_empty:
            k_sum += atom.profile.max_word_length or 0
    denominator = 1
    for j in range(min(k_sum, m_n)):
        denominator *= m_n - j
    return GapBound(k_sum, m_n, Fraction(1, denominator))


def shapley_multiplicative(
    g: CoalitionGame,
    a: str,
    gb: GapBound,
    eps: float,
    delta: float,
    seed: int,
) -> MultiplicativeEstimate:
    """Multiplicative (1+eps) guarantee from the additive sampler: run it at
    tolerance gap*eps/(1+eps) and snap estimates below gap/2 to zero."""
    eps = min(eps, 0.99)
    eps_add = float(gb.gap) * eps / (1.0 + eps)
    raw = game_mod.shapley_mc(g, a, eps_add, delta, seed)
    return MultiplicativeEstimate(raw, gb.gap, eps)


# --- nonzero machinery -----------------------------------------------------

def edge_on_simple_path(
    g: LabeledGraph, s: str, t: str, eid: str, budget: int = 1_000_000
) -> bool:
    """Whether some vertex-simple path from s to t uses the edge.

    Exhaustive backtracking over the two path halves; exponential in the
    worst case, so a node budget caps the search.
    """
    e = g.edges_by_id.get(eid)
    if e is None:
        raise InvalidPlayerSet(f"unknown edge {eid}")
    for v in (s, t):
        if v not in g.vertices:
            raise UnknownVertex(v)
    if s == t or e.target == s or e.source == t:
        return False
    nodes_left = [budget]

    def spend() -> None:
        nodes_left[0] -= 1
        if nodes_left[0] < 0:
            raise BudgetExceeded("simple-path search budget exhausted")

    def to_target(v: str, visited: set[str]) -> bool:
        spend()
        if v == t:
            return True
        for edge in g.out_edges(v):
            if edge.target in visited:
                continue
            visited.add(edge.target)
            if to_target(edge.target, visited):
                return True
            visited.remove(edge.target)
        return False

    def to_edge(v: str, visited: set[str]) -> bool:
        spend()
        if v == e.source:
            visited.add(e.target)
            try:
                return to_target(e.target, visited)
            finally:
                visited.remove(e.target)
        for edge in g.out_edges(v):
            # the edge's target and the final target stay reserved for later
            if edge.target in visited or edge.target in (e.target, t):
                continue
            visited.add(edge.target)
            if to_edge(edge.target, visited):
                return True
            visited.remove(edge.target)
        return False

    return to_edge(s, {s})


def _atom_witness_paths(
    g: LabeledGraph, s: str, t: str, d: Dfa, budget: list[int]
) -> list[tuple[Edge, ...]]:
    """All accepting s-to-t paths with no repeated (vertex, state) pair.

    Cutting product-state cycles preserves acceptance and only removes
    edges, so these cover every minimal witness.
    """
    results: list[tuple[Edge, ...]] = []
    path: list[Edge] = []

    def walk(v: str, q: int, visited: set[tuple[str, int]]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("witness-path enumeration budget exhausted")
        if v == t and q in d.accepting:
            results.append(tuple(path))
        for edge in g.out_edges(v):
            nq = d.step(q, edge.label)
            if nq not in d.useful and nq not in d.accepting:
                continue
            key = (edge.target, nq)
            if key in visited:
                continue
            visited.add(key)
            path.append(edge)
            walk(edge.target, nq, visited)
            path.pop()
            visited.remove(key)

    walk(s, d.start, {(s, d.start)})
    return results


def candidate_supports(
    g: LabeledGraph,
    q: Crpq,
    mu: Assignment,
    player_kind: str = "edge",
    budget: int = 200_000,
) -> Iterator[frozenset[str]]:
    """Candidate winning coalitions: per atom, every product-simple matching
    path; across atoms, every combination.  Covers all minimal winning
    coalitions for both the edge and the vertex game."""
    _check_binding(g, q, mu)
    shared = [budget]
    per_atom: list[list[tuple[Edge, ...]]] = []
    for atom in q.atoms:
        paths = _atom_witness_paths(g, mu[atom.source_var], mu[atom.target_var], atom.dfa, shared)
        if not paths:
            return
        per_atom.append(paths)
    bound = {mu[v] for v in q.variables}
    seen: set[frozenset[str]] = set()
    for combo in itertools.product(*per_atom):
        if player_kind == "edge":
            support = frozenset(
                e.id for path in combo for e in path if e.id in g.endo_edges
            )
        else:
            touched = set(bound)
            for path in combo:
                for e in path:
                    touched.add(e.source)
                    touched.add(e.target)
            support = frozenset(touched & g.endo_vertices)
        if support not in seen:
            seen.add(support)
            yield support


# --- dispatcher ------------------------------------------------------------

def _players_of(req: ExplainRequest) -> list[str]:
    g = req.graph
    pool = g.endo_edges if req.player_kind == "edge" else g.endo_vertices
    return sorted(pool)


def _build_game(req: ExplainRequest) -> CoalitionGame:
    if req.player_kind == "edge":
        return edge_game(req.graph, req.query, req.binding)
    return vertex_game(req.graph, req.query, req.binding)


def _baseline_holds(req: ExplainRequest) -> bool:
    g, q, mu = req.graph, req.query, req.binding
    if req.player_kind == "edge":
        return eval_crpq_bound(g, q, mu, edge_ok=g.exo_edges.__contains__)
    keep = g.exo_vertices
    if not {mu[v] for v in q.variables} <= keep:
        return False
    edge_ok = lambda eid: (
        (e := g.edges_by_id[eid]).source in keep and e.target in keep
    )
    return eval_crpq_bound(g, q, mu, edge_ok=edge_ok)


def solve(req: ExplainRequest) -> ShapleyReport:
    """Pick the cheapest sound method for the request and run it."""
    if req.player_kind not in ("edge", "vertex"):
        raise ValueError(f"unknown player kind {req.player_kind!r}")
    if not (0 < req.delta < 1) or req.eps <= 0:
        raise ValueError("eps must be positive and delta must lie in (0, 1)")
    _check_binding(req.graph, req.query, req.binding)
    players = _players_of(req)
    if not players:
        raise NoPlayers(f"no endogenous {req.player_kind} players")
    if req.focus is not None and req.focus not in players:
        raise InvalidPlayerSet(f"{req.focus} is not an endogenous {req.player_kind}")
    targets = [req.focus] if req.focus is not None else players

    all_finite = all(a.profile.is_finite for a in req.query.atoms)
    if req.mode == "approx-multiplicative" and not all_finite:
        raise InfiniteLanguage("multiplicative approximation needs finite atom languages")

    flags: list[str] = []
    eps = req.eps
    if eps >= 1.0:
        # the wrapper's threshold argument needs eps < 1; additive estimates
        # with eps >= 1 are vacuous anyway
        eps = 0.99
        flags.append("eps-clamped")
    if any(a.profile.is_empty for a in req.query.atoms):
        flags.append("empty-language-atom")
        return ShapleyReport("exact-subset", {p: Fraction(0) for p in targets}, tuple(flags))
    if _baseline_holds(req):
        flags.append("answer-exogenous")
        return ShapleyReport("exact-subset", {p: Fraction(0) for p in targets}, tuple(flags))

    single_short2 = (
        req.player_kind == "edge"
        and len(req.query.atoms) == 1
        and req.query.atoms[0].profile.short2
        and not req.query.atoms[0].profile.is_empty
    )

    mode = req.mode
    if mode == "auto":
        if single_short2:
            mode = "exact-poly"
        elif len(players) <= req.subset_cap:
            mode = "exact-subset"
        elif all_finite:
            mode = "approx-multiplicative"
        else:
            mode = "approx-additive"
            flags.append("no-multiplicative-guarantee")
    elif mode == "exact":
        mode = "exact-poly" if single_short2 else "exact-subset"

    if mode == "exact-poly":
        return _solve_exact_poly(req, targets, flags)
    if mode == "exact-subset":
        game = _build_game(req)
        if req.focus is not None:
            values = {req.focus: game_mod.shapley_exact_subset(game, req.focus, req.subset_cap)}
        else:
            values = game_mod.shapley_exact_subset_all(game, req.subset_cap)
        return ShapleyReport("exact-subset", values, tuple(flags))
    if mode == "approx-additive":
        game = _build_game(req)
        values = {
            p: game_mod.shapley_mc(game, p, eps, req.delta, req.seed) for p in targets
        }
        return ShapleyReport("mc-additive", values, tuple(flags))
    if mode == "approx-multiplicative":
        gb = gap_bound(req.query, len(players))
        game = _build_game(req)
        values = {
            p: shapley_multiplicative(game, p, gb, eps, req.delta, req.seed)
            for p in targets
        }
        return ShapleyReport("mc-multiplicative", values, tuple(flags))
    raise ValueError(f"unknown mode {req.mode!r}")


def _solve_exact_poly(req: ExplainRequest, targets: list[str], flags: list[str]) -> ShapleyReport:
    from .automata import words_up_to

    atom = req.query.atoms[0]
    s = req.binding[atom.source_var]
    t = req.binding[atom.target_var]
    words = [w for w in words_up_to(atom.dfa, 2) if w]
    counter = "closed"
    values: dict[str, Fraction] = {}
    try:
        for p in targets:
            values[p] = shapley_short_rpq(req.graph, s, t, words, p, counter)
    except NonDisjointStructure:
        counter = "components"
        structure = blocking_structure(req.graph, s, t, words)
        largest = structure[1] if structure is not None else 0
        flags.append(f"non-disjoint-fallback:largest-component={largest}")
        values = {
            p: shapley_short_rpq(req.graph, s, t, words, p, counter) for p in targets
        }
    return ShapleyReport("exact-poly", values, tuple(flags))
