"""Independent oracles used to pin expected values.

Everything here recomputes results from first principles (direct language
semantics, path enumeration, simple-path search, subset enumeration, the
textbook subset-form Shapley sum, a sweep of every coalition counted by
size, per-player marginals over a permutation stream, the quadratic scans
the lineage search and counter indexed, the report through ``json.dumps``,
the graph loader as it parsed before it split each line once) so the tests
never trust the code paths they check.  ``Game`` is the one game in two
forms: the library's mask predicate, and a valuation on frozensets of
players for the textbook oracles; ``edge_game`` and ``vertex_game`` give a
request's baseline-shifted game in it, built on the request predicate,
which the tests check against the definition's subgraphs,
``graph.edge_subgraph`` from the library and ``vertex_subgraph`` from
here.  Three functions that only tests call live here, not in the
library: ``accepts`` (a word test on a compiled automaton), ``serialize``
(a graph writer) and ``vertex_subgraph``.  ``mc_estimates`` is the one
library composition kept here: the sampler on a bare game, which the
library runs only inside ``explain.solve``.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from pathshap import explain, game, regex as rx
from pathshap.automata import Dfa
from pathshap.errors import BudgetExceeded, EnumerationOverflow, InvalidPlayerSet, MalformedGraph
from pathshap.graph import Edge, LabeledGraph
from pathshap.query import Assignment, Crpq, _check_vertices

PERMUTATION_CAP = 9
SUBSET_CAP = 22


class Game:
    """A monotone 0/1 game: ``players`` in bit order and ``value``, a mask
    predicate (bit i = the i-th player), the form the library reads; and
    ``valuation``, the same game on frozensets of players."""

    def __init__(self, players, value):
        self.players = tuple(players)
        self.value = value

    @classmethod
    def of_sets(cls, players, valuation) -> "Game":
        """The game of a valuation on frozensets of players."""
        players = tuple(players)
        return cls(players, lambda mask: valuation(frozenset(p for i, p in enumerate(players) if mask >> i & 1)))

    def mask_of(self, coalition) -> int:
        return sum(1 << i for i, p in enumerate(self.players) if p in coalition)

    def valuation(self, coalition) -> int:
        return 1 if self.value(self.mask_of(coalition)) else 0


def edge_game(g: LabeledGraph, q: Crpq, mu: Assignment) -> Game:
    """Players are the endogenous edges; the valuation is the query on the
    coalition's edges together with the exogenous ones, baseline-shifted."""
    return _baseline_shifted(g, q, mu, "edge")


def vertex_game(g: LabeledGraph, q: Crpq, mu: Assignment) -> Game:
    """Vertex analogue: removing a vertex removes its incident edges, and a
    coalition missing a bound endogenous vertex is losing."""
    return _baseline_shifted(g, q, mu, "vertex")


def _baseline_shifted(g: LabeledGraph, q: Crpq, mu: Assignment, player_kind: str) -> Game:
    """The request's game, memoized, or constant 0 when the empty coalition
    (the exogenous part alone) already wins."""
    players, holds, _ = explain._request_game(g, q, mu, player_kind)
    return Game(players, game.memoized((lambda mask: 0) if holds(0) else holds))


def ast_matches(ast, word: tuple[str, ...], alphabet: frozenset[str]) -> bool:
    """Direct recursive language semantics of a regex tree."""
    if isinstance(ast, rx.EmptyLanguage):
        return False
    if isinstance(ast, rx.Epsilon):
        return word == ()
    if isinstance(ast, rx.Symbol):
        return word == (ast.label,)
    if isinstance(ast, rx.AnySymbol):
        return len(word) == 1 and word[0] in alphabet
    if isinstance(ast, rx.Union):
        return ast_matches(ast.left, word, alphabet) or ast_matches(ast.right, word, alphabet)
    if isinstance(ast, rx.Concat):
        return any(
            ast_matches(ast.left, word[:i], alphabet)
            and ast_matches(ast.right, word[i:], alphabet)
            for i in range(len(word) + 1)
        )
    if isinstance(ast, rx.Star):
        if word == ():
            return True
        return any(
            ast_matches(ast.inner, word[:i], alphabet)
            and ast_matches(ast, word[i:], alphabet)
            for i in range(1, len(word) + 1)
        )
    raise TypeError(ast)


def accepts(d: Dfa, word: Sequence[str]) -> bool:
    """True iff the word is in the automaton's language."""
    state = d.start
    for symbol in word:
        state = d.moves[state].get(symbol)
        if state is None:
            return False
    return state in d.accepting


def all_words(alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(sorted(alphabet), repeat=length)


def random_ast(rng: random.Random, alphabet, depth: int = 3):
    """A random tree of the given depth; with an empty alphabet, one without symbols."""
    choices = ["symbol", "symbol", "epsilon", "any", "empty"] if alphabet else ["epsilon", "any", "empty"]
    if depth > 0:
        choices += ["union", "concat", "concat", "star"]
    kind = rng.choice(choices)
    if kind == "symbol":
        return rx.Symbol(rng.choice(sorted(alphabet)))
    if kind == "epsilon":
        return rx.Epsilon()
    if kind == "any":
        return rx.AnySymbol()
    if kind == "empty":
        return rx.EmptyLanguage()
    if kind == "union":
        return rx.Union(random_ast(rng, alphabet, depth - 1), random_ast(rng, alphabet, depth - 1))
    if kind == "concat":
        return rx.Concat(random_ast(rng, alphabet, depth - 1), random_ast(rng, alphabet, depth - 1))
    return rx.Star(random_ast(rng, alphabet, depth - 1))


def words_of_paths(g: LabeledGraph, s: str, t: str, max_len: int):
    """Label words of all s-to-t walks of bounded length, by frontier iteration."""
    words = set()
    frontier = {(s, ())}
    if s == t:
        words.add(())
    for _ in range(max_len):
        nxt = set()
        for v, w in frontier:
            for e in g.out_edges(v):
                item = (e.target, w + (e.label,))
                nxt.add(item)
                if e.target == t:
                    words.add(item[1])
        frontier = nxt
    return words


def path_oracle_eval(g: LabeledGraph, s: str, t: str, dfa, ast=None, alphabet=None) -> bool:
    """Bounded walk enumeration checked against direct word acceptance."""
    bound = len(g.vertices) * len(dfa.moves)
    bound = min(bound, 12)  # keeps the enumeration feasible on dense graphs
    for word in words_of_paths(g, s, t, bound):
        if ast is not None:
            if ast_matches(ast, word, alphabet):
                return True
        elif accepts(dfa, word):
            return True
    return False


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
    _check_vertices(g, s, t)
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


def brute_shapley(players, valuation) -> dict[str, Fraction]:
    """Textbook subset-form Shapley sum over an explicit valuation."""
    players = list(players)
    n = len(players)
    values = {}
    for a in players:
        others = [p for p in players if p != a]
        total = Fraction(0)
        for size in range(n):
            for combo in itertools.combinations(others, size):
                b = frozenset(combo)
                weight = Fraction(
                    math.factorial(size) * math.factorial(n - size - 1),
                    math.factorial(n),
                )
                total += weight * (valuation(b | {a}) - valuation(b))
        values[a] = total
    return values


def shapley_exact_subset_all(g: Game, cap: int = SUBSET_CAP) -> dict[str, Fraction]:
    """Exact values of every player, from winning coalitions counted by size.

    With W(k) the size-k winning coalitions and W_a(k) those among them that
    contain a, phi(a) = sum_k k!(n-k-1)!/n! * (W_a(k+1) - (W(k) - W_a(k))):
    the size-k coalitions without a that win once a joins, minus those that
    win without a.  One sweep over the masks in increasing order fills a
    truth table, holding |mask| + 1 for a winning mask and 0 for a losing
    one; a mask whose lowest bit removed already wins needs no valuation,
    since the game is monotone.  The counts are integers and each value is
    one Fraction over n!.
    """
    n = len(g.players)
    if n > cap:
        raise EnumerationOverflow(f"{n} players exceeds subset enumeration cap {cap}")
    wins = g.value
    full = 1 << n
    table = bytearray(full)
    for mask in range(1, full):  # v(empty) = 0
        if table[mask & (mask - 1)] or wins(mask):
            table[mask] = mask.bit_count() + 1
    winning = [table.count(k + 1) for k in range(n + 1)]
    weights = [math.factorial(k) * math.factorial(n - k - 1) for k in range(n)]
    denominator = math.factorial(n)
    values = {}
    for i, p in enumerate(g.players):
        with_p = _masks_with_bit(table, 1 << i)
        containing = [0] + [with_p.count(k + 1) for k in range(1, n + 1)]
        total = sum(
            weights[k] * (containing[k + 1] - winning[k] + containing[k])
            for k in range(n)
        )
        values[p] = Fraction(total, denominator)
    return values


def _masks_with_bit(table: bytearray, bit: int) -> bytes:
    """The table entries of the masks that contain ``bit``, in some order:
    ``bit`` strided slices or len/(2 bit) runs, whichever are fewer."""
    step = 2 * bit
    if bit * bit < len(table):
        return b"".join(table[lo::step] for lo in range(bit, step))
    return b"".join(table[lo:lo + bit] for lo in range(bit, len(table), step))


def shapley_exact_permutation(g, a: str, cap: int = PERMUTATION_CAP) -> Fraction:
    """Permutation-form exact value of one player of a ``Game``."""
    return shapley_exact_permutation_all(g, cap)[a]


def shapley_exact_permutation_all(g, cap: int = PERMUTATION_CAP) -> dict[str, Fraction]:
    """Permutation-form exact values: each player's share of the n! orders
    in which its arrival turns the prefix from losing to winning."""
    n = len(g.players)
    if n > cap:
        raise EnumerationOverflow(f"{n} players exceeds permutation enumeration cap {cap}")
    counts = {p: 0 for p in g.players}
    bits = [1 << i for i in range(n)]
    for perm in itertools.permutations(range(n)):
        mask = 0
        previous = 0
        for i in perm:
            mask |= bits[i]
            current = g.value(mask)
            if current != previous:
                counts[g.players[i]] += current - previous
            previous = current
    total_perms = math.factorial(n)
    return {p: Fraction(c, total_perms) for p, c in counts.items()}


def mc_estimates(players, value, eps: float, delta: float, seed: int, support=None):
    """The sampler's estimates of every player of the game ``value`` (a
    mask predicate) at the Hoeffding count of (eps, delta):
    ``game.sample_pivots`` with the search pivot over the bits of
    ``support``, every player when None, or over none when ``support``
    loses.  No parameter check and no trial cap: ``explain.solve`` makes
    those decisions."""
    if support is None:
        support = (1 << len(players)) - 1
    return game.sample_pivots(players, game.search_pivot(value), support if value(support) else 0,
                              game.sample_count(eps, delta), eps, delta, seed)


def pivot_oracle_counts(players, valuation, trials: int, seed: int) -> dict[str, int]:
    """Every player's count of marginal-1 trials over the sampler's
    permutation stream (``game.sample_pivots``): ``random.Random(seed)``
    shuffles the player list in place once per trial.  Given the players
    of the sampler's support, in bit order, it counts the players that can
    pivot, as the sampler does.  Each player's marginal v(prefix | {a}) - v(prefix) is
    valued directly, in a linear scan."""
    order = list(players)
    counts = {p: 0 for p in order}
    rng = random.Random(seed)
    for _ in range(trials):
        rng.shuffle(order)
        for i, a in enumerate(order):
            prefix = frozenset(order[:i])
            counts[a] += valuation(prefix | {a}) - valuation(prefix)
    return counts


def random_monotone_game(rng: random.Random, players):
    """Random monotone 0/1 valuation given by random minimal winning sets."""
    players = list(players)
    n_sets = rng.randint(0, 4)
    winners = [
        frozenset(rng.sample(players, rng.randint(1, len(players))))
        for _ in range(n_sets)
    ]

    def valuation(coalition: frozenset[str]) -> int:
        return 1 if any(w <= coalition for w in winners) else 0

    return valuation


def random_labeled_graph(
    rng: random.Random,
    n_vertices: int,
    n_edges: int,
    labels=("a", "b"),
    exo_prob: float = 0.25,
    allow_self_loops: bool = False,
    exo_vertex_prob: float = 0.0,
) -> LabeledGraph:
    vertices = [f"u{i}" for i in range(n_vertices)]
    pairs = [
        (x, y)
        for x in vertices
        for y in vertices
        if allow_self_loops or x != y
    ]
    rng.shuffle(pairs)
    chosen = pairs[: min(n_edges, len(pairs))]
    edges = []
    endo = set()
    for src, dst in chosen:
        eid = f"{src}->{dst}"
        edges.append(Edge(eid, src, rng.choice(labels), dst))
        if rng.random() >= exo_prob:
            endo.add(eid)
    endo_vertices = vertices
    if exo_vertex_prob:
        endo_vertices = [v for v in vertices if rng.random() >= exo_vertex_prob]
    return LabeledGraph(vertices, edges, endo, endo_vertices)


def serialize(g: LabeledGraph) -> str:
    """Emit the graph in the same format load_graph accepts (sorted blocks)."""
    lines = []
    for v in sorted(g.vertices):
        tag = "n" if v in g.endo_vertices else "x"
        lines.append(f"v {v} {tag}")
    for e in g.edges:
        tag = "n" if e.id in g.endo_edges else "x"
        lines.append(f"{e.source} {e.label} {e.target} {tag}")
    return "\n".join(lines) + "\n"


def vertex_subgraph(g: LabeledGraph, coalition: Iterable[str]) -> LabeledGraph:
    """Induced subgraph on the coalition's vertices plus all exogenous vertices."""
    b = frozenset(coalition)
    bad = b - g.endo_vertices
    if bad:
        raise InvalidPlayerSet(f"not endogenous vertices: {sorted(bad)}")
    keep = b | g.exo_vertices
    edges = [e for e in g.edges if e.source in keep and e.target in keep]
    return LabeledGraph(
        keep,
        edges,
        {e.id for e in edges} & g.endo_edges,
        b,
    )


def reference_load_graph(text: str) -> LabeledGraph:
    """``graph.load_graph`` as it parsed before it split each line once:
    strip, then the comment test, then split.  Its parallel-edge check keys
    on the edge id, so it reports a pair whose id collides with another
    pair's as a parallel edge; texts for it hold no vertex name with
    ``->``."""
    vertices: set[str] = set()
    vertex_class: dict[str, str] = {}
    edges: list[Edge] = []
    seen_pairs: set[str] = set()
    endo_edges: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "v" and len(fields) != 4:
            if len(fields) != 3:
                raise MalformedGraph(f"line {lineno}: vertex line needs 'v <id> <n|x>'")
            _, vid, tag = fields
            if tag not in ("n", "x"):
                raise MalformedGraph(f"line {lineno}: unknown classification {tag!r}")
            if vertex_class.get(vid, tag) != tag:
                raise MalformedGraph(f"line {lineno}: vertex {vid} reclassified")
            vertex_class[vid] = tag
            vertices.add(vid)
        else:
            if len(fields) != 4:
                raise MalformedGraph(f"line {lineno}: edge line needs '<src> <label> <dst> <n|x>'")
            src, label, dst, tag = fields
            if tag not in ("n", "x"):
                raise MalformedGraph(f"line {lineno}: unknown classification {tag!r}")
            eid = f"{src}->{dst}"
            if eid in seen_pairs:
                raise MalformedGraph(f"line {lineno}: parallel edge for pair ({src}, {dst})")
            seen_pairs.add(eid)
            edges.append(Edge(eid, src, label, dst))
            if tag == "n":
                endo_edges.add(eid)
            vertices.update((src, dst))
    endo_vertices = {v for v in vertices if vertex_class.get(v, "n") == "n"}
    return LabeledGraph(vertices, edges, endo_edges, endo_vertices)


# --- the term-set work and the report, as scans and through json.dumps -------

def reference_minimal_masks(masks, budget: list[int]) -> list[int]:
    """``game.minimal_masks`` as a scan of every kept mask: the masks that
    contain no other of the masks, sorted by size, each spending a step per
    kept mask plus one."""
    out: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        game.spend(budget, 1 + len(out))
        if all(c | m != m for c in out):
            out.append(m)
    return out


def reference_term_components(terms: frozenset[int]) -> list[frozenset[int]]:
    """``game._term_components`` as a scan of every component found so far
    for each term.  An empty term would make an empty group, which
    ``game._compile`` never asks for."""
    components: list[int] = []  # the players of each
    for t in terms:
        near = [c for c in components if c & t]
        components = [c for c in components if not c & t] + [reduce(or_, near, t)]
    return [frozenset(t for t in terms if t & c) for c in components]


def reference_lineage(out, atoms, bound: int, budget: list[int]) -> list[int]:
    """``query.lineage`` with every antichain insert a scan of the chain
    and a rebuild of it, and ``reference_minimal_masks``."""
    terms = [bound]
    for s, t, d in atoms:
        if s == t and d.start in d.accepting:
            continue
        found = _reference_atom_lineage(out, s, t, d, budget)
        game.spend(budget, len(terms) * len(found))
        terms = reference_minimal_masks((a | b for a in terms for b in found), budget)
    return terms


def _reference_atom_lineage(out, s: str, t: str, d, budget: list[int]) -> list[int]:
    chains = {(s, d.start): [0]}
    work = [(0, 0, s, d.start)]
    while work:
        _, mask, v, q = heapq.heappop(work)
        game.spend(budget, len(chains[v, q]) + len(out[v]))
        if mask not in chains[v, q]:
            continue
        step = d.moves[q]
        for need, target, label in out[v]:
            nq = step.get(label)
            if nq is None:
                continue
            m = mask | need
            chain = chains.setdefault((target, nq), [])
            game.spend(budget, len(chain))
            if any(c | m == m for c in chain):
                continue
            chain[:] = [c for c in chain if c | m != c] + [m]
            heapq.heappush(work, (m.bit_count(), m, target, nq))
    return reference_minimal_masks((m for q in d.accepting for m in chains.get((t, q), ())), budget)


def reference_report(report: game.ShapleyReport, fmt: str) -> str:
    """A report as ``pathshap shapley --format fmt`` prints it, rows sorted
    on (-value, id) with Fraction values, and the JSON written by
    ``json.dumps(payload, indent=2, sort_keys=True)``."""
    rows = []
    for player, value in sorted(report.values.items(), key=lambda item: (-_exact(item[1]), item[0])):
        row = {"id": player}
        if isinstance(value, Fraction):
            row["value"] = str(value)
        else:
            row.update(value=float(value.value), eps=value.eps, delta=value.delta,
                       samples=value.samples, seed=value.seed)
        rows.append(row)
    if fmt == "json":
        payload = {"method": report.method, "players": rows, "flags": list(report.flags)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    for row in rows:
        row["method"] = report.method
    columns = ["id", "value", "method", "eps", "delta", "samples", "seed"]
    if not any("samples" in row for row in rows):
        columns = columns[:3]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        for flag in report.flags:
            writer.writerow(["# " + flag])
        return out.getvalue()
    out.write("\t".join(columns) + "\n")
    for row in rows:
        out.write("\t".join(str(row.get(c, "-")) for c in columns) + "\n")
    for flag in report.flags:
        out.write(f"# {flag}\n")
    return out.getvalue()


def _exact(value) -> Fraction:
    return value if isinstance(value, Fraction) else value.value
