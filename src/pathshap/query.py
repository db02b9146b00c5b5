"""RPQ and CRPQ evaluation over labeled graphs.

Atom evaluation is reachability over the product of the graph and the
atom's DFA, by one search over per-vertex out-lists that carry a need mask
per edge: the same loop evaluates the query on the whole graph, on a
filtered graph and on every coalition of an edge or vertex game, and
``lineage`` searches the same lists for a game's minimal winning masks.  A
pair (u, u) answers an atom whose language contains the empty word via the
empty path.
"""

from __future__ import annotations

import functools
import heapq
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import automata, regex as rx
from .automata import Dfa, LanguageProfile
from .errors import EnumerationOverflow, QuerySyntaxError, UnknownVertex
from .game import minimal_masks, spend
from .graph import Edge, LabeledGraph

# Most answers (and intermediate join rows) enumerate_answers will produce.
ANSWER_CAP = 100_000


class RpqAtom(NamedTuple):
    source_var: str
    dfa: Dfa
    target_var: str
    profile: LanguageProfile
    text: str = ""


class Crpq(NamedTuple):
    variables: tuple[str, ...]
    atoms: tuple[RpqAtom, ...]


class Assignment(NamedTuple):
    binding: dict[str, str]

    def __getitem__(self, var: str) -> str:
        return self.binding[var]


def parse_crpq_text(text: str) -> list[tuple[str, str, str]]:
    """Split '(x, a*, y) & (y, b c, z)' into (source_var, regex, target_var) triples."""
    if not text.strip():
        raise QuerySyntaxError("query must have at least one atom")
    chunks = []
    depth = begin = 0
    for i, c in enumerate(text + "&"):  # the sentinel & ends the last chunk
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise QuerySyntaxError("unbalanced parentheses in query")
        elif c == "&" and not depth:
            chunks.append(text[begin:i].strip())
            begin = i + 1
    if depth:
        raise QuerySyntaxError("unbalanced parentheses in query")
    atoms = []
    for chunk in chunks:
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise QuerySyntaxError(f"atom must be parenthesized: {chunk!r}")
        body = chunk[1:-1]
        first = body.find(",")
        last = body.rfind(",")
        if first < 0 or first == last:
            raise QuerySyntaxError(f"atom needs two commas: {chunk!r}")
        src = body[:first].strip()
        expr = body[first + 1:last].strip()
        dst = body[last + 1:].strip()
        if not src.isidentifier() or not dst.isidentifier():
            raise QuerySyntaxError(f"bad variable name in atom {chunk!r}")
        if not expr:
            raise QuerySyntaxError(f"empty expression in atom {chunk!r}")
        atoms.append((src, expr, dst))
    return atoms


# Most (query text, graph alphabet) pairs compile_crpq keeps compiled.
COMPILE_MEMO = 256


def compile_crpq(text: str, graph_alphabet: Iterable[str]) -> Crpq:
    """Parse and compile a query; the alphabet is the union of the graph's
    labels and the labels mentioned by the query.  The result is memoized
    on (text, graph alphabet), so repeated calls share one read-only
    ``Crpq``; a query that fails to compile is not memoized.  The parser
    and the compiler recurse on the tree, so a query that nests past the
    interpreter's recursion limit is a syntax error."""
    try:
        return _compile(text, frozenset(graph_alphabet))
    except RecursionError:
        raise QuerySyntaxError("query nests too deeply") from None


@functools.lru_cache(maxsize=COMPILE_MEMO)
def _compile(text: str, graph_alphabet: frozenset[str]) -> Crpq:
    triples = parse_crpq_text(text)
    asts = [(src, rx.parse_regex(expr), expr, dst) for src, expr, dst in triples]
    alphabet = graph_alphabet
    for _, ast, _, _ in asts:
        alphabet |= rx.symbols_of(ast)
    variables: list[str] = []
    atoms: list[RpqAtom] = []
    for src, ast, expr, dst in asts:
        for var in (src, dst):
            if var not in variables:
                variables.append(var)
        dfa = automata.compile(ast, alphabet)
        atoms.append(RpqAtom(src, dfa, dst, automata.language_profile(dfa), expr))
    return Crpq(tuple(variables), tuple(atoms))


def parse_binding(text: str, q: Crpq) -> Assignment:
    """Parse 'x=v1,y=v2' and check it is total on the query's variables."""
    binding: dict[str, str] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise QuerySyntaxError(f"binding piece {piece!r} is not var=vertex")
        var, _, vertex = piece.partition("=")
        var, vertex = var.strip(), vertex.strip()
        if var in binding:
            raise QuerySyntaxError(f"variable {var} bound twice")
        binding[var] = vertex
    missing = set(q.variables) - set(binding)
    if missing:
        raise QuerySyntaxError(f"unbound variables: {sorted(missing)}")
    return Assignment(binding)


# --- evaluation ------------------------------------------------------------

# Per vertex, its out-edges as (need_mask, target, label).  The search takes
# an edge only when its need mask lies inside the coalition mask, so one list
# serves every coalition of a game; need 0 marks an edge that is always there.
OutLists = dict[str, list[tuple[int, str, str]]]


def out_lists(g: LabeledGraph, need: Callable[[Edge], int]) -> OutLists:
    return {v: [(need(e), e.target, e.label) for e in g.out_edges(v)] for v in g.vertices}


def _filtered(g: LabeledGraph, edge_ok: Optional[Callable[[str], bool]]) -> OutLists:
    """Out-lists for the evaluation at mask 0: a rejected edge needs a bit."""
    if edge_ok is None:
        return out_lists(g, lambda e: 0)
    return out_lists(g, lambda e: 0 if edge_ok(e.id) else 1)


def _accepting_reach(out: OutLists, s: str, d: Dfa, mask: int) -> Iterator[str]:
    """The product search: the vertex of every (vertex, state) pair reachable
    from (s, start) whose state accepts, each pair once, lazily."""
    moves = d.moves
    accepting = d.accepting
    missing = ~mask
    start = (s, d.start)
    if d.start in accepting:
        yield s
    seen = {start}
    stack = [start]
    while stack:
        v, q = stack.pop()
        step = moves[q]
        for need, target, label in out[v]:
            if need & missing:
                continue
            nq = step.get(label)
            if nq is not None:
                nxt = (target, nq)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
                    if nq in accepting:
                        yield target


def product_reach(g: LabeledGraph, atoms: list[tuple[str, str, Dfa]]) -> int:
    """The most product steps one valuation of the bound atoms takes: per
    atom, its start (vertex, state) pair and every edge of its product with
    g reachable from there."""
    total = len(atoms)
    for s, _, d in atoms:
        seen = {(s, d.start)}
        stack = [(s, d.start)]
        while stack:
            v, q = stack.pop()
            for e in g.out_edges(v):
                nq = d.moves[q].get(e.label)
                if nq is not None:
                    total += 1
                    if (e.target, nq) not in seen:
                        seen.add((e.target, nq))
                        stack.append((e.target, nq))
    return total


def bind_atoms(q: Crpq, mu: Assignment) -> list[tuple[str, str, Dfa]]:
    """(source vertex, target vertex, automaton) of every atom under mu."""
    return [(mu[a.source_var], mu[a.target_var], a.dfa) for a in q.atoms]


def holds_on_mask(out: OutLists, atoms: list[tuple[str, str, Dfa]], mask: int) -> bool:
    """The bound atoms all hold on the edges whose need mask lies inside ``mask``."""
    for s, t, d in atoms:
        if s == t and d.start in d.accepting:
            continue
        if t not in _accepting_reach(out, s, d, mask):
            return False
    return True


def lineage(out: OutLists, atoms: list[tuple[str, str, Dfa]], bound: int, budget: list[int]) -> list[int]:
    """The query's lineage, a monotone DNF: the minimal masks on which the
    bound atoms all hold, each with the ``bound`` bits, sorted by size; the
    pairwise unions of the atoms' terms.  The search spends ``budget`` (see
    ``game.spend``) on every edge, mask and term it visits."""
    terms = [bound]
    for s, t, d in atoms:
        if s == t and d.start in d.accepting:
            continue
        found = _atom_lineage(out, s, t, d, budget)
        spend(budget, len(terms) * len(found))
        terms = minimal_masks((a | b for a in terms for b in found), budget)
    return terms


def _atom_lineage(out: OutLists, s: str, t: str, d: Dfa, budget: list[int]) -> list[int]:
    """Semi-naive search of the product: each (vertex, state) pair keeps the
    antichain of the need masks of the walks reaching it from (s, start).
    Masks pop smallest first, so one still in its antichain is final and is
    pushed along each edge once; one a smaller mask superseded is dropped.
    An insert scans the antichain once, and rebuilds it only when the new
    mask lies inside one of its masks."""
    chains = {(s, d.start): [0]}
    work = [(0, 0, s, d.start)]
    while work:
        _, mask, v, q = heapq.heappop(work)
        spend(budget, len(chains[v, q]) + len(out[v]))
        if mask not in chains[v, q]:
            continue
        step = d.moves[q]
        for need, target, label in out[v]:
            nq = step.get(label)
            if nq is None:
                continue
            m = mask | need
            chain = chains.get((target, nq))
            if chain is None:
                chains[target, nq] = [m]
            else:
                spend(budget, len(chain))
                wider = False  # whether m lies inside a mask of the chain
                for c in chain:
                    joined = c | m
                    if joined == m:
                        break  # c lies inside m
                    wider = wider or joined == c
                else:
                    if wider:
                        chain[:] = [c for c in chain if c | m != c]
                    chain.append(m)
                    heapq.heappush(work, (m.bit_count(), m, target, nq))
                continue
            heapq.heappush(work, (m.bit_count(), m, target, nq))
    return minimal_masks((m for q in d.accepting for m in chains.get((t, q), ())), budget)


def _check_vertices(g: LabeledGraph, *vertices: str) -> None:
    """Raise ``UnknownVertex`` for the first of the vertices that g lacks."""
    for v in vertices:
        if v not in g.vertices:
            raise UnknownVertex(f"unknown vertex {v!r}")


def eval_rpq(g: LabeledGraph, s: str, t: str, d: Dfa) -> bool:
    """True iff some path from s to t (possibly empty) matches the automaton."""
    _check_vertices(g, s, t)
    return holds_on_mask(_filtered(g, None), [(s, t, d)], 0)


def eval_crpq_bound(
    g: LabeledGraph,
    q: Crpq,
    mu: Assignment,
    edge_ok: Optional[Callable[[str], bool]] = None,
) -> bool:
    """A fully bound conjunction decomposes atom-wise."""
    _check_vertices(g, *(mu[v] for v in q.variables))
    return holds_on_mask(_filtered(g, edge_ok), bind_atoms(q, mu), 0)


def atom_relation(g: LabeledGraph, d: Dfa) -> set[tuple[str, str]]:
    """All (s, t) pairs the atom connects, (s, s) by the empty path when it
    accepts the empty word; one product sweep per source."""
    out = _filtered(g, None)
    return {(s, v) for s in g.vertices for v in _accepting_reach(out, s, d, 0)}


def enumerate_answers(g: LabeledGraph, q: Crpq, cap: Optional[int] = None) -> list[tuple[str, ...]]:
    """All satisfying assignments as tuples in the query's variable order,
    sorted lexicographically; ``cap`` bounds the answers and intermediate
    rows, ``ANSWER_CAP`` as it reads when the call runs if None."""
    if cap is None:
        cap = ANSWER_CAP
    relations = [
        (atom.source_var, atom.target_var, atom_relation(g, atom.dfa))
        for atom in q.atoms
    ]
    relations.sort(key=lambda item: len(item[2]))
    partial: list[dict[str, str]] = [{}]
    for src, dst, rel in relations:
        grown: list[dict[str, str]] = []
        for row in partial:
            for s, t in rel:
                if src in row and row[src] != s:
                    continue
                if dst in row and row[dst] != t:
                    continue
                if src == dst and s != t:
                    continue
                nxt = dict(row)
                nxt[src] = s
                nxt[dst] = t
                grown.append(nxt)
                if len(grown) > cap:
                    raise EnumerationOverflow(f"more than {cap} intermediate rows")
        partial = grown
    answers = sorted({tuple(row[v] for v in q.variables) for row in partial})
    if len(answers) > cap:
        raise EnumerationOverflow(f"more than {cap} answers")
    return answers
