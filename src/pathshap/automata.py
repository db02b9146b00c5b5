"""Compilation of regex trees into trimmed DFAs and language analyses.

An atom compiles by the position construction (Glushkov; McNaughton and
Yamada): each symbol or ``.`` of the tree is a position, and the subset
construction runs over sets of positions.  That automaton has no
epsilon-moves, so no DFA state needs an epsilon-closure.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional

from . import regex as rx
from .errors import AlphabetMismatch


class LanguageProfile(NamedTuple):
    """Shape of a DFA's language, used to pick the right algorithm."""

    is_empty: bool
    is_finite: bool  # the empty language is finite
    max_word_length: Optional[int]  # None when empty or infinite


class Dfa:
    """Deterministic automaton trimmed to the states the product search can use.

    ``moves`` maps every kept state to its moves, symbol to next state; a
    move it lacks leads to rejection.  Every kept state other than the start
    is reachable from the start and reaches an accepting state; the start
    is kept with no moves when the language is empty.  Equal by identity.
    """

    __slots__ = ("start", "accepting", "moves", "alphabet")

    def __init__(self, start: int, accepting: frozenset[int], moves: dict[int, dict[str, int]],
                 alphabet: frozenset[str]):
        self.start = start
        self.accepting = accepting
        self.moves = moves
        self.alphabet = alphabet


# --- position construction -------------------------------------------------

def _positions(
    ast: rx.RegexAst, alphabet: frozenset[str], labels: list[frozenset[str]], follow: list[set[int]]
) -> tuple[bool, set[int], set[int]]:
    """Number each symbol or ``.`` of ast as a position, appending the
    symbols it matches to ``labels`` and its follow set to ``follow``, and
    fill in the follow sets of ast's positions.  Returns (nullable, first,
    last): whether ast matches the empty word, the positions that can read
    its first symbol and those that can read its last."""
    if isinstance(ast, (rx.Symbol, rx.AnySymbol)):
        if isinstance(ast, rx.AnySymbol):
            labels.append(alphabet)
        elif ast.label in alphabet:
            labels.append(frozenset((ast.label,)))
        else:
            raise AlphabetMismatch(f"symbol {ast.label!r} not in alphabet")
        follow.append(set())
        return False, {len(follow) - 1}, {len(follow) - 1}
    if isinstance(ast, (rx.EmptyLanguage, rx.Epsilon)):
        return isinstance(ast, rx.Epsilon), set(), set()
    if isinstance(ast, rx.Union):
        ln, lf, ll = _positions(ast.left, alphabet, labels, follow)
        rn, rf, rl = _positions(ast.right, alphabet, labels, follow)
        return ln or rn, lf | rf, ll | rl
    if isinstance(ast, rx.Concat):
        ln, lf, ll = _positions(ast.left, alphabet, labels, follow)
        rn, rf, rl = _positions(ast.right, alphabet, labels, follow)
        for p in ll:
            follow[p] |= rf
        return ln and rn, lf | rf if ln else lf, ll | rl if rn else rl
    if isinstance(ast, rx.Star):
        _, first, last = _positions(ast.inner, alphabet, labels, follow)
        for p in last:
            follow[p] |= first
        return True, first, last
    raise TypeError(f"unknown ast node {ast!r}")


def compile(ast: rx.RegexAst, alphabet: Iterable[str]) -> Dfa:
    """Compile a regex tree into a trimmed DFA over the given alphabet.

    A state is the set of positions that can have read the last symbol; a
    position is entered only by reading its symbol, so the set alone fixes
    what can follow and needs no epsilon-closure.  Its a-successor is the
    positions matching a in the set's follow sets, recorded only when that
    set is not empty.  The start state, numbered 0, holds only a sentinel
    position 0 whose follow set is the tree's ``first``, and a state accepts
    when it meets ``last``, which holds the sentinel when the tree matches
    the empty word.  Every state so built is reachable from the start; one
    backward pass then keeps those that reach an accepting state, and the
    start."""
    sigma = frozenset(alphabet)
    labels: list[frozenset[str]] = [frozenset()]
    follow: list[set[int]] = [set()]
    nullable, first, last = _positions(ast, sigma, labels, follow)
    follow[0] = first
    if nullable:
        last.add(0)

    numbering: dict[frozenset[int], int] = {frozenset((0,)): 0}
    moves: dict[int, dict[str, int]] = {}
    accepting: set[int] = set()
    worklist = deque(numbering)
    while worklist:
        current = worklist.popleft()
        cid = numbering[current]
        if not last.isdisjoint(current):
            accepting.add(cid)
        reads: dict[str, set[int]] = {}
        for p in current:
            for q in follow[p]:
                for a in labels[q]:
                    reads.setdefault(a, set()).add(q)
        moves[cid] = step = {}
        for a, positions in reads.items():
            target = frozenset(positions)
            if target not in numbering:
                numbering[target] = len(numbering)
                worklist.append(target)
            step[a] = numbering[target]

    predecessors: dict[int, list[int]] = {q: [] for q in moves}
    for q, step in moves.items():
        for nxt in step.values():
            predecessors[nxt].append(q)
    kept = set(accepting)
    frontier = list(accepting)
    while frontier:
        for p in predecessors[frontier.pop()]:
            if p not in kept:
                kept.add(p)
                frontier.append(p)
    kept.add(0)
    trimmed = {q: {a: nxt for a, nxt in step.items() if nxt in kept}
               for q, step in moves.items() if q in kept}
    return Dfa(0, frozenset(accepting), trimmed, sigma)


# --- language analyses -----------------------------------------------------

def language_profile(d: Dfa) -> LanguageProfile:
    """Emptiness, finiteness and longest word length, from one pass over
    the moves in Kahn's order.  The language is empty, and finite with no
    longest word, when no state accepts.  Otherwise every state is reached
    from the start and reaches an accepting state, so the language is
    infinite when the pass leaves some state unvisited, on a cycle, and
    finite with its longest word the longest path from the start to an
    accepting state when it does not."""
    if not d.accepting:
        return LanguageProfile(True, True, None)
    targets = {q: set(step.values()) for q, step in d.moves.items()}
    indegree = dict.fromkeys(d.moves, 0)
    for nexts in targets.values():
        for nxt in nexts:
            indegree[nxt] += 1
    longest = dict.fromkeys(d.moves, 0)
    ready = [q for q, n in indegree.items() if not n]
    visited = 0
    while ready:
        q = ready.pop()
        visited += 1
        for nxt in targets[q]:
            longest[nxt] = max(longest[nxt], longest[q] + 1)
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    if visited < len(d.moves):
        return LanguageProfile(False, False, None)
    return LanguageProfile(False, True, max(longest[q] for q in d.accepting))
