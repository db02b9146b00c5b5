"""Compilation of regex trees into trimmed, total DFAs and language analyses.

An atom compiles by the position construction (Glushkov; McNaughton and
Yamada): each symbol or ``.`` of the tree is a position, and the subset
construction runs over sets of positions.  That automaton has no
epsilon-moves, so no DFA state needs an epsilon-closure.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from . import regex as rx
from .errors import AlphabetMismatch


class LanguageProfile(NamedTuple):
    """Shape of a DFA's language, used to pick the right algorithm."""

    is_empty: bool
    is_finite: bool  # the empty language is finite
    max_word_length: Optional[int]  # None when empty or infinite


class Dfa:
    """Deterministic automaton with a total transition function.

    State 0 is always the dead (absorbing, non-accepting) state.  ``useful``
    holds the states both reachable from the start and co-reachable to an
    accepting state; the dead state is never useful.  ``useful_moves`` keeps
    only the transitions into useful states, for the product search.
    """

    def __init__(
        self,
        states: Iterable[int],
        alphabet: Iterable[str],
        transition: dict[tuple[int, str], int],
        start: int,
        accepting: Iterable[int],
    ):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transition = dict(transition)
        self.start = start
        self.accepting = frozenset(accepting)
        self.useful = self._useful_states()
        # per state, the symbols that lead to a useful state, and where
        self.useful_moves: dict[int, dict[str, int]] = {q: {} for q in self.states}
        for (q, a), nxt in self.transition.items():
            if nxt in self.useful:
                self.useful_moves[q][a] = nxt

    def step(self, state: int, symbol: str) -> int:
        return self.transition.get((state, symbol), 0)

    def run(self, word: Sequence[str]) -> int:
        state = self.start
        for symbol in word:
            state = self.step(state, symbol)
        return state

    def _useful_states(self) -> frozenset[int]:
        reachable = {self.start}
        frontier = deque((self.start,))
        while frontier:
            q = frontier.popleft()
            for a in self.alphabet:
                nxt = self.step(q, a)
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        predecessors: dict[int, set[int]] = {q: set() for q in self.states}
        for (q, _a), nxt in self.transition.items():
            predecessors.setdefault(nxt, set()).add(q)
        co_reachable = set(self.accepting)
        frontier = deque(self.accepting)
        while frontier:
            q = frontier.popleft()
            for p in predecessors.get(q, ()):
                if p not in co_reachable:
                    co_reachable.add(p)
                    frontier.append(p)
        return frozenset((reachable & co_reachable) - {0})


def accepts(d: Dfa, word: Sequence[str]) -> bool:
    """True iff the word is in the automaton's language."""
    return d.run(word) in d.accepting


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
    """Compile a regex tree into a trimmed total DFA over the given alphabet.

    A state is the set of positions that can have read the last symbol; a
    position is entered only by reading its symbol, so the set alone fixes
    what can follow and needs no epsilon-closure.  Its a-successor is the
    positions matching a in the set's follow sets.  The start state is a
    sentinel position 0 whose follow set is the tree's ``first``, the empty
    set is the dead state 0, and a state accepts when it meets ``last``,
    which holds the sentinel when the tree matches the empty word."""
    sigma = frozenset(alphabet)
    if not sigma:
        raise AlphabetMismatch("alphabet must be nonempty")
    labels: list[frozenset[str]] = [frozenset()]
    follow: list[set[int]] = [set()]
    nullable, first, last = _positions(ast, sigma, labels, follow)
    follow[0] = first
    if nullable:
        last.add(0)

    start_set = frozenset((0,))
    numbering: dict[frozenset[int], int] = {frozenset(): 0, start_set: 1}
    transition: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    worklist = deque((start_set,))
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
        for a in sigma:
            target = frozenset(reads.get(a, ()))
            if target not in numbering:
                numbering[target] = len(numbering)
                worklist.append(target)
            transition[(cid, a)] = numbering[target]
    # total via the implicit dead state 0 (step() defaults to it)
    for a in sigma:
        transition.setdefault((0, a), 0)
    return Dfa(range(len(numbering)), sigma, transition, 1, accepting)


# --- language analyses -----------------------------------------------------

def language_profile(d: Dfa) -> LanguageProfile:
    """Emptiness, finiteness and longest word length, from one pass over the
    useful subautomaton in Kahn's order.  Every useful state is reached from
    the start through useful states, so the language is empty, and finite
    with no longest word, when the start is not useful; otherwise it is infinite when the pass leaves some
    state unvisited, on a cycle, and finite with its longest word the
    longest path from the start to an accepting state when it does not."""
    if d.start not in d.useful:
        return LanguageProfile(True, True, None)
    targets = {q: set(d.useful_moves[q].values()) for q in d.useful}
    indegree = dict.fromkeys(d.useful, 0)
    for nexts in targets.values():
        for nxt in nexts:
            indegree[nxt] += 1
    longest = dict.fromkeys(d.useful, 0)
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
    if visited < len(d.useful):
        return LanguageProfile(False, False, None)
    return LanguageProfile(False, True, max(longest[q] for q in d.accepting & d.useful))
