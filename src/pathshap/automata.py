"""Compilation of regex trees into trimmed, total DFAs and language analyses."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import regex as rx
from .errors import AlphabetMismatch


@dataclass(frozen=True)
class LanguageProfile:
    """Shape of a DFA's language, used to pick the right algorithm."""

    is_empty: bool
    is_finite: bool
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


# --- Thompson construction -------------------------------------------------

class _Nfa:
    """Fragment automaton with epsilon moves; built once per compile call."""

    def __init__(self):
        self.count = 0
        self.eps: dict[int, set[int]] = {}
        self.moves: dict[tuple[int, str], set[int]] = {}

    def new_state(self) -> int:
        self.count += 1
        return self.count - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps.setdefault(a, set()).add(b)

    def add_move(self, a: int, symbol: str, b: int) -> None:
        self.moves.setdefault((a, symbol), set()).add(b)


def _build(nfa: _Nfa, ast: rx.RegexAst, alphabet: frozenset[str]) -> tuple[int, int]:
    """Return (entry, exit) states of the fragment for ast."""
    if isinstance(ast, rx.EmptyLanguage):
        return nfa.new_state(), nfa.new_state()
    if isinstance(ast, rx.Epsilon):
        s = nfa.new_state()
        t = nfa.new_state()
        nfa.add_eps(s, t)
        return s, t
    if isinstance(ast, rx.Symbol):
        if ast.label not in alphabet:
            raise AlphabetMismatch(f"symbol {ast.label!r} not in alphabet")
        s = nfa.new_state()
        t = nfa.new_state()
        nfa.add_move(s, ast.label, t)
        return s, t
    if isinstance(ast, rx.AnySymbol):
        s = nfa.new_state()
        t = nfa.new_state()
        for a in alphabet:
            nfa.add_move(s, a, t)
        return s, t
    if isinstance(ast, rx.Union):
        s = nfa.new_state()
        t = nfa.new_state()
        for side in (ast.left, ast.right):
            fs, ft = _build(nfa, side, alphabet)
            nfa.add_eps(s, fs)
            nfa.add_eps(ft, t)
        return s, t
    if isinstance(ast, rx.Concat):
        ls, lt = _build(nfa, ast.left, alphabet)
        rs, rt = _build(nfa, ast.right, alphabet)
        nfa.add_eps(lt, rs)
        return ls, rt
    if isinstance(ast, rx.Star):
        s = nfa.new_state()
        t = nfa.new_state()
        fs, ft = _build(nfa, ast.inner, alphabet)
        nfa.add_eps(s, fs)
        nfa.add_eps(ft, t)
        nfa.add_eps(s, t)
        nfa.add_eps(ft, fs)
        return s, t
    raise TypeError(f"unknown ast node {ast!r}")


def _eps_closure(nfa: _Nfa, states: frozenset[int]) -> frozenset[int]:
    closure = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for nxt in nfa.eps.get(q, ()):
            if nxt not in closure:
                closure.add(nxt)
                stack.append(nxt)
    return frozenset(closure)


def compile(ast: rx.RegexAst, alphabet: Iterable[str]) -> Dfa:
    """Compile a regex tree into a trimmed total DFA over the given alphabet."""
    sigma = frozenset(alphabet)
    if not sigma:
        raise AlphabetMismatch("alphabet must be nonempty")
    nfa = _Nfa()
    entry, exit_ = _build(nfa, ast, sigma)

    start_set = _eps_closure(nfa, frozenset((entry,)))
    numbering: dict[frozenset[int], int] = {frozenset(): 0}
    transition: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()

    def number_of(s: frozenset[int]) -> int:
        if s not in numbering:
            numbering[s] = len(numbering)
        return numbering[s]

    start = number_of(start_set)
    worklist = deque((start_set,))
    done = {frozenset(), start_set}
    if exit_ in start_set:
        accepting.add(start)
    while worklist:
        current = worklist.popleft()
        cid = number_of(current)
        for a in sigma:
            target = set()
            for q in current:
                target.update(nfa.moves.get((q, a), ()))
            target_set = _eps_closure(nfa, frozenset(target))
            tid = number_of(target_set)
            transition[(cid, a)] = tid
            if exit_ in target_set:
                accepting.add(tid)
            if target_set not in done:
                done.add(target_set)
                worklist.append(target_set)
    # total via the implicit dead state 0 (step() defaults to it)
    for a in sigma:
        transition.setdefault((0, a), 0)
    return Dfa(range(len(numbering)), sigma, transition, start, accepting)


# --- language analyses -----------------------------------------------------

def language_profile(d: Dfa) -> LanguageProfile:
    """Emptiness, finiteness and longest word length, from one pass over the
    useful subautomaton in Kahn's order.  Every useful state is reached from
    the start through useful states, so the language is empty when the
    start is not useful; otherwise it is infinite when the pass leaves some
    state unvisited, on a cycle, and finite with its longest word the
    longest path from the start to an accepting state when it does not."""
    if d.start not in d.useful:
        return LanguageProfile(True, False, None)
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
