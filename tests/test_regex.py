import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathshap import automata
from pathshap import regex as rx
from pathshap.errors import AlphabetMismatch, RegexSyntaxError

from helpers import accepts, all_words, ast_matches, random_ast

ABC = frozenset("abc")


# --- parsing ----------------------------------------------------------------

def test_parse_concat_chain():
    assert rx.parse_regex("a b c") == rx.Concat(
        rx.Concat(rx.Symbol("a"), rx.Symbol("b")), rx.Symbol("c")
    )


def test_parse_letter_run_splits():
    assert rx.parse_regex("abc") == rx.parse_regex("a b c")


def test_parse_star_binds_tighter_than_concat():
    assert rx.parse_regex("a b*") == rx.Concat(rx.Symbol("a"), rx.Star(rx.Symbol("b")))


def test_parse_union_lowest_precedence():
    assert rx.parse_regex("a | b c") == rx.Union(
        rx.Symbol("a"), rx.Concat(rx.Symbol("b"), rx.Symbol("c"))
    )


def test_parse_parens_and_specials():
    assert rx.parse_regex("(a|b)*") == rx.Star(rx.Union(rx.Symbol("a"), rx.Symbol("b")))
    assert rx.parse_regex(".") == rx.AnySymbol()
    assert rx.parse_regex("@") == rx.Epsilon()
    assert rx.parse_regex("{}") == rx.EmptyLanguage()


def test_parse_digit_label_stays_whole():
    assert rx.parse_regex("rel1") == rx.Symbol("rel1")


@pytest.mark.parametrize("text,pos", [("a(*", 2), ("(a", 2), ("a)", 1), ("", 0), ("a |", 3)])
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(RegexSyntaxError) as exc:
        rx.parse_regex(text)
    assert exc.value.position == pos


def test_nodes_equal_by_type_and_fields():
    """Two nodes are equal when they are of one type with equal fields, and
    equal nodes hash alike: a union and a concatenation of the same parts
    differ, and so do the fieldless nodes."""
    a, b = rx.Symbol("a"), rx.Symbol("b")
    assert rx.Union(a, b) != rx.Concat(a, b) and rx.Concat(a, b) != rx.Union(a, b)
    assert rx.EmptyLanguage() != rx.Epsilon() and rx.Epsilon() != rx.AnySymbol()
    assert rx.Union(a, b) != rx.Union(b, a) and rx.Symbol("a") != "a"
    nodes = [rx.parse_regex(text) for text in ("a b", "a|b", "(a b)*", "{}", "@", ".", "rel1")]
    for node in nodes:
        twin = copy.deepcopy(node)
        assert twin is not node and twin == node and hash(twin) == hash(node)
    assert len(set(nodes + [rx.parse_regex("a b"), rx.parse_regex("a|b")])) == len(nodes)


def test_nodes_refuse_changes_and_keep_the_dataclass_repr():
    node = rx.parse_regex("a (b|.)* @ {}")
    assert repr(node) == (
        "Concat(left=Concat(left=Concat(left=Symbol(label='a'), right=Star(inner=Union(left=Symbol(label='b'), "
        "right=AnySymbol()))), right=Epsilon()), right=EmptyLanguage())"
    )
    for target, name in ((node, "left"), (node.left.left.left, "label"), (rx.Epsilon(), "label")):
        with pytest.raises(AttributeError):
            setattr(target, name, rx.Symbol("c"))
        with pytest.raises(AttributeError):
            delattr(target, name)
    assert repr(node.left.left.left) == "Symbol(label='a')"
    assert pickle.loads(pickle.dumps(node)) == node
    with pytest.raises(TypeError):
        rx.Union(rx.Symbol("a"))


def test_symbols_of_and_any():
    ast = rx.parse_regex("a (b | rel1)* .")
    assert rx.symbols_of(ast) == {"a", "b", "rel1"}


# --- compilation and acceptance ---------------------------------------------

def compiled(text, alphabet=ABC):
    return automata.compile(rx.parse_regex(text), alphabet)


def test_word_abc_accepts_only_abc():
    d = compiled("abc")
    assert accepts(d, ("a", "b", "c"))
    assert not accepts(d, ("a", "b"))
    assert not accepts(d, ("a", "b", "c", "c"))


def test_a_bstar_language():
    d = compiled("a b*")
    assert accepts(d, ("a",))
    assert accepts(d, ("a", "b", "b", "b"))
    assert not accepts(d, ())
    assert not accepts(d, ("b",))


def test_any_symbol_uses_declared_alphabet():
    d = compiled(".", alphabet={"a", "b"})
    assert accepts(d, ("a",)) and accepts(d, ("b",))
    assert not accepts(d, ("a", "b"))


def test_epsilon_and_empty_language():
    d = compiled("@")
    assert accepts(d, ())
    assert not accepts(d, ("a",))
    d = compiled("{}")
    assert not any(accepts(d, w) for w in all_words(ABC, 3))


def test_compile_rejects_foreign_symbols_and_accepts_an_empty_alphabet():
    with pytest.raises(AlphabetMismatch):
        automata.compile(rx.parse_regex("d"), ABC)
    with pytest.raises(AlphabetMismatch):
        automata.compile(rx.parse_regex("a"), frozenset())
    for text, words in (("@", {()}), (".*", {()}), ("{}", set()), ("@ | .", {()})):
        d = automata.compile(rx.parse_regex(text), frozenset())
        assert d.alphabet == frozenset() and d.moves == {d.start: {}}
        assert {w for w in ((), ("a",)) if accepts(d, w)} == words


def test_dfa_moves_stay_among_the_kept_states():
    d = compiled("(a|b)* c")
    for step in d.moves.values():
        assert set(step) <= d.alphabet
        assert set(step.values()) <= set(d.moves)
    assert d.start in d.moves and d.accepting <= set(d.moves)


@pytest.mark.parametrize("text,shape", [
    ("a b c", (4, 1)),
    ("(a|b)* c", (4, 1)),
    ("a b | a c | c", (5, 3)),
    ("a (b|c)*", (4, 3)),
    ("a b*", (3, 2)),
    ("c", (2, 1)),
    ("{}", (1, 0)),
    ("a*", (2, 2)),
    ("a* b", (3, 1)),
    ("(a|b|c)*", (4, 4)),
    (".*", (2, 2)),
    (". a .", (4, 1)),
    ("a (b c)* | @", (4, 3)),
    ("@", (1, 1)),
    ("a | b {}", (2, 1)),
])
def test_dfa_shapes(text, shape):
    """(kept states, accepting states) of each compiled atom: the product
    the search walks.  A change of construction that moves one changes
    every search over that atom.  The empty language keeps only its start."""
    d = compiled(text)
    assert (len(d.moves), len(d.accepting)) == shape


@given(st.lists(st.sampled_from("abc"), max_size=6))
@settings(max_examples=150, deadline=None)
def test_acceptance_matches_semantics_property(word_list):
    word = tuple(word_list)
    for text in ("a b* c | b", "(a|b)* c", ". a .", "a (b c)* | @"):
        ast = rx.parse_regex(text)
        assert accepts(compiled(text), word) == ast_matches(ast, word, ABC)


def test_random_asts_match_direct_semantics():
    rng = random.Random(2024)
    sigma = frozenset("ab")
    for _ in range(150):
        ast = random_ast(rng, sigma)
        d = automata.compile(ast, sigma)
        for w in all_words(sigma, 4):
            assert accepts(d, w) == ast_matches(ast, w, sigma), (ast, w)


def _closure(seeds, edges) -> set:
    """The states reachable from seeds along edges, a map of state to successors."""
    found = set(seeds)
    frontier = list(found)
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    return found


@given(st.randoms(use_true_random=False), st.sets(st.sampled_from("ab")), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_compiled_automaton_is_trimmed_and_exact(rng, sigma, depth):
    """Over alphabets down to the empty one, every kept state but the start
    is reachable and reaches acceptance, every move stays among the kept
    states, ``accepts`` agrees with the direct semantics on words that may
    hold the foreign symbol z (which ``.`` does not match), and the profile
    agrees with the accepted lengths below twice the state count."""
    sigma = frozenset(sigma)
    ast = random_ast(rng, sigma, depth)
    d = automata.compile(ast, sigma)
    assert d.start in d.moves and d.accepting <= set(d.moves)
    for step in d.moves.values():
        assert set(step) <= sigma and set(step.values()) <= set(d.moves)
    predecessors = {}
    for q, step in d.moves.items():
        for nxt in step.values():
            predecessors.setdefault(nxt, set()).add(q)
    forward = _closure((d.start,), {q: set(step.values()) for q, step in d.moves.items()})
    assert set(d.moves) - {d.start} <= forward & _closure(d.accepting, predecessors)
    for w in all_words(sigma | {"z"}, 4):
        assert accepts(d, w) == ast_matches(ast, w, sigma), (ast, w)
    # an n-state automaton accepts a word of length >= n only if it accepts
    # one of length in [n, 2n), and then infinitely many
    n = len(d.moves)
    lengths = {len(w) for w in all_words(sigma, 2 * n - 1) if accepts(d, w)}
    finite = all(k < n for k in lengths)
    longest = max(lengths) if finite and lengths else None
    assert automata.language_profile(d) == automata.LanguageProfile(not lengths, finite, longest), ast


# --- language profiles ------------------------------------------------------

def profile(text, alphabet=ABC):
    return automata.language_profile(compiled(text, alphabet))


def test_profile_finite_word():
    p = profile("abc")
    assert (p.is_empty, p.is_finite, p.max_word_length) == (False, True, 3)


def test_profile_short2():
    p = profile("a | b c")
    assert (p.is_empty, p.is_finite, p.max_word_length) == (False, True, 2)


def test_profile_infinite():
    p = profile("a b*")
    assert (p.is_empty, p.is_finite, p.max_word_length) == (False, False, None)


def test_profile_empty_language():
    # empty, and so finite, with no longest word
    for text in ("{}", "{} a", "a {}"):
        assert profile(text) == automata.LanguageProfile(True, True, None)


def test_profile_epsilon_only():
    p = profile("@")
    assert (p.is_empty, p.is_finite, p.max_word_length) == (False, True, 0)
    assert profile("{}*").max_word_length == 0  # star of empty is {epsilon}


def test_profile_of_a_word_longer_than_the_recursion_limit():
    n = 5000  # states 0..n in a chain of a-moves
    d = automata.Dfa(0, frozenset((n,)), {q: {"a": q + 1} for q in range(n)} | {n: {}}, frozenset("a"))
    assert automata.language_profile(d) == automata.LanguageProfile(False, True, n)


def test_profile_matches_brute_force_on_random_asts():
    rng = random.Random(99)
    sigma = frozenset("ab")
    for _ in range(100):
        ast = random_ast(rng, sigma, depth=2)
        d = automata.compile(ast, sigma)
        p = automata.language_profile(d)
        words = [w for w in all_words(sigma, 6) if accepts(d, w)]
        assert p.is_empty == (not words)
        if p.is_finite and p.max_word_length is not None:
            assert all(len(w) <= p.max_word_length for w in words)
            if words:
                assert max(len(w) for w in words) == p.max_word_length
