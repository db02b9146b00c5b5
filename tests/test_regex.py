import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathshap import automata
from pathshap import regex as rx
from pathshap.errors import AlphabetMismatch, RegexSyntaxError

from helpers import all_words, ast_matches, random_ast

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
    assert automata.accepts(d, ("a", "b", "c"))
    assert not automata.accepts(d, ("a", "b"))
    assert not automata.accepts(d, ("a", "b", "c", "c"))


def test_a_bstar_language():
    d = compiled("a b*")
    assert automata.accepts(d, ("a",))
    assert automata.accepts(d, ("a", "b", "b", "b"))
    assert not automata.accepts(d, ())
    assert not automata.accepts(d, ("b",))


def test_any_symbol_uses_declared_alphabet():
    d = compiled(".", alphabet={"a", "b"})
    assert automata.accepts(d, ("a",)) and automata.accepts(d, ("b",))
    assert not automata.accepts(d, ("a", "b"))


def test_epsilon_and_empty_language():
    d = compiled("@")
    assert automata.accepts(d, ())
    assert not automata.accepts(d, ("a",))
    d = compiled("{}")
    assert not any(automata.accepts(d, w) for w in all_words(ABC, 3))


def test_compile_rejects_foreign_symbols_and_empty_alphabet():
    with pytest.raises(AlphabetMismatch):
        automata.compile(rx.parse_regex("d"), ABC)
    with pytest.raises(AlphabetMismatch):
        automata.compile(rx.parse_regex("a"), frozenset())


def test_dfa_is_deterministic_and_total():
    d = compiled("(a|b)* c")
    for q in d.states:
        for a in d.alphabet:
            assert d.step(q, a) in d.states


@pytest.mark.parametrize("text,shape", [
    ("a b c", (5, 4, 1)),
    ("(a|b)* c", (5, 4, 1)),
    ("a b | a c | c", (6, 5, 3)),
    ("a (b|c)*", (5, 4, 3)),
    ("a b*", (4, 3, 2)),
    ("c", (3, 2, 1)),
    ("{}", (2, 0, 0)),
    ("a*", (3, 2, 2)),
    ("a* b", (4, 3, 1)),
    ("(a|b|c)*", (5, 4, 4)),
    (".*", (3, 2, 2)),
    (". a .", (5, 4, 1)),
    ("a (b c)* | @", (5, 4, 3)),
    ("@", (2, 1, 1)),
])
def test_dfa_shapes(text, shape):
    """(states, useful states, accepting states) of each compiled atom: the
    product the search walks.  A change of construction that moves one
    changes every search over that atom."""
    d = compiled(text)
    assert (len(d.states), len(d.useful), len(d.accepting)) == shape


@given(st.lists(st.sampled_from("abc"), max_size=6))
@settings(max_examples=150, deadline=None)
def test_acceptance_matches_semantics_property(word_list):
    word = tuple(word_list)
    for text in ("a b* c | b", "(a|b)* c", ". a .", "a (b c)* | @"):
        ast = rx.parse_regex(text)
        assert automata.accepts(compiled(text), word) == ast_matches(ast, word, ABC)


def test_random_asts_match_direct_semantics():
    rng = random.Random(2024)
    sigma = frozenset("ab")
    for _ in range(150):
        ast = random_ast(rng, sigma)
        d = automata.compile(ast, sigma)
        for w in all_words(sigma, 4):
            assert automata.accepts(d, w) == ast_matches(ast, w, sigma), (ast, w)


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
    n = 5000  # states 1..n+1 in a chain of a-moves, state 0 dead
    d = automata.Dfa(range(n + 2), "a", {(q, "a"): q + 1 for q in range(1, n + 1)}, 1, [n + 1])
    assert automata.language_profile(d) == automata.LanguageProfile(False, True, n)


def test_profile_matches_brute_force_on_random_asts():
    rng = random.Random(99)
    sigma = frozenset("ab")
    for _ in range(100):
        ast = random_ast(rng, sigma, depth=2)
        d = automata.compile(ast, sigma)
        p = automata.language_profile(d)
        words = [w for w in all_words(sigma, 6) if automata.accepts(d, w)]
        assert p.is_empty == (not words)
        if p.is_finite and p.max_word_length is not None:
            assert all(len(w) <= p.max_word_length for w in words)
            if words:
                assert max(len(w) for w in words) == p.max_word_length
