import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathshap import automata, explain, query
from pathshap import regex as rx
from pathshap.errors import BudgetExceeded, EnumerationOverflow, QuerySyntaxError, RegexSyntaxError, UnknownVertex
from pathshap.graph import load_graph

from helpers import accepts, path_oracle_eval, random_labeled_graph, reference_lineage

ABC = frozenset("abc")


def dfa(text, alphabet=ABC):
    return automata.compile(rx.parse_regex(text), alphabet)


# --- parsing ----------------------------------------------------------------

def test_parse_crpq_text_splits_atoms():
    triples = query.parse_crpq_text("(x, a b | c, y) & (y, b*, z)")
    assert triples == [("x", "a b | c", "y"), ("y", "b*", "z")]


def test_parse_crpq_text_parenthesized_expression():
    assert query.parse_crpq_text("(x, (a|b)*, y)") == [("x", "(a|b)*", "y")]


@pytest.mark.parametrize(
    "text",
    ["", "x, a, y", "(x, a)", "(x a y)", "(1x, a, y)", "(x, , y)", "((x, a, y)",
     "(x, a, y) &", "(x, a, y) & ", "(x, a, y)&"],
)
def test_parse_crpq_text_rejects(text):
    with pytest.raises(QuerySyntaxError):
        query.parse_crpq_text(text)


def test_compile_crpq_variables_in_order():
    q = query.compile_crpq("(x, a, y) & (y, b, z) & (x, c, z)", ABC)
    assert q.variables == ("x", "y", "z")
    assert len(q.atoms) == 3


def test_compile_crpq_extends_alphabet_with_query_symbols():
    q = query.compile_crpq("(x, d, y)", frozenset("a"))
    assert "d" in q.atoms[0].dfa.alphabet


def _counting_parses(monkeypatch) -> list[str]:
    """The texts ``compile_crpq`` splits into atoms from now on."""
    calls = []
    parse = query.parse_crpq_text
    monkeypatch.setattr(query, "parse_crpq_text", lambda text: calls.append(text) or parse(text))
    return calls


def test_compile_crpq_memo_returns_the_identical_query(monkeypatch):
    text = "(x, a b*, y) & (y, c, z)"
    first = query.compile_crpq(text, frozenset("abc"))
    calls = _counting_parses(monkeypatch)
    assert query.compile_crpq(text, {"c", "b", "a"}) is first
    assert query.compile_crpq(text, ["a", "b", "c"]) is first
    assert calls == []


def test_compile_crpq_memo_keys_on_the_alphabet():
    ab = query.compile_crpq("(x, ., y)", frozenset("ab"))
    abc = query.compile_crpq("(x, ., y)", frozenset("abc"))
    assert ab.atoms[0].dfa.alphabet == {"a", "b"} and abc.atoms[0].dfa.alphabet == {"a", "b", "c"}
    assert not accepts(ab.atoms[0].dfa, ["c"])
    assert accepts(abc.atoms[0].dfa, ["c"])


@pytest.mark.parametrize("text, error", [
    ("(x, a, y", QuerySyntaxError),
    ("(x, a, y) & (y, b", QuerySyntaxError),
    ("(x, a |, y)", RegexSyntaxError),
])
def test_compile_crpq_errors_are_raised_on_every_call(text, error, monkeypatch):
    calls = _counting_parses(monkeypatch)
    for _ in range(3):
        with pytest.raises(error):
            query.compile_crpq(text, ABC)
    assert calls == [text] * 3


def test_parse_binding():
    q = query.compile_crpq("(x, a, y)", ABC)
    mu = query.parse_binding("x=v1, y=v2", q)
    assert mu["x"] == "v1" and mu["y"] == "v2"
    with pytest.raises(QuerySyntaxError):
        query.parse_binding("x=v1", q)
    with pytest.raises(QuerySyntaxError):
        query.parse_binding("x=v1,x=v2,y=v3", q)
    with pytest.raises(QuerySyntaxError):
        query.parse_binding("x v1,y=v2", q)


# --- single-atom evaluation -------------------------------------------------

def test_eval_rpq_running_example(fig_graph):
    d = dfa("abc")
    assert query.eval_rpq(fig_graph, "v1", "v6", d)
    assert not query.eval_rpq(fig_graph, "v3", "v5", d)
    d = dfa("a b*")
    assert query.eval_rpq(fig_graph, "v1", "v6", d)
    assert not query.eval_rpq(fig_graph, "v3", "v5", d)
    d = dfa(".*")
    assert query.eval_rpq(fig_graph, "v1", "v6", d)
    assert not query.eval_rpq(fig_graph, "v3", "v1", d)


def test_eval_rpq_epsilon_self_answer(fig_graph):
    d = dfa("a*")
    assert query.eval_rpq(fig_graph, "v6", "v6", d)  # empty path
    assert not query.eval_rpq(fig_graph, "v6", "v5", d)


def test_eval_rpq_unknown_vertex(fig_graph):
    with pytest.raises(UnknownVertex):
        query.eval_rpq(fig_graph, "v1", "v99", dfa("a"))


def test_eval_rpq_edge_filter(fig_graph):
    q = query.compile_crpq("(x, abc, y)", fig_graph.alphabet)
    mu = query.parse_binding("x=v1,y=v6", q)
    allowed = {"v1->v3", "v3->v5"}
    assert not query.eval_crpq_bound(fig_graph, q, mu, edge_ok=allowed.__contains__)
    allowed = {"v1->v3", "v3->v5", "v5->v6"}
    assert query.eval_crpq_bound(fig_graph, q, mu, edge_ok=allowed.__contains__)


def test_eval_rpq_matches_path_enumeration_oracle():
    rng = random.Random(31)
    sigma = frozenset("ab")
    exprs = ["a b*", "(a|b) a", "a* b a*", ".* a", "a b a", "@ | a b"]
    for _ in range(60):
        g = random_labeled_graph(rng, rng.randint(2, 5), rng.randint(1, 8))
        text = rng.choice(exprs)
        ast = rx.parse_regex(text)
        d = automata.compile(ast, sigma)
        vs = sorted(g.vertices)
        s, t = rng.choice(vs), rng.choice(vs)
        expected = path_oracle_eval(g, s, t, d, ast=ast, alphabet=sigma)
        assert query.eval_rpq(g, s, t, d) == expected, (text, s, t)


# --- conjunctions -----------------------------------------------------------

def test_eval_crpq_bound_running_example(fig_graph):
    q = query.compile_crpq("(x1, a*, x2) & (x2, b*, x3)", fig_graph.alphabet)
    yes = query.parse_binding("x1=v1,x2=v2,x3=v6", q)
    no = query.parse_binding("x1=v1,x2=v3,x3=v6", q)
    assert query.eval_crpq_bound(fig_graph, q, yes)
    assert not query.eval_crpq_bound(fig_graph, q, no)


def test_eval_crpq_bound_is_atomwise(fig_graph):
    q = query.compile_crpq("(x, a, y) & (y, b c, z)", fig_graph.alphabet)
    mu = query.parse_binding("x=v1,y=v3,z=v6", q)
    assert query.eval_crpq_bound(fig_graph, q, mu)
    bad = query.parse_binding("x=v1,y=v2,z=v6", q)
    assert not query.eval_crpq_bound(fig_graph, q, bad)


def test_atom_relation(fig_graph):
    rel = query.atom_relation(fig_graph, dfa("abc"))
    assert rel == {("v1", "v6"), ("v4", "v6")}  # v4 -a-> v3 -b-> v5 -c-> v6
    rel = query.atom_relation(fig_graph, dfa("c"))
    assert rel == {("v5", "v6")}
    rel = query.atom_relation(fig_graph, dfa("@"))
    assert rel == {(v, v) for v in fig_graph.vertices}


def test_enumerate_answers_single_atom(fig_graph):
    q = query.compile_crpq("(x, a b*, y)", fig_graph.alphabet)
    answers = query.enumerate_answers(fig_graph, q)
    assert ("v1", "v6") in answers and ("v4", "v3") in answers
    assert ("v4", "v6") not in answers  # only word abc reaches v6 from v4
    assert answers == sorted(answers)


def test_enumerate_answers_join(fig_graph):
    q = query.compile_crpq("(x, a, y) & (y, b c, z)", fig_graph.alphabet)
    assert query.enumerate_answers(fig_graph, q) == [
        ("v1", "v3", "v6"),
        ("v4", "v3", "v6"),
    ]


def test_enumerate_answers_empty_join(fig_graph):
    q = query.compile_crpq("(x, c, y) & (y, c, z)", fig_graph.alphabet)
    assert query.enumerate_answers(fig_graph, q) == []


def test_enumerate_answers_matches_brute_force(fig_graph):
    q = query.compile_crpq("(x, a*, y) & (y, b*, z)", fig_graph.alphabet)
    expected = []
    vs = sorted(fig_graph.vertices)
    for x in vs:
        for y in vs:
            for z in vs:
                mu = query.Assignment({"x": x, "y": y, "z": z})
                if query.eval_crpq_bound(fig_graph, q, mu):
                    expected.append((x, y, z))
    assert query.enumerate_answers(fig_graph, q) == expected


def test_enumerate_answers_shared_endpoint_variable(fig_graph):
    q = query.compile_crpq("(x, a b, x)", fig_graph.alphabet)
    assert query.enumerate_answers(fig_graph, q) == []


def test_enumerate_answers_overflow(fig_graph):
    q = query.compile_crpq("(x, .*, y)", fig_graph.alphabet)
    with pytest.raises(EnumerationOverflow):
        query.enumerate_answers(fig_graph, q, cap=3)


def test_answers_monotone_under_edge_addition(fig_graph):
    q = query.compile_crpq("(x, a b*, y)", fig_graph.alphabet)
    smaller = load_graph(
        "\n".join(
            f"{e.source} {e.label} {e.target} n"
            for e in fig_graph.edges
            if e.id != "v2->v4"
        )
        + "\nv v4 n\n"
    )
    assert set(query.enumerate_answers(smaller, q)) <= set(
        query.enumerate_answers(fig_graph, q)
    )


# --- the lineage search against its scans ------------------------------------

LINEAGE_QUERIES = ["(x, a*, y)", "(x, (a|b)* b, y)", "(x, a b | a c | c, y)", "(x, .*, y)",
                   "(x, a, y) & (y, b*, z)", "(x, a*, x)"]


def _lineage_outcomes(g, q, mu, kind, steps):
    """The request's lineage and the budget left, from the search and from
    the scans, or where each ran out."""
    _, _, lineage = explain._request_game(g, q, mu, kind)
    outcomes = []
    for search in (lineage, lambda budget: reference_lineage(*lineage.args, budget)):
        budget = [steps]
        try:
            outcomes.append((search(budget), budget[0]))
        except BudgetExceeded:
            outcomes.append(("exhausted", budget[0]))
    return outcomes


@given(st.integers(0, 10**6), st.sampled_from(LINEAGE_QUERIES), st.sampled_from(["edge", "vertex"]),
       st.one_of(st.just(10**7), st.integers(0, 2000)))
@settings(max_examples=200, deadline=None)
def test_lineage_matches_the_scans(seed, qtext, kind, steps):
    """The search with its antichain inserts and minimal masks indexed
    finds the terms the scans find and charges their steps, to the step
    where the budget runs out: self-loops, exogenous edges and vertices,
    bound endogenous vertices and an empty-word atom included."""
    rng = random.Random(seed)
    g = random_labeled_graph(rng, rng.randint(2, 7), rng.randint(1, 18), labels="abc",
                             exo_prob=0.2, allow_self_loops=True, exo_vertex_prob=0.2)
    q = query.compile_crpq(qtext, g.alphabet)
    mu = query.Assignment({v: rng.choice(sorted(g.vertices)) for v in q.variables})
    first, second = _lineage_outcomes(g, q, mu, kind, steps)
    assert first == second


@pytest.mark.parametrize("steps", [10**7, 18, 20])
def test_lineage_drops_a_mask_a_smaller_one_supersedes(steps):
    """m -> p -> r and m -> q -> r reach r at the same size: the pop at p
    first stores {x->m, p->r}, then the exogenous q -> r brings {x->m},
    which replaces it in r's antichain."""
    g = load_graph("x a m n\nm a p x\nm a q x\np a r n\nq a r x\nr a y n\n")
    q = query.compile_crpq("(x, a*, y)", g.alphabet)
    first, second = _lineage_outcomes(g, q, query.parse_binding("x=x,y=y", q), "edge", steps)
    assert first == second
