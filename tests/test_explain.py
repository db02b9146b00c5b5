import itertools
import math
import random
import sys
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathshap import explain, game, query
from pathshap.errors import (
    BudgetExceeded,
    InfiniteLanguage,
    InvalidPlayerSet,
    NoPlayers,
)
from pathshap.graph import edge_subgraph, load_graph

from conftest import RUNNING_EXAMPLE
from helpers import (
    Game,
    brute_shapley,
    edge_game,
    edge_on_simple_path,
    mc_estimates,
    pivot_oracle_estimates,
    random_labeled_graph,
    shapley_exact_subset_all,
    vertex_game,
    vertex_subgraph,
)

CHAIN3 = "u1 a u2 n\nu2 b u3 n\nu3 c u4 n\n"

# two overlapping short matches through self-loops: u1 -a-> u2 with a b-loop
# on u2 and a c-loop on u1; words {ab, ca} both need the middle edge
LOOPY = "u1 a u2 n\nu2 b u2 n\nu1 c u1 n\n"


def crpq(text, alphabet=frozenset("abc")):
    return query.compile_crpq(text, alphabet)


def bind(text, q):
    return query.parse_binding(text, q)


def request(graph, qtext, btext, **kw):
    q = crpq(qtext, graph.alphabet)
    return explain.ExplainRequest(graph, q, bind(btext, q), **kw)


# --- games ------------------------------------------------------------------

def test_edge_game_valuation(fig_graph):
    q = crpq("(x, a b c, y)")
    g = edge_game(fig_graph, q, bind("x=v1,y=v6", q))
    assert g.valuation(frozenset()) == 0
    assert g.valuation({"v1->v3", "v3->v5", "v5->v6"}) == 1
    assert g.valuation({"v1->v3", "v3->v5"}) == 0
    assert g.valuation(frozenset(fig_graph.endo_edges)) == 1


def test_edge_game_baseline_shift():
    g = load_graph("u1 a u2 x\nu2 b u3 x\nu1 b u3 n\n")
    q = crpq("(x, . .*, y)", g.alphabet)
    cg = edge_game(g, q, bind("x=u1,y=u3", q))
    # exogenous edges already answer the query: shifted game is identically 0
    assert cg.valuation({"u1->u3"}) == 0


def test_vertex_game_valuation(fig_graph):
    q = crpq("(x, a b c, y)")
    g = vertex_game(fig_graph, q, bind("x=v1,y=v6", q))
    assert g.valuation({"v1", "v3", "v5", "v6"}) == 1
    assert g.valuation({"v1", "v5", "v6"}) == 0
    # coalitions missing a bound vertex are losing
    assert g.valuation({"v3", "v5", "v6"}) == 0


def test_vertex_game_exact_values(fig_graph):
    q = crpq("(x, a b c, y)")
    g = vertex_game(fig_graph, q, bind("x=v1,y=v6", q))
    values = shapley_exact_subset_all(g)
    # the four vertices of the single witness path share the unit equally
    for v in ("v1", "v3", "v5", "v6"):
        assert values[v] == Fraction(1, 4)
    for v in ("v2", "v4"):
        assert values[v] == 0


GAME_QUERIES = ["(x, a b*, y)", "(x, (a|b)* b, y)", "(x, .*, y)", "(x, a, y) & (y, b*, z)"]


def _holds_on(sub, q, mu):
    """The query on a subgraph; a bound vertex outside it fails the query."""
    if any(mu[v] not in sub.vertices for v in q.variables):
        return False
    return query.eval_crpq_bound(sub, q, mu)


@given(
    seed=st.integers(0, 2**32 - 1),
    qtext=st.sampled_from(GAME_QUERIES),
    exo_prob=st.sampled_from([0.0, 0.3, 0.7]),
)
@settings(max_examples=80, deadline=None)
def test_mask_valuations_match_subgraph_definition(seed, qtext, exo_prob):
    """The request predicate of edge and vertex players gives, on every
    coalition, the query on edge_subgraph / vertex_subgraph, and the
    baseline-shifted games of the oracles the shifted query."""
    rng = random.Random(seed)
    g = random_labeled_graph(
        rng, rng.randint(2, 4), rng.randint(1, 7), exo_prob=exo_prob,
        allow_self_loops=True, exo_vertex_prob=exo_prob,
    )
    q = crpq(qtext, frozenset("ab"))
    mu = query.Assignment({v: rng.choice(sorted(g.vertices)) for v in q.variables})
    for player_kind, build, subgraph in (("edge", edge_game, edge_subgraph), ("vertex", vertex_game, vertex_subgraph)):
        players, holds, _ = explain._request_game(g, q, mu, player_kind)
        request = Game(players, holds)
        cg = build(g, q, mu)
        assert cg.players == players
        baseline = _holds_on(subgraph(g, ()), q, mu)
        for size in range(len(players) + 1):
            for combo in itertools.combinations(players, size):
                coalition = frozenset(combo)
                on_subgraph = int(_holds_on(subgraph(g, coalition), q, mu))
                assert request.valuation(coalition) == on_subgraph, (player_kind, sorted(coalition))
                assert cg.valuation(coalition) == (0 if baseline else on_subgraph)


def test_mask_valuations_cover_baseline_games():
    # the property above meets games whose exogenous part alone answers:
    # every coalition of such a game is losing
    g = load_graph("u1 a u2 x\nu2 b u3 n\nv u1 x\nv u2 x\n")
    q = crpq("(x, a b*, y)")
    mu = bind("x=u1,y=u2", q)
    for player_kind, build, subgraph in (("edge", edge_game, edge_subgraph), ("vertex", vertex_game, vertex_subgraph)):
        players, holds, _ = explain._request_game(g, q, mu, player_kind)
        assert players and holds(0) and _holds_on(subgraph(g, ()), q, mu)
        cg = build(g, q, mu)
        assert all(
            cg.valuation(frozenset(c)) == 0
            for size in range(len(players) + 1)
            for c in itertools.combinations(players, size)
        )


# --- short-word requests ---------------------------------------------------

@pytest.mark.parametrize("graph_text, qtext, btext", [
    ("u1 a u2 n\nu2 b u3 n\n", "(x, a b, y)", "x=u1,y=u3"),
    ("u1 a u2 x\nu2 b u3 n\n", "(x, a b, y)", "x=u1,y=u3"),
    (RUNNING_EXAMPLE, "(x, a b, y)", "x=v1,y=v4"),
    (LOOPY, "(x, a b | c a, y)", "x=u1,y=u2"),
    ("u1 a u1 n\nu2 a u3 n\n", "(x, a a, y)", "x=u1,y=u1"),
], ids=["two-edge-chain", "exogenous-edge", "running-example", "overlap", "self-loop-twice"])
def test_solve_short_words_match_the_subset_oracle(graph_text, qtext, btext):
    """A single short-word atom is counted on its lineage with the sweep's
    values, through overlapping matches and a self-loop read twice; an
    exogenous edge is no player to focus on."""
    g = load_graph(graph_text)
    req = request(g, qtext, btext)
    report = explain.solve(req)
    assert report.method == "exact-lineage"
    assert report.values == shapley_exact_subset_all(edge_game(g, req.query, req.binding))
    for eid in g.exo_edges:
        with pytest.raises(InvalidPlayerSet):
            explain.solve(request(g, qtext, btext, focus=eid))


# --- gap bound and multiplicative reduction ---------------------------------

def test_gap_bound_values():
    """The gap is the least (w-1)!(n-w)!/n! over coalition widths w <= K:
    2!6!/9! for K = 3 on 9 players, and 2!7!/10! for K = 2 + 1 over two
    atoms on 10 players; an empty atom adds nothing to K."""
    assert explain.gap_bound(crpq("(x, a b c, y)"), 9) == Fraction(1, 252)
    assert explain.gap_bound(crpq("(x, a b, y) & (y, c, z)"), 10) == Fraction(1, 360)
    assert explain.gap_bound(crpq("(x, a b, y) & (y, c {}, z)"), 10) == Fraction(1, 90)
    for n, k in itertools.product(range(1, 13), range(1, 13)):
        least = min(Fraction(math.factorial(w - 1) * math.factorial(n - w), math.factorial(n))
                    for w in range(1, min(k, n) + 1))
        assert explain.gap_bound(crpq("(x, " + " ".join(["a"] * k) + ", y)"), n) == least, (n, k)


def test_gap_bound_truncates_factor_product():
    # no coalition is wider than the n players
    assert explain.gap_bound(crpq("(x, a b c, y)"), 2) == Fraction(1, 2 * 1)


def test_gap_bound_rejects_infinite_language():
    with pytest.raises(InfiniteLanguage):
        explain.gap_bound(crpq("(x, a b*, y)"), 9)
    # the empty language is finite: an empty atom is no refusal
    assert explain.gap_bound(crpq("(x, {}, y)"), 9) == Fraction(1)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("branches", range(1, 9))
def test_vertex_gap_lies_below_every_nonzero_value_of_a_fan(branches, k):
    """A fan of a-paths of k edges from x to y, under the word of k a's:
    each term holds the k + 1 vertices of a branch, so the vertex gap is
    1/(n C(n-1, k)), with K = k + 1 and w - 1 at most (n-1)/2, and lies
    below the smallest nonzero value, 1/168 for 2 + 6 players when k = 2,
    which the edge gap 1/(n(n-1)) = 1/56 would exceed."""
    paths = [["x"] + [f"m{i}_{j}" for j in range(1, k)] + ["y"] for i in range(branches)]
    g = load_graph("".join(f"{u} a {v} n\n" for path in paths for u, v in zip(path, path[1:])))
    req = request(g, "(x, " + " ".join(["a"] * k) + ", y)", "x=x,y=y", player_kind="vertex", mode="exact")
    values = explain.solve(req).values
    n = len(values)
    gap = explain.gap_bound(req.query, n, "vertex")
    assert gap == Fraction(1, n * math.comb(n - 1, min(k, (n - 1) // 2)))
    assert 0 < gap <= min(v for v in values.values() if v)
    if (branches, k) == (6, 2):
        assert gap == Fraction(1, 168)
        assert values["m0_1"] == Fraction(1, 168) < explain.gap_bound(req.query, 8)


@given(seed=st.integers(0, 2**32 - 1), player_kind=st.sampled_from(["edge", "vertex"]))
@settings(max_examples=100, deadline=None)
def test_gap_lies_below_every_nonzero_value_of_a_random_graph(seed, player_kind):
    """On small random graphs with self-loops, exogenous edges and vertices,
    under finite-language CRPQs, the gap of either player kind lies below
    the smallest nonzero exact value of an answer."""
    rng = random.Random(seed)
    g = random_labeled_graph(rng, rng.randint(2, 5), rng.randint(1, 9), exo_prob=0.3, allow_self_loops=True,
                             exo_vertex_prob=0.3)
    q = crpq(rng.choice(FINITE_QUERIES + ["(x, a a, y)", "(x, a a a | b, y)"]), frozenset("ab"))
    answers = query.enumerate_answers(g, q)
    assume(answers)
    mu = query.Assignment(dict(zip(q.variables, rng.choice(answers))))
    players, holds, _ = explain._request_game(g, q, mu, player_kind)
    assume(players and not holds(0))
    values = explain.solve(explain.ExplainRequest(g, q, mu, player_kind=player_kind, mode="exact")).values
    assert explain.gap_bound(q, len(players), player_kind) <= min(v for v in values.values() if v)


def test_multiplicative_null_player_reads_zero():
    g = load_graph(CHAIN3 + "u5 a u6 n\n")
    req = request(g, "(x, a b c, y)", "x=u1,y=u4", mode="approx-multiplicative", eps=0.5, delta=0.05, seed=3)
    est = explain.solve(req).values["u5->u6"]
    assert (est.successes, est.value) == (0, 0)
    assert est.samples == game.sample_count(explain.multiplicative_tolerance(Fraction(1, 12), 0.5), 0.05)


def test_multiplicative_within_factor_on_chain():
    g = load_graph(CHAIN3)
    req = request(g, "(x, a b c, y)", "x=u1,y=u4", mode="approx-multiplicative", eps=0.5, delta=0.05, seed=11)
    assert explain.gap_bound(req.query, 3) == Fraction(1, 6)
    est = explain.solve(req).values["u1->u2"]
    exact = Fraction(1, 3)
    assert exact / Fraction(3, 2) <= est.value <= exact * Fraction(3, 2)


# --- simple-path and supports ----------------------------------------------

def test_edge_on_simple_path_examples(fig_graph):
    assert edge_on_simple_path(fig_graph, "v1", "v6", "v1->v3")
    assert edge_on_simple_path(fig_graph, "v1", "v6", "v4->v3")
    assert not edge_on_simple_path(fig_graph, "v3", "v6", "v1->v2")
    assert not edge_on_simple_path(fig_graph, "v1", "v5", "v5->v6")


def test_edge_on_simple_path_degenerate_cases(fig_graph):
    assert not edge_on_simple_path(fig_graph, "v1", "v1", "v1->v2")
    with pytest.raises(InvalidPlayerSet):
        edge_on_simple_path(fig_graph, "v1", "v6", "v9->v9")


def test_edge_on_simple_path_budget(fig_graph):
    with pytest.raises(BudgetExceeded):
        edge_on_simple_path(fig_graph, "v1", "v3", "v1->v3", budget=1)


def test_candidate_supports_single_word(fig_graph):
    q = crpq("(x, a b c, y)")
    mu = bind("x=v1,y=v6", q)
    supports = list(explain.candidate_supports(fig_graph, q, mu))
    assert supports == [frozenset({"v1->v3", "v3->v5", "v5->v6"})]


def test_candidate_supports_two_paths(fig_graph):
    q = crpq("(x, a b*, y)")
    mu = bind("x=v1,y=v6", q)
    supports = set(explain.candidate_supports(fig_graph, q, mu))
    assert frozenset({"v1->v2", "v2->v6"}) in supports
    assert frozenset({"v1->v2", "v2->v4", "v4->v6"}) in supports


def test_candidate_supports_unsatisfiable(fig_graph):
    q = crpq("(x, c c, y)")
    mu = bind("x=v1,y=v6", q)
    assert list(explain.candidate_supports(fig_graph, q, mu)) == []


def test_candidate_supports_vertex_kind(fig_graph):
    q = crpq("(x, a b c, y)")
    mu = bind("x=v1,y=v6", q)
    supports = list(explain.candidate_supports(fig_graph, q, mu, player_kind="vertex"))
    assert supports == [frozenset({"v1", "v3", "v5", "v6"})]


def test_candidate_supports_default_budget_reads_a_dense_lineage():
    """A random 12-vertex 40-edge graph whose lineage search takes about
    2.3 M steps to find no term (the one edge into u1 is labeled a): the
    default budget, the one nonzero uses, reads it all."""
    g = random_labeled_graph(random.Random(0), 12, 40, exo_prob=0.0)
    q = crpq("(x, (a|b)* b, y)", g.alphabet)
    mu = bind("x=u0,y=u1", q)
    assert list(explain.candidate_supports(g, q, mu)) == []
    with pytest.raises(BudgetExceeded):
        list(explain.candidate_supports(g, q, mu, budget=1_000_000))


def test_candidate_supports_reads_the_lineage_budget_when_it_searches(monkeypatch, fig_graph):
    """The default budget is ``LINEAGE_BUDGET`` as it reads at the search,
    as for ``nonzero --budget``, not as it read when the module loaded."""
    q = crpq("(x, a b c, y)")
    mu = bind("x=v1,y=v6", q)
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        list(explain.candidate_supports(fig_graph, q, mu))


def test_nonzero_with_infinite_language():
    g = load_graph(CHAIN3 + "u5 a u6 n\n")
    q = crpq("(x, .*, y)", g.alphabet)
    mu = bind("x=u1,y=u4", q)
    # the nonzero verdict: the player lies in a minimal winning coalition
    for eid, expected in (
        ("u1->u2", True),
        ("u3->u4", True),
        ("u5->u6", False),  # disconnected stray edge
    ):
        assert any(eid in s for s in explain.candidate_supports(g, q, mu)) == expected, eid


# --- lineage ----------------------------------------------------------------

LINEAGE_QUERIES = GAME_QUERIES + [
    "(x, a a* | b, y)", "(x, (a b)*, y)", "(x, a, y) & (x, b a, z)", "(x, a b | b a, y)", "(x, a a | b, y)",
]


@given(
    seed=st.integers(0, 2**32 - 1),
    qtext=st.sampled_from(LINEAGE_QUERIES),
    player_kind=st.sampled_from(["edge", "vertex"]),
)
@settings(max_examples=150, deadline=None)
def test_lineage_values_match_the_oracles(seed, qtext, player_kind):
    """The lineage is the game's minimal winning coalitions, and counting it
    by size gives the textbook values and the sweep's, with self-loops,
    exogenous edges and vertices, CRPQs and epsilon-accepting atoms; so do
    ``exact`` and ``auto`` requests."""
    rng = random.Random(seed)
    g = random_labeled_graph(
        rng, rng.randint(2, 5), rng.randint(1, 9), exo_prob=0.3,
        allow_self_loops=True, exo_vertex_prob=0.3,
    )
    q = crpq(qtext, frozenset("ab"))
    mu = query.Assignment({v: rng.choice(sorted(g.vertices)) for v in q.variables})
    players, wins, lineage = explain._request_game(g, q, mu, player_kind)
    assume(players)
    minimal = set()
    for mask in range(1 << len(players)):
        if wins(mask) and not any(wins(mask & ~(1 << i)) for i in range(len(players)) if mask >> i & 1):
            minimal.add(frozenset(p for i, p in enumerate(players) if mask >> i & 1))
    assert set(explain.candidate_supports(g, q, mu, player_kind)) == minimal

    budget = [10**6]
    values = game.shapley_lineage_all(players, lineage(budget), budget)
    cg = (edge_game if player_kind == "edge" else vertex_game)(g, q, mu)
    assert values == brute_shapley(players, cg.valuation) == shapley_exact_subset_all(cg)
    for mode in ("exact", "auto"):
        report = explain.solve(explain.ExplainRequest(g, q, mu, player_kind=player_kind, mode=mode))
        assert (report.method, report.values) == ("exact-lineage", values), mode


# a 2-player chain behind six exogenous edges: the lineage search needs more
# than four steps per coalition of its 2 players
BEHIND_EXO = "".join(f"u{i} a u{i + 1} x\n" for i in range(6)) + "u6 b u7 n\nu7 c u8 n\n"


def test_solve_falls_back_to_the_sweep_over_the_lineage_budget(monkeypatch):
    """The sweep this test once reached is gone: exact requests count the
    lineage within ``LINEAGE_BUDGET`` and, over it, exact refuses and auto
    samples."""
    g = load_graph(BEHIND_EXO)
    report = explain.solve(request(g, "(x, a* b c, y)", "x=u0,y=u8", mode="exact"))
    assert report.method == "exact-lineage"
    assert report.values == {"u6->u7": Fraction(1, 2), "u7->u8": Fraction(1, 2)}
    q = crpq("(x, a* b c, y)", g.alphabet)
    _, _, lineage = explain._request_game(g, q, bind("x=u0,y=u8", q), "edge")
    budget = [100]
    assert game.shapley_lineage_all(["u6->u7", "u7->u8"], lineage(budget), budget) == report.values
    with pytest.raises(BudgetExceeded):
        lineage([4 << 2])
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 4 << 2)
    with pytest.raises(BudgetExceeded):
        explain.solve(request(g, "(x, a* b c, y)", "x=u0,y=u8", mode="exact"))
    report = explain.solve(request(g, "(x, a* b c, y)", "x=u0,y=u8"))
    assert (report.method, report.flags) == ("mc-additive", ("no-multiplicative-guarantee",))


def test_sweep_fallback_searches_the_empty_coalition_once(monkeypatch):
    """An auto request over the lineage budget, where the sweep once ran,
    samples on the product search and searches the empty coalition once."""
    empty = []

    def counted_holds(out, atoms, mask, original=query.holds_on_mask):
        if mask == 0:
            empty.append(mask)
        return original(out, atoms, mask)

    monkeypatch.setattr(explain, "holds_on_mask", counted_holds)
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 4 << 2)
    report = explain.solve(request(load_graph(BEHIND_EXO), "(x, a* b c, y)", "x=u0,y=u8"))
    assert report.method == "mc-additive"
    assert len(empty) == 1


# --- sampler ----------------------------------------------------------------

FINITE_QUERIES = ["(x, a b | b, y)", "(x, a, y) & (y, b, z)", "(x, a b a, y)", "(x, a, y) & (x, b a, z)"]


def _counting_holds(calls):
    def counted(out, atoms, mask, original=query.holds_on_mask):
        calls.append(mask)
        return original(out, atoms, mask)
    return counted


def _on_lineage(terms):
    """The lineage's bitmask test."""
    return lambda mask: any(t & mask == t for t in terms)


def _random_request(rng, qtext, small):
    """A random graph with self-loops, exogenous edges and vertices, the
    query of ``qtext`` on it, and a binding: an answer when there is one,
    so that most requests draw permutations.  ``small`` graphs keep the
    multiplicative trial count, which grows with the players, low."""
    g = random_labeled_graph(
        rng, rng.randint(2, 4 if small else 5), rng.randint(1, 5 if small else 9), exo_prob=0.3,
        allow_self_loops=True, exo_vertex_prob=0.3,
    )
    q = crpq(qtext, frozenset("ab"))
    answers = query.enumerate_answers(g, q) or [[rng.choice(sorted(g.vertices)) for _ in q.variables]]
    return g, q, query.Assignment(dict(zip(q.variables, rng.choice(answers))))


@given(
    seed=st.integers(0, 2**32 - 1),
    # 600 or 17 additive trials, so that some searches run over their budget
    query_mode=st.one_of(
        st.tuples(st.sampled_from(LINEAGE_QUERIES + FINITE_QUERIES), st.just("approx-additive"),
                  st.sampled_from([0.05, 0.3])),
        st.tuples(st.sampled_from(FINITE_QUERIES), st.just("approx-multiplicative"), st.just(0.9)),
    ),
    player_kind=st.sampled_from(["edge", "vertex"]),
)
@settings(max_examples=120, deadline=None)
def test_sampler_reports_alike_on_the_lineage_and_the_product_search(seed, query_mode, player_kind):
    """solve hands the sampler the lineage's bitmask test exactly when the
    search fits in the trial count, with at most one term per edge, and
    either way reports what the product search gives over the lineage's
    support (every player when the search ran out): self-loops, exogenous
    edges and vertices, CRPQs, and infinite languages when additive."""
    qtext, mode, eps = query_mode
    small = mode == "approx-multiplicative"
    g, q, mu = _random_request(random.Random(seed), qtext, small)
    players, holds, lineage = explain._request_game(g, q, mu, player_kind)
    assume(players and not holds(0))
    delta = 0.5 if small else 0.1
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explain, "holds_on_mask", _counting_holds(calls))
        report = explain.solve(explain.ExplainRequest(
            g, q, mu, player_kind=player_kind, mode=mode, eps=eps, delta=delta, seed=seed))
    trials = report.values[players[0]].samples
    try:
        terms = lineage([trials])  # the sampler's search, within its trial count
        support = reduce(or_, terms, 0)
        reads_lineage = len(terms) <= len(g.edges)
    except BudgetExceeded:
        support, reads_lineage = None, False
    product = (edge_game if player_kind == "edge" else vertex_game)(g, q, mu)
    if small:
        tolerance = explain.multiplicative_tolerance(explain.gap_bound(q, len(players), player_kind), eps)
        estimates = mc_estimates(players, product.value, tolerance, delta, seed, support)
        expected = game.ShapleyReport("mc-multiplicative", {p: est._replace(eps=eps) for p, est in estimates.items()})
    else:
        expected = game.ShapleyReport("mc-additive", mc_estimates(players, product.value, eps, delta, seed, support))
    assert report == expected
    assert all(mask == 0 for mask in calls) == reads_lineage


@given(
    seed=st.integers(0, 2**32 - 1),
    qtext=st.sampled_from(FINITE_QUERIES),
    eps=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
    player_kind=st.sampled_from(["edge", "vertex"]),
)
@settings(max_examples=60, deadline=None)
def test_multiplicative_reports_are_additive_reports_at_the_tolerance(seed, qtext, eps, player_kind):
    """A multiplicative report is the additive sampler's at
    ``multiplicative_tolerance`` with only eps restamped, for eps of 1 and
    more too, with no flag; its null players, and those of the term pivot
    and of the product search over every player, read 0 successes, with no
    threshold; an infinite or NaN eps is refused."""
    g, q, mu = _random_request(random.Random(seed), qtext, small=True)
    players, holds, lineage = explain._request_game(g, q, mu, player_kind)
    everyone = (1 << len(players)) - 1
    assume(players and not holds(0) and holds(everyone))
    req = explain.ExplainRequest(g, q, mu, player_kind=player_kind, mode="approx-multiplicative", eps=eps,
                                 delta=0.5, seed=seed)
    report = explain.solve(req)
    assert (report.method, report.flags) == ("mc-multiplicative", ())
    tolerance = explain.multiplicative_tolerance(explain.gap_bound(q, len(players), player_kind), eps)
    terms = lineage([explain.LINEAGE_BUDGET])
    product = (edge_game if player_kind == "edge" else vertex_game)(g, q, mu)
    additive = mc_estimates(players, product.value, tolerance, 0.5, seed, reduce(or_, terms, 0))
    assert report.values == {p: est._replace(eps=eps) for p, est in additive.items()}
    trials = game.sample_count(tolerance, 0.5)
    assert {(est.eps, est.samples) for est in report.values.values()} == {(eps, trials)}
    exact = explain.solve(req._replace(mode="exact")).values
    null = [p for p in players if exact[p] == 0]
    on_terms = game.sample_pivots(players, game.term_pivot(terms), reduce(or_, terms, 0), 0, trials, eps, 0.5,
                                  seed)
    on_search = game.sample_pivots(players, game.search_pivot(game.memoized(holds)), everyone, 0, trials, eps,
                                   0.5, seed)
    for estimates in (report.values, on_terms, on_search):
        assert all(estimates[p].successes == 0 for p in null)
    for bad in (math.inf, math.nan):
        for mode in ("auto", "exact", "approx-additive", "approx-multiplicative"):
            with pytest.raises(ValueError):
                explain.solve(req._replace(mode=mode, eps=bad))


def test_sampler_falls_back_to_the_product_search_over_the_trial_count():
    """BEHIND_EXO's lineage search needs more steps than the 17 trials at
    eps 0.3 allow, so the sampler runs on the product search, with the
    estimates the lineage's bitmask test gives."""
    g = load_graph(BEHIND_EXO)
    req = request(g, "(x, a* b c, y)", "x=u0,y=u8", mode="approx-additive", eps=0.3, delta=0.1, seed=5)
    report = explain.solve(req)
    players = ["u6->u7", "u7->u8"]
    assert report.values["u6->u7"].samples == 17
    _, _, lineage = explain._request_game(g, req.query, req.binding, "edge")
    with pytest.raises(BudgetExceeded):
        lineage([17])
    on_lineage = _on_lineage(lineage([10**6]))
    product = edge_game(g, req.query, req.binding)
    assert product.players == tuple(players)
    assert (report.values == mc_estimates(players, product.value, 0.3, 0.1, 5)
            == mc_estimates(players, on_lineage, 0.3, 0.1, 5))


# four stages of two parallel a-paths: a lineage of 16 terms over 12 edges
LADDER4 = "".join(f"s{i} a s{i + 1} n\ns{i} a m{i} n\nm{i} a s{i + 1} n\n" for i in range(4))
# three fully joined layers of two vertices between x and y: a vertex
# lineage of 8 terms over 12 edges and 8 players, 2^8 coalitions
LAYERS3 = [["x"], ["p0", "p1"], ["q0", "q1"], ["r0", "r1"], ["y"]]
LAYERED3 = "".join(f"{u} a {v} n\n" for a, b in zip(LAYERS3, LAYERS3[1:]) for u in a for v in b)
# three stages of two, two and three parallel a-routes, and a stray b-edge:
# a lineage of 12 terms over 12 edges, at the term rule's bound
AT_THE_RULE = ("s0 a s1 n\ns0 a m0 n\nm0 a s1 n\ns1 a s2 n\ns1 a m1 n\nm1 a s2 n\n"
               "s2 a s3 n\ns2 a m2 n\nm2 a s3 n\ns2 a n2 n\nn2 a s3 n\ns0 b z n\n")


# two two-edge branches from x to y: no edge lies in both terms
OR_FAN = "x a m0 n\nm0 a y n\nx a m1 n\nm1 a y n\n"
# two a-routes from x to y that share their last edge z -> y
SHARED_EDGE = "x a m0 n\nm0 a z n\nx a z n\nz a y n\n"


@pytest.mark.parametrize("graph_text, qtext, btext, player_kind, eps, ran_out", [
    (RUNNING_EXAMPLE, "(x, a b c, y)", "x=v1,y=v6", "edge", 0.05, False),
    (OR_FAN, "(x, a a, y)", "x=x,y=y", "edge", 0.05, False),
    (SHARED_EDGE, "(x, a*, y)", "x=x,y=y", "edge", 0.05, False),
    (OR_FAN, "(x, a a, y)", "x=x,y=y", "vertex", 0.05, False),
    (LADDER4, "(x, a*, y)", "x=s0,y=s4", "edge", 0.04, False),
    (LADDER4, "(x, a*, y)", "x=s0,y=s4", "edge", 0.3, True),
], ids=["one-term", "or-like", "shared-edge", "bound-vertices", "past-the-term-rule", "search-ran-out"])
def test_sampler_reports_the_forward_pivot_oracle(graph_text, qtext, btext, player_kind, eps, ran_out):
    """``solve``'s additive estimates are the forward scan of every order of
    the stdlib stream over the support, with the veto players (those of
    every term, a vertex game's bound vertices among them) read without a
    scan and none when the search ran out, where the support is every
    player."""
    g = load_graph(graph_text)
    req = request(g, qtext, btext, player_kind=player_kind, mode="approx-additive", eps=eps, delta=0.1, seed=11)
    players, _, lineage = explain._request_game(g, req.query, req.binding, player_kind)
    trials = game.sample_count(eps, 0.1)
    terms = lineage([10**6])
    if ran_out:
        with pytest.raises(BudgetExceeded):
            lineage([trials])
    else:
        lineage([trials])
    support = (1 << len(players)) - 1 if ran_out else None
    report = explain.solve(req)
    assert report.method == "mc-additive"
    assert report.values == pivot_oracle_estimates(players, terms, trials, eps, 0.1, 11, support)


@pytest.mark.parametrize("graph_text, btext, player_kind, terms", [
    (LADDER4, "x=s0,y=s4", "edge", 16),
], ids=["over-one-term-per-edge"])
def test_sampler_keeps_the_product_search_past_the_term_rule(monkeypatch, graph_text, btext, player_kind, terms):
    """The ladder's lineage fits in the 1 153 trials at eps 0.04, but it has
    more terms than the graph has edges, so the sampler runs on the product
    search, with the estimates the lineage's bitmask test gives."""
    g = load_graph(graph_text)
    req = request(g, "(x, a*, y)", btext, player_kind=player_kind, mode="approx-additive", eps=0.04, delta=0.05,
                  seed=2)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(explain, "holds_on_mask", _counting_holds(calls))
        report = explain.solve(req)
    assert any(calls)  # product searches past the baseline's
    trials = game.sample_count(0.04, 0.05)
    assert trials == 1153
    players, _, lineage = explain._request_game(g, req.query, req.binding, player_kind)
    found = lineage([trials])
    assert len(found) == terms > len(g.edges)
    product = (edge_game if player_kind == "edge" else vertex_game)(g, req.query, req.binding)
    assert (report.values == mc_estimates(players, product.value, 0.04, 0.05, 2)
            == mc_estimates(players, _on_lineage(found), 0.04, 0.05, 2))


@pytest.mark.parametrize("graph_text, qtext, btext, mode, player_kind, eps", [
    (RUNNING_EXAMPLE, "(x, a b c, y)", "x=v1,y=v6", "approx-additive", "edge", 0.1),
    (CHAIN3, "(x, a b c, y)", "x=u1,y=u4", "approx-multiplicative", "edge", 0.1),
    (LAYERED3, "(x, a*, y)", "x=x,y=y", "approx-additive", "vertex", 0.04),
    (AT_THE_RULE, "(x, a*, y)", "x=s0,y=s3", "approx-additive", "edge", 0.04),
], ids=["running-additive", "chain-multiplicative", "trials-over-coalitions", "one-term-per-edge"])
def test_sampler_on_the_lineage_searches_the_product_once(monkeypatch, graph_text, qtext, btext, mode, player_kind,
                                                           eps):
    """On the lineage path the only product search of a sampled request is
    the baseline's, at the empty coalition, which a vertex game with bound
    endogenous vertices refuses without one.  That holds for the layered
    vertex game too, whose 8 terms over its 8 players face 1 153 trials,
    more than its 2^8 coalitions, since the term pivot was measured as fast
    as the memo there (README), and for a lineage with as many terms as the
    graph has edges."""
    calls = []
    monkeypatch.setattr(explain, "holds_on_mask", _counting_holds(calls))
    report = explain.solve(request(load_graph(graph_text), qtext, btext, player_kind=player_kind, mode=mode, eps=eps,
                                   delta=0.05, seed=9))
    assert report.method == mode.replace("approx", "mc")
    assert calls == ([0] if player_kind == "edge" else [])


# --- dispatcher -------------------------------------------------------------

def test_solve_golden_word_query(fig_graph):
    report = explain.solve(request(fig_graph, "(x, a b c, y)", "x=v1,y=v6"))
    assert report.method == "exact-lineage"  # a three-symbol word, counted on its lineage
    for eid in ("v1->v3", "v3->v5", "v5->v6"):
        assert report.values[eid] == Fraction(1, 3)
    assert sum(report.values.values()) == 1


def test_solve_short_words_on_the_running_example(fig_graph):
    report = explain.solve(request(fig_graph, "(x, a b, y)", "x=v1,y=v4"))
    assert report.method == "exact-lineage"
    assert report.values["v1->v2"] == Fraction(1, 2)
    assert report.values["v2->v4"] == Fraction(1, 2)
    assert report.values["v5->v6"] == 0


def test_solve_short_words_with_overlapping_matches():
    # the middle edge lies on both matches, each beside a self-loop
    g = load_graph(LOOPY)
    report = explain.solve(request(g, "(x, a b | c a, y)", "x=u1,y=u2"))
    assert report.method == "exact-lineage"
    assert report.flags == ()
    q = crpq("(x, a b | c a, y)", g.alphabet)
    oracle = shapley_exact_subset_all(edge_game(g, q, bind("x=u1,y=u2", q)))
    assert report.values == oracle


def test_solve_short_words_flags_do_not_depend_on_focus():
    # the u2 loop read twice matches on its own; asking for the loop alone
    # keeps the method and flags of the request for every player
    g = load_graph(LOOPY)
    everyone = explain.solve(request(g, "(x, b b, y)", "x=u2,y=u2"))
    alone = explain.solve(request(g, "(x, b b, y)", "x=u2,y=u2", focus="u2->u2"))
    assert everyone.method == alone.method == "exact-lineage"
    assert alone.flags == everyone.flags == ()
    assert alone.values == {"u2->u2": 1}


# an 80-branch fan s -a-> m_i -b-> t beside s -c-> t: 161 players, past the
# former subset cap of 22
FAN80 = "s c t n\n" + "".join(f"s a m{i} n\nm{i} b t n\n" for i in range(80))


def test_solve_short_words_past_the_subset_cap():
    """Values of the former closed-form counter, exactly."""
    g = load_graph(FAN80)
    report = explain.solve(request(g, "(x, a b | a c | c, y)", "x=s,y=t"))
    assert report.method == "exact-lineage"
    assert len(report.values) == 161
    assert report.values.pop("s->t") == Fraction(
        365375409332725729550921208179070754913983135744, 3704816314002803080565106087254467075600588347885)
    branch = Fraction(
        3339440904670077351014184879075396320686605212141, 592770610240448492890416973960714732096094135661600)
    assert set(report.values.values()) == {branch}


def test_solve_exact_mode_past_the_subset_cap_counts_the_lineage():
    report = explain.solve(request(load_graph(FAN80), "(x, a b | a c | c, y)", "x=s,y=t", mode="exact"))
    assert report.method == "exact-lineage"
    assert sum(report.values.values()) == 1


# a 30-edge a-chain: a one-term lineage of 30 players
CHAIN30 = "".join(f"u{i} a u{i + 1} n\n" for i in range(30))


def test_solve_exact_counts_a_chain_past_the_former_subset_cap():
    report = explain.solve(request(load_graph(CHAIN30), "(x, a*, y)", "x=u0,y=u30", mode="exact"))
    assert report.method == "exact-lineage"
    assert report.values == {f"u{i}->u{i + 1}": Fraction(1, 30) for i in range(30)}


# three fully joined layers of five vertices between x and y: 60 edge
# players whose lineage, under (x, a*, y), does not fit LINEAGE_BUDGET
LAYERS_3X5 = [["x"]] + [[f"l{i}{j}" for j in range(5)] for i in range(3)] + [["y"]]
LAYERED_3X5 = "".join(f"{u} a {v} n\n" for a, b in zip(LAYERS_3X5, LAYERS_3X5[1:]) for u in a for v in b)


def _counting_lineage(budgets):
    """``query.lineage``, recording the budget each search starts with."""
    def counted(out, atoms, bound, budget, original=query.lineage):
        budgets.append(budget[0])
        return original(out, atoms, bound, budget)
    return counted


def test_solve_over_the_lineage_budget_exact_refuses_and_auto_samples(monkeypatch):
    """auto's attempt gets the sampler's cost, 1 060 trials * 6 valuations *
    61 product steps (the start and 60 reachable product edges) = 387 960
    steps, and then samples; exact gets LINEAGE_BUDGET and refuses."""
    budgets = []
    monkeypatch.setattr(explain, "lineage", _counting_lineage(budgets))
    g = load_graph(LAYERED_3X5)
    assert len(g.endo_edges) == 60
    with pytest.raises(BudgetExceeded):
        explain.solve(request(g, "(x, a*, y)", "x=x,y=y", mode="exact"))
    report = explain.solve(request(g, "(x, a*, y)", "x=x,y=y", seed=3))
    assert (report.method, report.flags) == ("mc-additive", ("no-multiplicative-guarantee",))
    assert all(est.samples == 1060 for est in report.values.values())
    assert budgets == [explain.LINEAGE_BUDGET, 387_960]


def test_auto_searches_the_lineage_once(monkeypatch):
    """When auto's count runs out after its search finished, the sampler
    tests the terms found, with no second search and no product search past
    the baseline's; when the search ran out, it samples on the product
    search."""
    g = load_graph(CHAIN3)
    req = request(g, "(x, a b c, y)", "x=u1,y=u4", eps=0.5, delta=0.2, seed=5)
    _, _, lineage = explain._request_game(g, req.query, req.binding, "edge")
    budget = [10**6]
    lineage(budget)
    search = 10**6 - budget[0]
    reports = []
    for cut, product_searches in ((search, False), (search - 1, True)):
        budgets, calls = [], []
        with monkeypatch.context() as patch:
            patch.setattr(explain, "LINEAGE_BUDGET", cut)
            patch.setattr(explain, "lineage", _counting_lineage(budgets))
            patch.setattr(explain, "holds_on_mask", _counting_holds(calls))
            reports.append(explain.solve(req))
        assert reports[-1].method == "mc-multiplicative"
        assert budgets == [cut]
        assert any(calls) == product_searches
    assert reports[0] == reports[1]


@pytest.mark.parametrize("mode", ["exact-subset", "exact-lineage", "mc-additive"])
def test_solve_refuses_engine_names_as_modes(monkeypatch, mode):
    """Only the four public modes are accepted: an engine's name would skip
    the dispatch's caps, so it is refused before any search."""
    calls = []
    monkeypatch.setattr(explain, "holds_on_mask", _counting_holds(calls))
    with pytest.raises(ValueError, match="unknown mode"):
        explain.solve(request(load_graph(FAN80), "(x, a b | a c | c, y)", "x=s,y=t", mode=mode))
    assert calls == []


def test_solve_focus_restricts_output(fig_graph):
    report = explain.solve(request(fig_graph, "(x, a b c, y)", "x=v1,y=v6", focus="v3->v5"))
    assert set(report.values) == {"v3->v5"}
    with pytest.raises(InvalidPlayerSet):
        explain.solve(request(fig_graph, "(x, a b c, y)", "x=v1,y=v6", focus="v9->v9"))


@given(
    seed=st.integers(0, 2**32 - 1),
    qtext=st.sampled_from(["(x, a, y)", "(x, a b | b, y)", "(x, a, y) & (y, b, z)"]),
    player_kind=st.sampled_from(["edge", "vertex"]),
    mode=st.sampled_from(["exact", "approx-additive", "approx-multiplicative"]),
)
@settings(max_examples=60, deadline=None)
def test_solve_focus_is_the_all_players_report_restricted(seed, qtext, player_kind, mode):
    """solve selects the focus from every player's value: same method,
    flags and value as the all-players report."""
    rng = random.Random(seed)
    g = random_labeled_graph(
        rng, rng.randint(2, 4), rng.randint(1, 5), exo_prob=0.3,
        allow_self_loops=True, exo_vertex_prob=0.3,
    )
    q = crpq(qtext, frozenset("ab"))
    mu = query.Assignment({v: rng.choice(sorted(g.vertices)) for v in q.variables})
    players = sorted(g.endo_edges if player_kind == "edge" else g.endo_vertices)
    assume(players)
    kw = dict(player_kind=player_kind, mode=mode, eps=0.5, delta=0.1, seed=seed)
    everyone = explain.solve(explain.ExplainRequest(g, q, mu, **kw))
    for p in players:
        alone = explain.solve(explain.ExplainRequest(g, q, mu, focus=p, **kw))
        assert (alone.method, alone.flags) == (everyone.method, everyone.flags)
        assert alone.values == {p: everyone.values[p]}


@pytest.mark.parametrize("qtext, btext, mode", [
    ("(x, a b c, y)", "x=v1,y=v6", "exact"),
    ("(x, a b c, y)", "x=v1,y=v6", "approx-additive"),
    ("(x, a b, y)", "x=v1,y=v4", "auto"),
], ids=["exact", "approx-additive", "short-word"])
def test_solve_builds_out_lists_once_and_values_the_baseline_once(monkeypatch, fig_graph, qtext, btext, mode):
    """One request builds its out-lists once and searches the empty
    coalition once before the engine runs."""
    builds, baseline, at_engine = [], [], []

    def counted_out_lists(g, need, original=query.out_lists):
        builds.append(g)
        return original(g, need)

    def counted_holds(out, atoms, mask, original=query.holds_on_mask):
        if mask == 0:
            baseline.append(mask)
        return original(out, atoms, mask)

    def entering(original):
        def engine(*args, **kwargs):
            at_engine.append(len(baseline))
            return original(*args, **kwargs)
        return engine

    for module in (query, explain):
        monkeypatch.setattr(module, "out_lists", counted_out_lists)
        monkeypatch.setattr(module, "holds_on_mask", counted_holds)
    for name in ("shapley_lineage_all", "sample_pivots"):
        monkeypatch.setattr(game, name, entering(getattr(game, name)))
    req = request(fig_graph, qtext, btext, mode=mode, eps=0.1, delta=0.05)
    assert explain.solve(req).method in ("exact-lineage", "mc-additive")
    assert len(builds) == 1
    assert at_engine == [1]


def test_solve_vertex_kind_uses_generic_engine(fig_graph):
    report = explain.solve(
        request(fig_graph, "(x, a b, y)", "x=v1,y=v4", player_kind="vertex")
    )
    assert report.method == "exact-lineage"
    for v in ("v1", "v2", "v4"):
        assert report.values[v] == Fraction(1, 3)
    assert report.values["v6"] == 0


MODES = ("auto", "exact", "approx-additive", "approx-multiplicative")


def test_solve_degenerate_reports(fig_graph):
    # no engine runs: the values are those of an empty lineage, and of a
    # lineage holding mask 0
    report = explain.solve(request(fig_graph, "(x, {}, y)", "x=v1,y=v6"))
    assert "empty-language-atom" in report.flags
    assert report.method == "exact-lineage"
    assert all(v == 0 for v in report.values.values())
    assert report.values == game.shapley_lineage_all(sorted(report.values), [], [0])

    g = load_graph("u1 a u2 x\nu2 b u3 x\nu1 b u3 n\n")
    report = explain.solve(request(g, "(x, a b, y)", "x=u1,y=u3"))
    assert "answer-exogenous" in report.flags
    assert report.method == "exact-lineage"
    assert report.values == {"u1->u3": 0} == game.shapley_lineage_all(["u1->u3"], [0], [0])

    # an empty atom empties the lineage whatever the other atoms are: the
    # 3-edge chain gets the one all-zero report in every mode, beside an
    # infinite atom in approx-multiplicative too
    chain = load_graph(CHAIN3)
    expected = game.ShapleyReport("exact-lineage", dict.fromkeys(["u1->u2", "u2->u3", "u3->u4"], Fraction(0)),
                                  ("empty-language-atom",))
    for qtext, btext in (("(x, {}, y)", "x=u1,y=u4"), ("(x, a b, y) & (y, {}, z)", "x=u1,y=u3,z=u4"),
                         ("(x, a*, y) & (y, {}, z)", "x=u1,y=u2,z=u4")):
        for mode in MODES:
            assert explain.solve(request(chain, qtext, btext, mode=mode)) == expected, (qtext, mode)


# queries of the empty language or the empty word in some atom, each with
# whether some atom's language is infinite
DEGENERATE_QUERIES = {
    "(x, {}, y)": False,
    "(x, {}*, y)": False,
    "(x, a b, y) & (y, {}, z)": False,
    "(x, a*, y) & (y, {}, z)": True,
    "(x, {}*, y) & (y, a*, y)": True,
}


@given(
    seed=st.integers(0, 2**32 - 1),
    qtext=st.sampled_from(sorted(DEGENERATE_QUERIES)),
    player_kind=st.sampled_from(["edge", "vertex"]),
)
@settings(max_examples=150, deadline=None)
def test_degenerate_requests_agree_across_modes(seed, qtext, player_kind):
    """On small random graphs, a request under a query with an empty or
    empty-word atom is refused only where a mode names it, InfiniteLanguage
    for a multiplicative request over an infinite atom or BudgetExceeded
    past an explicit mode's cap; every other mode gives the same flagged
    report when one mode flags it, and the same null players."""
    g, q, mu = _random_request(random.Random(seed), qtext, small=True)
    players, _, _ = explain._request_game(g, q, mu, player_kind)
    assume(players)
    reports = []
    for mode in MODES:
        req = explain.ExplainRequest(g, q, mu, player_kind=player_kind, mode=mode, eps=0.3, delta=0.5, seed=seed)
        try:
            reports.append(explain.solve(req))
        except InfiniteLanguage:
            assert mode == "approx-multiplicative" and DEGENERATE_QUERIES[qtext], mode
        except BudgetExceeded:
            assert mode != "auto", mode
    flagged = [r for r in reports if r.flags]
    if flagged:
        assert all(r == flagged[0] for r in reports)
    nulls = {frozenset(p for p, v in r.values.items() if not getattr(v, "successes", v)) for r in reports}
    assert len(nulls) == 1


def test_solve_no_players():
    g = load_graph("u1 a u2 x\n")
    with pytest.raises(NoPlayers):
        explain.solve(request(g, "(x, a, y)", "x=u1,y=u2"))


def test_solve_exact_respects_subset_cap(monkeypatch):
    """The step budget, not a player count, bounds an exact request: 24
    players are counted, and refused over a budget the lineage exceeds."""
    rng = random.Random(8)
    g = random_labeled_graph(rng, 6, 24, exo_prob=0.0)
    req = request(g, "(x, a b*, y)", "x=u0,y=u5", mode="exact")
    report = explain.solve(req)
    assert (report.method, len(report.values), sum(report.values.values())) == ("exact-lineage", 24, 1)
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 5)
    with pytest.raises(BudgetExceeded):
        explain.solve(req)


def test_solve_multiplicative_needs_finite_language(fig_graph):
    req = request(fig_graph, "(x, a b*, y)", "x=v1,y=v6", mode="approx-multiplicative")
    with pytest.raises(InfiniteLanguage):
        explain.solve(req)


def test_solve_auto_falls_back_to_additive_sampling(monkeypatch):
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    g = load_graph(CHAIN3)
    req = request(
        g, "(x, a .*, y)", "x=u1,y=u4", eps=0.3, delta=0.2, seed=5
    )
    report = explain.solve(req)
    assert report.method == "mc-additive"
    assert "no-multiplicative-guarantee" in report.flags


# the chain plus 20 stray edges: 23 players, past the former subset cap,
# where the (1+eps) wrapper at eps=0.05, delta=0.01 needs about 1.3e11 trials
CHAIN3_STRAYS = CHAIN3 + "".join(f"w{i} a w{i + 1} n\n" for i in range(20))


def test_solve_auto_counts_the_lineage_past_the_former_subset_cap():
    report = explain.solve(request(load_graph(CHAIN3_STRAYS), "(x, a b c, y)", "x=u1,y=u4"))
    assert (report.method, report.flags) == ("exact-lineage", ())
    chain = {"u1->u2", "u2->u3", "u3->u4"}
    assert report.values == {e: Fraction(1, 3) if e in chain else 0 for e in report.values}
    assert len(report.values) == 23


def test_solve_auto_falls_back_to_additive_over_trial_cap(monkeypatch):
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    g = load_graph(CHAIN3_STRAYS)
    req = request(g, "(x, a b c, y)", "x=u1,y=u4", seed=5)
    trials = game.sample_count(explain.multiplicative_tolerance(explain.gap_bound(req.query, 23), 0.05), 0.01)
    assert trials > game.TRIAL_CAP
    report = explain.solve(req)
    assert report.method == "mc-additive"
    assert report.flags == (f"no-multiplicative-guarantee:trials={trials}",)
    assert all(est.samples == game.sample_count(0.05, 0.01) for est in report.values.values())
    assert sum(est.successes for est in report.values.values()) == report.values["u1->u2"].samples


def test_solve_over_trial_cap_when_the_gap_underflows_a_float(monkeypatch):
    # one word of length 520 on 520 players: gap 1/(520 C(519, 259)) is
    # about 1e-158, so the tolerance's square is subnormal and the trial
    # count past the float range, infinite; the one-term lineage is counted
    # unless its budget is cut
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    g = load_graph("".join(f"u{i} a u{i + 1} n\n" for i in range(520)))
    qtext = "(x, " + " ".join(["a"] * 520) + ", y)"
    req = request(g, qtext, "x=u0,y=u520", eps=0.5, delta=0.5)
    tolerance = explain.multiplicative_tolerance(explain.gap_bound(req.query, 520), 0.5)
    assert 0 < tolerance * tolerance < sys.float_info.min
    assert game.sample_count(tolerance, 0.5) == math.inf
    report = explain.solve(req)
    assert report.method == "mc-additive"
    assert report.flags == ("no-multiplicative-guarantee:trials=inf",)
    with pytest.raises(BudgetExceeded):
        explain.solve(request(g, qtext, "x=u0,y=u520", mode="approx-multiplicative"))


@pytest.mark.parametrize(
    "mode, eps", [("approx-multiplicative", 0.05), ("approx-additive", 1e-4)]
)
def test_solve_explicit_sampler_over_trial_cap_before_any_valuation(monkeypatch, mode, eps):
    calls = []
    holds = explain.holds_on_mask
    monkeypatch.setattr(
        explain, "holds_on_mask", lambda *args: calls.append(args[-1]) or holds(*args)
    )
    g = load_graph(CHAIN3_STRAYS)
    with pytest.raises(BudgetExceeded):
        explain.solve(request(g, "(x, a b c, y)", "x=u1,y=u4", mode=mode, eps=eps))
    assert calls == []
    explain.solve(request(g, "(x, a b c, y)", "x=u1,y=u4", mode="approx-additive", eps=0.3))
    assert calls  # the counter sees the valuations of a request under the cap


def test_solve_auto_multiplicative_for_finite_languages(monkeypatch):
    monkeypatch.setattr(explain, "LINEAGE_BUDGET", 2)
    g = load_graph(CHAIN3)
    req = request(
        g, "(x, a b c, y)", "x=u1,y=u4", eps=0.5, delta=0.2, seed=5
    )
    report = explain.solve(req)
    assert report.method == "mc-multiplicative"
    est = report.values["u2->u3"]
    assert Fraction(1, 3) / Fraction(3, 2) <= est.value <= Fraction(1, 3) * Fraction(3, 2)


def test_solve_samples_large_eps_as_given(fig_graph):
    """An additive eps of 1 or more is vacuous but valid: sampled and
    reported as given, unflagged, with at least one trial."""
    for eps, trials in ((2.0, 1), (1e200, 1)):
        req = request(fig_graph, "(x, a b c, y)", "x=v1,y=v6", mode="approx-additive", eps=eps, delta=0.1)
        report = explain.solve(req)
        assert report.flags == ()
        assert {(est.eps, est.samples) for est in report.values.values()} == {(eps, trials)}


def test_solve_keeps_every_finite_eps():
    """A multiplicative eps is sampled at its own tolerance and reported as
    given, unflagged, below 1 and from 1 up."""
    g = load_graph(CHAIN3)
    gap = explain.gap_bound(crpq("(x, a b c, y)"), 3)
    for eps, trials in ((0.995, 384), (1.0, 382), (3.0, 170)):
        req = request(g, "(x, a b c, y)", "x=u1,y=u4", mode="approx-multiplicative", eps=eps)
        report = explain.solve(req)
        assert game.sample_count(explain.multiplicative_tolerance(gap, eps), 0.01) == trials
        assert report.flags == ()
        assert {(est.eps, est.samples) for est in report.values.values()} == {(eps, trials)}


def test_solve_validates_parameters(fig_graph):
    for eps, delta in ((-1.0, 0.01), (0.05, 1.5), (0.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (0.5, 0.0),
                       (0.5, 1.0)):
        for mode in ("auto", "exact", "approx-additive", "approx-multiplicative"):
            with pytest.raises(ValueError):
                explain.solve(request(fig_graph, "(x, a, y)", "x=v1,y=v2", mode=mode, eps=eps, delta=delta))
    with pytest.raises(ValueError):
        explain.solve(
            request(fig_graph, "(x, a, y)", "x=v1,y=v2", player_kind="hyperedge")
        )


def test_solve_refuses_a_negative_seed(monkeypatch, fig_graph):
    """``random.Random(-s)`` draws the stream of ``Random(s)``, so a
    negative seed would report itself over another seed's estimates: every
    mode refuses it before any valuation, and seed 0 samples."""
    assert random.Random(-3).getrandbits(64) == random.Random(3).getrandbits(64)
    calls = []
    monkeypatch.setattr(explain, "holds_on_mask", _counting_holds(calls))
    for mode in ("auto", "exact", "approx-additive", "approx-multiplicative"):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            explain.solve(request(fig_graph, "(x, a b c, y)", "x=v1,y=v6", mode=mode, seed=-3))
    assert calls == []
    report = explain.solve(request(fig_graph, "(x, a b c, y)", "x=v1,y=v6", mode="approx-additive", seed=0))
    assert {est.seed for est in report.values.values()} == {0}
