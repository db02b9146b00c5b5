import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathshap import explain, game, query
from pathshap.errors import BudgetExceeded, EnumerationOverflow
from pathshap.graph import load_graph

from helpers import (
    Game,
    brute_shapley,
    edge_game,
    mc_estimates,
    pivot_oracle_counts,
    pivot_oracle_estimates,
    random_monotone_game,
    reference_minimal_masks,
    reference_term_components,
    shapley_exact_permutation,
    shapley_exact_permutation_all,
    shapley_exact_subset_all,
    shuffles,
)


def make_game(players, winners):
    winners = [frozenset(w) for w in winners]
    return Game.of_sets(players, lambda b: 1 if any(w <= b for w in winners) else 0)


# --- exact engines ----------------------------------------------------------

def test_two_player_chain_splits_evenly():
    g = make_game(["e1", "e2"], [{"e1", "e2"}])
    assert shapley_exact_subset_all(g)["e1"] == Fraction(1, 2)
    assert shapley_exact_permutation(g, "e2") == Fraction(1, 2)


def test_dictator_and_null_player():
    g = make_game(["d", "n"], [{"d"}])
    values = shapley_exact_subset_all(g)
    assert values["d"] == 1
    assert values["n"] == 0


def test_subset_all_matches_per_player():
    g = make_game(list("abcd"), [{"a", "b"}, {"c"}])
    per_player = {p: shapley_exact_permutation(g, p) for p in g.players}
    assert shapley_exact_subset_all(g) == per_player


def test_engines_match_textbook_sum_on_random_games():
    rng = random.Random(5)
    for trial in range(40):
        players = [f"p{i}" for i in range(rng.randint(1, 6))]
        valuation = random_monotone_game(rng, players)
        g = Game.of_sets(players, valuation)
        expected = brute_shapley(players, valuation)
        assert shapley_exact_subset_all(g) == expected, trial
        assert shapley_exact_permutation_all(g) == expected, trial


@st.composite
def monotone_games(draw, max_players=5, max_winners=3):
    n = draw(st.integers(min_value=1, max_value=max_players))
    players = [f"p{i}" for i in range(n)]
    winners = draw(
        st.lists(
            st.sets(st.sampled_from(players), min_size=1).map(frozenset),
            max_size=max_winners,
        )
    )
    return players, winners


@given(monotone_games())
@settings(max_examples=60, deadline=None)
def test_engines_agree_property(players_winners):
    players, winners = players_winners
    g = make_game(players, winners)
    values = shapley_exact_subset_all(g)
    assert values == shapley_exact_permutation_all(g)
    assert sum(values.values()) == g.valuation(frozenset(players))


@given(monotone_games(max_players=8, max_winners=4))
@settings(max_examples=60, deadline=None)
def test_size_counting_engine_matches_textbook_sum(players_winners):
    players, winners = players_winners
    g = make_game(players, winners)
    assert shapley_exact_subset_all(g) == brute_shapley(players, g.valuation)


def _named(n, *groups):
    return [f"p{i}" for i in range(n)], [frozenset(f"p{i}" for i in g) for g in groups]


@given(monotone_games(max_players=9, max_winners=6))
@example(([f"p{i}" for i in range(6)], [frozenset({"p4", "p5"}), frozenset({"p3", "p5"})]))
@example(_named(6, *itertools.combinations(range(6), 2)))  # a threshold lineage
# three disjoint fans, and a null player
@example(_named(11, (0, 1), (0, 2), (3, 4), (3, 5), (3, 6), (7, 8), (7, 9)))
# a singleton term beside longer terms that share its player
@example(_named(5, (0,), (0, 1), (0, 2, 3), (1, 2), (2, 3, 4)))
@example(_named(5, (0, 1, 2), (0, 3), (1, 3, 4)))  # a split whose branches both leave players free
@example(_named(12, *((i, i + 1) for i in range(0, 12, 2))))  # six identical disjoint pairs
@example(_named(6, (0,), (1,), (2, 3, 4)))  # two identical singletons, a triple and a null player
@example(_named(7, (0, 1, 2), (0, 3, 4), (0, 5, 6)))  # identical disjoint pairs under a split
@example(_named(4))  # the empty lineage
@example(_named(4, (), (0, 1)))  # a lineage holding mask 0
@settings(max_examples=100, deadline=None)
def test_lineage_counter_matches_textbook_sum(players_winners):
    players, winners = players_winners
    g = make_game(players, winners)
    terms = game.minimal_masks((g.mask_of(w) for w in winners), [10**6])
    assert all(t | u != t for t in terms for u in terms if t != u)
    assert game.shapley_lineage_all(players, terms, [10**6]) == brute_shapley(players, g.valuation)


def test_lineage_counter_values_a_threshold_lineage_inside_the_sweep_budget(monkeypatch):
    """All 2-subsets of 12 players: the build and the reverse pass both
    spend, and together they fit in 4 << 12 steps, four per coalition of
    the 12 players."""
    players = [f"p{i}" for i in range(12)]
    terms = [(1 << i) | (1 << j) for i, j in itertools.combinations(range(12), 2)]
    at_reverse = []
    reverse = game._reverse
    monkeypatch.setattr(game, "_reverse", lambda *args: at_reverse.append(args[-1][0]) or reverse(*args))
    budget = [4 << 12]
    assert game.shapley_lineage_all(players, terms, budget) == dict.fromkeys(players, Fraction(1, 12))
    assert 0 <= budget[0] < at_reverse[0] < 4 << 12


def _looped_fan(branches):
    """``s -a-> m_i -b-> t`` for every branch, ``s -c-> t``, and the loops
    ``s -a-> s`` and ``t -b-> t``, whose edges are in no minimal term."""
    return "s c t n\ns a s n\nt b t n\n" + "".join(f"s a m{i} n\nm{i} b t n\n" for i in range(branches))


def _request_lineage(graph_text, qtext, btext, player_kind):
    g = load_graph(graph_text)
    q = query.compile_crpq(qtext, g.alphabet)
    players, _, lineage = explain._request_game(g, q, query.parse_binding(btext, q), player_kind)
    return players, lineage([10**7])


FAN_QUERY = "(x, a b | a c | c, y)"
GRID4 = "".join(f"g{i}{j} a g{i}{j + 1} n\ng{j}{i} a g{j + 1}{i} n\n" for i in range(4) for j in range(3))
LAYERS4 = [["x"]] + [[f"l{i}{j}" for j in range(2)] for i in range(4)] + [["y"]]
LAYERED4 = "".join(f"{u} a {v} n\n" for a, b in zip(LAYERS4, LAYERS4[1:]) for u in a for v in b)


@pytest.mark.parametrize("players, terms, size, steps", [
    (*_request_lineage(_looped_fan(20), FAN_QUERY, "x=s,y=t", "edge"), 43, 8654),
    (*_request_lineage(GRID4, "(x, a*, y)", "x=g00,y=g33", "edge"), 24, 86875),
    (*_request_lineage(LAYERED4, "(x, a*, y)", "x=x,y=y", "vertex"), 10, 2171),
    ([f"p{i}" for i in range(12)], [(1 << i) | (1 << j) for i, j in itertools.combinations(range(12), 2)], 12, 9312),
], ids=["looped-fan-edges", "grid-4x4-edges", "layered-4x2-vertices", "all-pairs"])
def test_lineage_counter_spends_the_pinned_steps(players, terms, size, steps):
    """The counter's steps fix where ``exact`` refuses with exit 5 and
    where ``auto``, within its sampler's cost, stops counting and samples,
    so they are pinned: any change to what the counter charges fails
    here."""
    assert len(players) == size
    budget = [10**7]
    values = game.shapley_lineage_all(players, terms, budget)
    assert sum(values.values()) == 1
    assert 10**7 - budget[0] == steps


def test_lineage_counter_values_a_wide_fan_in_little_memory():
    """161 branches: 325 edges, 323 of them in the lineage.  Its 161
    branches share one quotient and one gain, so the count holds a few
    polynomials, not one per player."""
    players, terms = _request_lineage(_looped_fan(161), FAN_QUERY, "x=s,y=t", "edge")
    assert len(players) == 325 and len(terms) == 162
    tracemalloc.start()
    try:
        values = game.shapley_lineage_all(players, terms, [10**7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert values.pop("s->s") == values.pop("t->t") == 0
    branch = Fraction(
        14258615552204133257304520526740427026721394027966630575321975173578431295509177710172057121274375,
        4935168120592997432117654104303715393055324305104676141215149704751632253004638351229099289047137486)
    assert values.pop("s->t") + 322 * branch == 1
    assert set(values.values()) == {branch}


def test_lineage_counter_spends_its_budget():
    players = [f"p{i}" for i in range(4)]
    terms = [0b0011, 0b0110, 0b1100]
    budget = [1000]
    values = game.shapley_lineage_all(players, terms, budget)
    assert sum(values.values()) == 1 and budget[0] < 1000
    with pytest.raises(BudgetExceeded):
        game.shapley_lineage_all(players, terms, [1])


# --- the term-set work against its quadratic scans ----------------------------

# masks over 10 players: few bits, so that masks contain one another, or any
MASKS = st.one_of(
    st.frozensets(st.integers(0, 9), max_size=4).map(lambda bits: sum(1 << b for b in bits)),
    st.integers(0, (1 << 10) - 1),
)
STEPS = st.one_of(st.just(10**7), st.integers(0, 3000))


@given(st.lists(MASKS, max_size=40), STEPS)
@example([6, 0, 6, 1], 10**7)  # mask 0 and a repeated mask
@example([3, 3, 1, 6, 7, 6], 10**7)
@example([0, 0, 5], 2)  # runs out at the mask after the empty one
@example([1, 2, 3, 4, 5, 6, 7], 12)
@settings(max_examples=300, deadline=None)
def test_minimal_masks_matches_the_scan(masks, steps):
    """The indexed antichain keeps the masks the scan keeps and charges
    the scan's steps, to the mask where the budget runs out."""
    outcomes = []
    for minimal in (game.minimal_masks, reference_minimal_masks):
        budget = [steps]
        try:
            outcomes.append((minimal(masks, budget), budget[0]))
        except BudgetExceeded:
            outcomes.append(("exhausted", budget[0]))
    assert outcomes[0] == outcomes[1]


@given(st.frozensets(MASKS.filter(bool), min_size=1, max_size=24))
@example(frozenset({0b11, 0b1100, 0b110000}))  # pairwise disjoint
@example(frozenset({0b11, 0b110, 0b1100000, 0b1000000000}))  # a chain of two, and two apart
@example(frozenset({0b1111111}))
@settings(max_examples=300, deadline=None)
def test_term_components_matches_the_scan(terms):
    """The same partition; ``_compile`` hands it no empty term."""
    def partition(groups):
        return sorted(sorted(group) for group in groups)

    assert partition(game._term_components(terms)) == partition(reference_term_components(terms))


@given(st.lists(MASKS, max_size=14), STEPS)
@example([0b11, 0b110, 0b1100, 0b11000, 0b110000], 10**7)  # a path of pairs: splits and products
@example([0, 0b11, 0b11], 10**7)  # mask 0 and a repeated term
@settings(max_examples=150, deadline=None)
def test_lineage_counter_charges_the_steps_of_the_scans(terms, steps):
    """The counter on the indexed term-set work gives the values and the
    steps it gives on the scans, and runs out of the same budgets."""
    players = [f"p{i}" for i in range(10)]

    def count():
        budget = [steps]
        try:
            return game.shapley_lineage_all(players, terms, budget), budget[0]
        except BudgetExceeded:
            return "exhausted"

    indexed = count()
    with mock.patch.object(game, "minimal_masks", reference_minimal_masks), \
            mock.patch.object(game, "_term_components", reference_term_components):
        assert count() == indexed


def test_overflow_before_any_table_or_valuation():
    calls = []
    g = Game([f"p{i}" for i in range(40)], lambda mask: calls.append(mask) or 0)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationOverflow):
            shapley_exact_subset_all(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 1 << 20  # a 2^40-entry table would be a terabyte


def test_shapley_axioms_on_random_games():
    rng = random.Random(17)
    for _ in range(30):
        players = [f"p{i}" for i in range(rng.randint(2, 6))]
        valuation = random_monotone_game(rng, players)
        g = Game.of_sets(players, valuation)
        values = shapley_exact_subset_all(g)
        grand = valuation(frozenset(players))
        assert sum(values.values()) == grand  # efficiency (v(empty)=0)
        assert all(v >= 0 for v in values.values())  # monotone => non-negative


def test_enumeration_caps():
    players = [f"p{i}" for i in range(12)]
    g = make_game(players, [set(players)])
    with pytest.raises(EnumerationOverflow):
        shapley_exact_subset_all(g, cap=10)
    with pytest.raises(EnumerationOverflow):
        shapley_exact_permutation_all(g, cap=9)


def test_permutation_oracle_on_running_example_edge(fig_graph):
    # an edge shared by both matching paths of the infinite-language atom
    q = query.compile_crpq("(x, a b*, y)", fig_graph.alphabet)
    mu = query.parse_binding("x=v1,y=v6", q)
    g = edge_game(fig_graph, q, mu)
    assert shapley_exact_permutation(g, "v2->v6") == Fraction(1, 4)


# --- sampling ---------------------------------------------------------------

def test_sample_count_formula():
    assert game.sample_count(0.05, 0.01) == 1060
    assert game.sample_count(0.1, 0.05) == 185
    assert game.sample_count(0.2, 0.1) == 38
    # never 0 trials, however vacuous the tolerance
    assert game.sample_count(1.5, 0.01) == 2
    assert game.sample_count(1e200, 0.01) == game.sample_count(math.inf, 0.01) == 1


def test_sample_count_past_the_overflow_of_two_over_delta():
    """Where 2/delta overflows, ln(2/delta) reads as ln 2 - ln delta, so a
    tiny delta is a finite count; wherever 2/delta is finite, every normal
    delta included, the count is the formula as written."""
    assert game.sample_count(0.05, 1.2e-308) == 141942  # 2/delta is still finite
    assert game.sample_count(0.05, 1e-308) == 141978
    assert game.sample_count(0.05, 5e-324) < math.inf  # the least subnormal
    deltas = [m * 10.0 ** -k for k in range(1, 308) for m in (1.0, 2.5, 7.0)] + [0.5, 0.99, sys.float_info.min]
    for eps in (1e-4, 0.05, 0.3, 2.0):
        for delta in deltas:
            assert game.sample_count(eps, delta) == max(1, math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps)))


def test_mc_exact_on_degenerate_games():
    null = make_game(["a", "b"], [])
    est = mc_estimates(null.players, null.value, 0.3, 0.1, seed=1)["a"]
    assert est.successes == 0 and est.value == 0
    dictator = make_game(["a", "b", "c"], [{"a"}])
    est = mc_estimates(dictator.players, dictator.value, 0.3, 0.1, seed=1)["a"]
    assert est.value == 1


def test_mc_deterministic_per_seed():
    g = make_game(list("abcde"), [{"a", "b"}, {"c", "d", "e"}])
    first = mc_estimates(g.players, g.value, 0.1, 0.05, seed=42)
    second = mc_estimates(g.players, g.value, 0.1, 0.05, seed=42)
    assert first == second
    other = mc_estimates(g.players, g.value, 0.1, 0.05, seed=43)
    assert other["b"].samples == first["b"].samples  # same contract, different draw


@given(
    monotone_games(max_players=8, max_winners=4),
    st.sampled_from([0.2, 0.3, 0.5]),
    st.integers(min_value=0, max_value=2**32),
)
@example((["p0", "p1", "p2"], []), 0.3, 7)  # null game
@example((["p0", "p1", "p2"], [frozenset({"p1"})]), 0.3, 7)  # dictator
@settings(max_examples=60, deadline=None)
def test_pivot_sampler_matches_linear_scan_oracle(players_winners, eps, seed):
    players, winners = players_winners
    g = make_game(players, winners)
    estimates = mc_estimates(g.players, g.value, eps, 0.1, seed)
    trials = game.sample_count(eps, 0.1)
    expected = pivot_oracle_counts(players, g.valuation, trials, seed)
    assert {p: est.successes for p, est in estimates.items()} == expected
    assert all(est.samples == trials for est in estimates.values())


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1])
def test_shuffles_draw_the_stdlib_shuffle_stream(seed):
    """At veto mask 0 the sampler hands its pivot every order it draws, and
    those are the permutations that random.Random(seed) shuffling the same
    list in place gives, trial after trial."""
    for n in range(2, 41):
        orders = []
        game.sample_pivots([f"p{i}" for i in range(n)], lambda order: orders.append(order.copy()) or order[0],
                           (1 << n) - 1, 0, 200, 0.1, 0.1, seed)
        expected = [1 << i for i in range(n)]
        rng = random.Random(seed)
        for trial, order in enumerate(orders):
            rng.shuffle(expected)
            assert order == expected, (n, trial)
        assert len(orders) == 200


@st.composite
def monotone_dnfs(draw):
    """A random monotone DNF over 1-12 player bits: 1-6 nonempty terms,
    not reduced to the minimal ones."""
    n = draw(st.integers(min_value=1, max_value=12))
    terms = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=6))
    return [f"p{i}" for i in range(n)], terms


def _pivot_rule(terms, rule):
    if rule == "term":
        return game.term_pivot(terms)
    return game.search_pivot(lambda mask: any(t & mask == t for t in terms))


def _sampled(players, terms, pivot, trials, seed):
    """``sample_pivots`` as ``solve`` calls it: over the terms' support, with
    their AND as the veto mask."""
    support = reduce(or_, terms, 0)
    return game.sample_pivots(players, pivot, support, reduce(and_, terms, support), trials, 0.1, 0.05, seed)


@given(monotone_dnfs(), st.sampled_from(["term", "search"]), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=2**32))
@example((["p0", "p1", "p2"], [0b111]), "term", 50, 1)  # one term: every pivot arrives last
@example((["p0", "p1", "p2"], [0b001, 0b010, 0b100]), "search", 50, 1)  # disjoint singletons: veto mask 0
@example((["p0", "p1", "p2", "p3"], [0b0011, 0b0101, 0b1001]), "term", 50, 1)  # one shared player
@settings(max_examples=150, deadline=None)
def test_sampler_matches_the_forward_pivot_oracle(dnf, rule, trials, seed):
    """With the veto rule, on either pivot rule, the sampler returns exactly
    the estimates of the forward scan of every order of the stdlib stream."""
    players, terms = dnf
    assert (_sampled(players, terms, _pivot_rule(terms, rule), trials, seed)
            == pivot_oracle_estimates(players, terms, trials, 0.1, 0.05, seed))


def _pivot_calls(players, terms, rule, trials, seed):
    """The last player of each order the sampler hands its pivot, after
    checking its estimates against the oracle's."""
    calls = []
    inner = _pivot_rule(terms, rule)
    estimates = _sampled(players, terms, lambda order: calls.append(order[-1]) or inner(order), trials, seed)
    assert estimates == pivot_oracle_estimates(players, terms, trials, 0.1, 0.05, seed)
    return calls


@pytest.mark.parametrize("rule", ["term", "search"])
def test_a_one_term_lineage_reads_every_pivot_last(rule):
    """Every player of a single term is a veto player: the pivot is never
    asked, and each player pivots about a third of the trials."""
    assert _pivot_calls(["a", "b", "c", "d"], [0b0111], rule, 3000, 5) == []
    estimates = pivot_oracle_estimates(["a", "b", "c", "d"], [0b0111], 3000, 0.1, 0.05, 5)
    assert all(900 < estimates[p].successes < 1100 for p in "abc") and estimates["d"].successes == 0


@pytest.mark.parametrize("rule", ["term", "search"])
def test_disjoint_singletons_ask_the_pivot_of_every_order(rule):
    """Terms that share no player leave the veto mask 0: every order goes
    to the pivot, and the first arrival pivots."""
    assert len(_pivot_calls(["a", "b", "c"], [0b001, 0b010, 0b100], rule, 500, 9)) == 500


@pytest.mark.parametrize("rule", ["term", "search"])
@pytest.mark.parametrize("terms", [[0b0011, 0b0101], [0b0111, 0b1011], [0b00111, 0b01101, 0b10101]])
def test_a_shared_player_pivots_whenever_it_arrives_last(rule, terms):
    """On lineages whose terms share players, as paths that share an edge
    do, the orders that end with a shared player never reach the pivot,
    and every other order does."""
    veto = reduce(and_, terms)
    calls = _pivot_calls(["a", "b", "c", "d", "e"], terms, rule, 2000, 3)
    assert calls and not any(b & veto for b in calls)
    orders = shuffles(game._bits(reduce(or_, terms)), 3, 2000)
    assert len(calls) == sum(1 for order in orders if not order[-1] & veto)


@given(
    monotone_games(max_players=7, max_winners=4),
    st.integers(min_value=0, max_value=3),
    st.randoms(use_true_random=False),
    st.sampled_from([0.2, 0.3, 0.5]),
    st.integers(min_value=0, max_value=2**32),
)
@example((["p0", "p1", "p2"], [frozenset({"p0", "p1"})]), 1, random.Random(0), 0.3, 7)  # a two-player term, two nulls
@settings(max_examples=60, deadline=None)
def test_support_sampler_matches_the_oracle_over_the_support(players_winners, nulls, rng, eps, seed):
    """Over the support of a game's minimal winning masks, with null players
    among the others, the term pivot and the predicate's search both give
    the linear-scan oracle's counts over the support's players, and every
    null player reads 0 over the N samples."""
    players, winners = players_winners
    everyone = players + [f"z{i}" for i in range(nulls)]
    rng.shuffle(everyone)
    g = make_game(everyone, winners)
    terms = game.minimal_masks((g.mask_of(w) for w in winners), [10**6])
    support = reduce(or_, terms, 0)
    inside = [p for i, p in enumerate(everyone) if support >> i & 1]
    trials = game.sample_count(eps, 0.1)
    expected = pivot_oracle_counts(inside, g.valuation, trials, seed)
    for estimates in (game.sample_pivots(everyone, game.term_pivot(terms), support, reduce(and_, terms, support),
                                         trials, eps, 0.1, seed),
                      mc_estimates(everyone, g.value, eps, 0.1, seed, support)):
        assert {p: estimates[p].successes for p in inside} == expected
        assert all(est.successes == 0 for p, est in estimates.items() if p not in inside)
        assert all(est.samples == trials for est in estimates.values())
        assert sum(est.successes for est in estimates.values()) == (trials if terms else 0)


@given(st.lists(st.integers(min_value=1, max_value=2**12 - 1), min_size=2, max_size=30, unique=True))
@settings(max_examples=200, deadline=None)
def test_split_player_is_the_most_frequent_lowest_bit(terms):
    """``_compile``'s one-pass count picks the split the per-bit scan picked:
    the bit in most terms, ties to the lowest."""
    support = reduce(or_, terms)
    expected = max(game._bits(support), key=lambda b: sum(1 for t in terms if t & b))
    assert game._most_frequent(frozenset(terms), support.bit_length()) == expected


def test_mc_all_players_successes_sum_to_samples():
    g = make_game(list("abcdefg"), [{"a", "b"}, {"c", "d"}, {"e", "f", "g"}])
    every = mc_estimates(g.players, g.value, 0.1, 0.05, seed=3)
    samples = game.sample_count(0.1, 0.05)
    assert sum(est.successes for est in every.values()) == samples
    assert all(est.samples == samples for est in every.values())


def test_one_player_support_pivots_in_every_order_without_a_draw():
    def pivot(order):
        raise AssertionError("no order is drawn")

    for support, successes in ((0b010, [0, 100, 0]), (0, [0, 0, 0])):
        for veto in (0, support):
            estimates = game.sample_pivots(["a", "b", "c"], pivot, support, veto, 100, 0.1, 0.05, 7)
            assert [est.successes for est in estimates.values()] == successes
            assert all(est.samples == 100 for est in estimates.values())


def test_mc_close_to_exact():
    players = list("abc")
    g = make_game(players, [{"a", "b"}, {"a", "c"}])
    exact = shapley_exact_subset_all(g)["a"]  # 2/3
    assert exact == Fraction(2, 3)
    est = mc_estimates(g.players, g.value, 0.05, 0.01, seed=0)["a"]
    assert abs(est.value - exact) <= Fraction(1, 20)


def test_memo_values_a_mask_again_after_a_clear(monkeypatch, fig_graph):
    """With room for two entries the memo clears when a third mask comes:
    a mask asked again after a clear runs the product search again, and the
    sampler's estimates on the memoized search are those on the bare one."""
    q = query.compile_crpq("(x, a b*, y)", fig_graph.alphabet)
    players, holds, _ = explain._request_game(fig_graph, q, query.parse_binding("x=v1,y=v6", q), "edge")
    monkeypatch.setattr(game, "VALUATION_CACHE_SIZE", 2)
    calls = []
    value = game.memoized(lambda mask: calls.append(mask) or holds(mask))
    full = (1 << len(players)) - 1
    masks = [full, full, 1, 2, full]
    assert [value(m) for m in masks] == [int(holds(m)) for m in masks]
    assert calls == [full, 1, 2, full]
    del calls[:]
    estimates = mc_estimates(players, value, 0.1, 0.05, seed=4)
    assert estimates == mc_estimates(players, holds, 0.1, 0.05, seed=4)
    assert len(calls) > len(set(calls))
    assert sum(est.successes for est in estimates.values()) == game.sample_count(0.1, 0.05)
