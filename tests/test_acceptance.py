"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line when
its assertions hold; a failing assertion fails the test (and pytest shows
which criterion broke).  Tolerances are stated inline.
"""

import io
import itertools
import random
from collections import Counter
from fractions import Fraction

from pathshap import cli, explain, query
from pathshap.graph import Edge, LabeledGraph, load_graph

from helpers import (
    Game,
    edge_game,
    edge_on_simple_path,
    mc_estimates,
    random_labeled_graph,
    random_monotone_game,
    serialize,
    shapley_exact_permutation_all,
    shapley_exact_subset_all,
    vertex_game,
)

CHAIN3 = "u1 a u2 n\nu2 b u3 n\nu3 c u4 n\n"


def _report(line):
    print(f"\n{line}")


def crpq(text, alphabet=frozenset("abc")):
    return query.compile_crpq(text, alphabet)


def solve(graph, qtext, btext, **kw):
    q = crpq(qtext, graph.alphabet)
    mu = query.parse_binding(btext, q)
    return explain.solve(explain.ExplainRequest(graph, q, mu, **kw))


def test_criterion_1_golden_values(fig_graph):
    """Exact rational equality on the running-example contribution values."""
    third = Fraction(1, 3)
    report = solve(fig_graph, "(x, a b c, y)", "x=v1,y=v6", mode="exact")
    expected = {e: (third if e in ("v1->v3", "v3->v5", "v5->v6") else Fraction(0))
                for e in fig_graph.endo_edges}
    assert report.values == expected

    with_exo = LabeledGraph(
        fig_graph.vertices,
        fig_graph.edges,
        fig_graph.endo_edges - {"v1->v3"},
        fig_graph.endo_vertices,
    )
    report = solve(with_exo, "(x, a b c, y)", "x=v1,y=v6", mode="exact")
    assert report.values["v3->v5"] == Fraction(1, 2)
    assert report.values["v5->v6"] == Fraction(1, 2)

    report = solve(fig_graph, "(x, a b*, y)", "x=v1,y=v6", mode="exact")
    assert report.values["v1->v2"] == Fraction(7, 12)
    assert report.values["v2->v6"] == Fraction(1, 4)
    assert report.values["v2->v4"] == Fraction(1, 12)
    assert report.values["v4->v6"] == Fraction(1, 12)
    assert sum(report.values.values()) == 1
    assert all(
        report.values[e] == 0
        for e in fig_graph.endo_edges
        if e not in ("v1->v2", "v2->v6", "v2->v4", "v4->v6")
    )
    _report("criterion 1 PASS: golden exact values (1/3, 1/2, 7/12, 1/4, 1/12)")


def _axiom_check(g, values, valuation):
    players = list(g.players)
    n = len(players)
    grand = 1 if valuation(frozenset(players)) else 0
    assert sum(values.values()) == grand  # efficiency
    assert all(v >= 0 for v in values.values())  # non-negativity
    subsets = [frozenset(c) for size in range(n) for c in itertools.combinations(players, size)]
    for p in players:
        marginals = [
            valuation(b | {p}) - valuation(b) for b in subsets if p not in b
        ]
        if not any(marginals):
            assert values[p] == 0  # null player
    for p, q_ in itertools.combinations(players, 2):
        symmetric = all(
            valuation(b | {p}) == valuation(b | {q_})
            for b in subsets
            if p not in b and q_ not in b
        )
        if symmetric:
            assert values[p] == values[q_]  # symmetry


def test_criterion_2_definition_agreement():
    """Subset and permutation forms agree exactly; the four axioms hold."""
    rng = random.Random(2)
    for trial in range(200):
        players = [f"p{i}" for i in range(rng.randint(1, 8))]
        valuation = random_monotone_game(rng, players)
        g = Game.of_sets(players, valuation)
        subset = shapley_exact_subset_all(g)
        permutation = shapley_exact_permutation_all(g)
        assert subset == permutation, trial
        if len(players) <= 6:
            _axiom_check(g, subset, valuation)

    # every 4-edge graph over {a, b} on three vertices, all edges endogenous
    vertices = ["u1", "u2", "u3"]
    pairs = [(x, y) for x in vertices for y in vertices if x != y]
    q = crpq("(x, a b, y)", frozenset("ab"))
    mu = query.parse_binding("x=u1,y=u3", q)
    count = 0
    for positions in itertools.combinations(pairs, 4):
        for labels in itertools.product("ab", repeat=4):
            edges = [
                Edge(f"{s}->{t}", s, lab, t)
                for (s, t), lab in zip(positions, labels)
            ]
            graph = LabeledGraph(vertices, edges, [e.id for e in edges], vertices)
            cg = edge_game(graph, q, mu)
            subset = shapley_exact_subset_all(cg)
            assert subset == shapley_exact_permutation_all(cg)
            _axiom_check(cg, subset, cg.valuation)
            count += 1
    assert count == 240
    _report("criterion 2 PASS: subset/permutation agreement + axioms "
            "(200 random games, 240 exhaustive 4-edge games)")


def test_criterion_3_polynomial_algorithm():
    """Short-word requests, counted on the lineage, match the permutation
    oracle on 500 random instances; exact rational equality."""
    rng = random.Random(3)
    word_pool = [("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
    checked = disjoint = overlapping = 0
    while checked < 500:
        g = random_labeled_graph(
            rng,
            rng.randint(2, 4),
            rng.randint(1, 8),
            exo_prob=0.2,
            allow_self_loops=(rng.random() < 0.5),
        )
        if not g.endo_edges or len(g.endo_edges) > 8:
            continue
        words = rng.sample(word_pool, rng.randint(1, 3))
        vs = sorted(g.vertices)
        s, t = rng.choice(vs), rng.choice(vs)

        expr = " | ".join(" ".join(w) for w in words)
        q = crpq(f"(x, {expr}, y)", frozenset("ab"))
        mu = query.Assignment({"x": s, "y": t})
        oracle = shapley_exact_permutation_all(edge_game(g, q, mu))

        # an endogenous edge in two minimal supports makes overlapping matches
        on_supports = Counter(e for support in explain.candidate_supports(g, q, mu) for e in support)
        if any(n > 1 for n in on_supports.values()):
            overlapping += 1
        else:
            disjoint += 1
        got = explain.solve(explain.ExplainRequest(g, q, mu, mode="exact")).values
        assert got == oracle, checked
        checked += 1
    assert disjoint > 0 and overlapping > 0  # both match shapes exercised
    _report(f"criterion 3 PASS: short-word requests == permutation oracle on "
            f"500 instances ({disjoint} disjoint, {overlapping} overlapping match sets)")


def test_criterion_4_additive_sampler_calibration(fig_graph):
    """Empirical failure rate of the (0.1, 0.05) additive estimate over 2000
    seeded runs stays at or below 0.05."""
    q = crpq("(x, a b c, y)")
    mu = query.parse_binding("x=v1,y=v6", q)
    cg = edge_game(fig_graph, q, mu)
    exact = Fraction(1, 3)
    runs = 2000
    failures = 0
    for seed in range(runs):
        est = mc_estimates(cg.players, cg.value, eps=0.1, delta=0.05, seed=seed)["v3->v5"]
        assert est.samples == 185  # ceil(ln(40) / 0.02)
        if abs(est.value - exact) > Fraction(1, 10):
            failures += 1
    assert failures / runs <= 0.05
    _report(f"criterion 4 PASS: additive sampler failure rate "
            f"{failures}/{runs} <= 0.05 at N=185")


def test_additive_calibration_through_solve_on_the_lineage_support(fig_graph_text):
    """Criterion 4's bound through ``solve``, where the sampler shuffles only
    the lineage's support: the running example plus a stray endogenous
    edge, so 3 of 10 players can pivot.  The (0.1, 0.05) estimate of
    v3->v5 fails at a rate of at most 0.05 over 2000 seeds, and the null
    players read 0 in every run."""
    g = load_graph(fig_graph_text.read_text() + "v7 a v8 n\n")
    q = crpq("(x, a b c, y)", g.alphabet)
    mu = query.parse_binding("x=v1,y=v6", q)
    assert len(g.endo_edges) == 10
    runs = 2000
    failures = 0
    for seed in range(runs):
        report = explain.solve(explain.ExplainRequest(g, q, mu, mode="approx-additive", eps=0.1, delta=0.05,
                                                      seed=seed))
        est = report.values["v3->v5"]
        assert est.samples == 185
        if abs(est.value - Fraction(1, 3)) > Fraction(1, 10):
            failures += 1
        assert all(report.values[e].successes == 0 for e in g.endo_edges - {"v1->v3", "v3->v5", "v5->v6"})
    assert failures / runs <= 0.05
    _report(f"solve-level additive calibration PASS: failure rate {failures}/{runs} <= 0.05 at N=185")


def test_criterion_5_multiplicative_wrapper():
    """Outputs within a factor 1.5 of the exact value (failure rate <= 0.05
    over 1000 runs); null players are exactly zero in every run, also when
    the sampler shuffles every player, the null one included, at the
    multiplicative tolerance."""
    g = load_graph(CHAIN3)
    q = crpq("(x, a b c, y)", g.alphabet)
    mu = query.parse_binding("x=u1,y=u4", q)
    assert explain.gap_bound(q, 3) == Fraction(1, 6)
    exact = Fraction(1, 3)
    lo, hi = exact / Fraction(3, 2), exact * Fraction(3, 2)
    failures = 0
    runs = 1000
    for seed in range(runs):
        report = explain.solve(explain.ExplainRequest(g, q, mu, mode="approx-multiplicative", eps=0.5, delta=0.05,
                                                      seed=seed))
        if not lo <= report.values["u2->u3"].value <= hi:
            failures += 1
    assert failures / runs <= 0.05

    stray = load_graph(CHAIN3 + "u5 a u6 n\n")
    cg_null = edge_game(stray, q, mu)
    tolerance = explain.multiplicative_tolerance(explain.gap_bound(q, len(stray.endo_edges)), 0.5)
    for seed in range(100):
        est = mc_estimates(cg_null.players, cg_null.value, tolerance, 0.05, seed)["u5->u6"]
        assert est.value == 0
    _report(f"criterion 5 PASS: multiplicative wrapper failure rate "
            f"{failures}/{runs} <= 0.05; null player exactly 0 in 100/100 runs")


def _nonzero(path, qtext, mu, player_kind, player):
    """The verdict of the ``nonzero`` command."""
    out = io.StringIO()
    argv = ["nonzero", "--graph", str(path), "--query", qtext, "--bind", f"x={mu['x']},y={mu['y']}",
            "--player-kind", player_kind, "--focus", player]
    assert cli.main(argv, out=out) == 0
    return out.getvalue() == "true\n"


def test_criterion_6_nonzero_decision(tmp_path):
    """Positivity verdicts of the ``nonzero`` command coincide with (exact
    value > 0) on the randomized suite, for edge and vertex games; the
    simple-path test is compared on all-endogenous graphs with an
    unreachable-baseline binding."""
    rng = random.Random(6)
    sigma = frozenset("ab")
    queries = ["(x, .*, y)", "(x, a b*, y)", "(x, a b, y)", "(x, . ., y)"]
    graphs_checked = 0
    for trial in range(60):
        exo_prob = 0.0 if trial % 2 == 0 else 0.3
        g = random_labeled_graph(
            rng, rng.randint(3, 5), rng.randint(2, 7), exo_prob=exo_prob
        )
        if not g.endo_edges or len(g.endo_edges) > 7:
            continue
        vs = sorted(g.vertices)
        s, t = rng.sample(vs, 2)
        mu2 = query.Assignment({"x": s, "y": t})
        path = tmp_path / f"g{trial}.graph"
        path.write_text(serialize(g))
        for qtext in queries:
            q = crpq(qtext, sigma)
            cg = edge_game(g, q, mu2)
            exact = shapley_exact_subset_all(cg)
            for eid in cg.players:
                verdict = _nonzero(path, qtext, mu2, "edge", eid)
                assert verdict == (exact[eid] > 0), (trial, qtext, eid)

            vg = vertex_game(g, q, mu2)
            vexact = shapley_exact_subset_all(vg)
            for vid in vg.players:
                verdict = _nonzero(path, qtext, mu2, "vertex", vid)
                assert verdict == (vexact[vid] > 0), (trial, qtext, vid)

        if not g.exo_edges:
            # all-endogenous: the simple-path criterion characterizes
            # positivity for the any-word query
            q = crpq("(x, .*, y)", sigma)
            cg = edge_game(g, q, mu2)
            exact = shapley_exact_subset_all(cg)
            for eid in cg.players:
                on_path = edge_on_simple_path(g, s, t, eid)
                assert on_path == (exact[eid] > 0), (trial, eid)
        graphs_checked += 1
    assert graphs_checked >= 40
    _report(f"criterion 6 PASS: nonzero/simple-path verdicts match exact "
            f"positivity on {graphs_checked} graphs (edge + vertex games)")


def test_criterion_7_query_evaluation(fig_graph):
    """Ground-truth Boolean answers on the running example."""
    def ev(qtext, s, t):
        q = crpq(qtext)
        mu = query.Assignment({"x": s, "y": t})
        return query.eval_crpq_bound(fig_graph, q, mu)

    assert ev("(x, .*, y)", "v1", "v6") is True
    assert ev("(x, .*, y)", "v3", "v1") is False
    assert ev("(x, a b c, y)", "v1", "v6") is True
    assert ev("(x, a b c, y)", "v3", "v5") is False
    assert ev("(x, a b*, y)", "v1", "v6") is True

    q = crpq("(x1, a*, x2) & (x2, b*, x3)")
    good = query.Assignment({"x1": "v1", "x2": "v2", "x3": "v6"})
    bad = query.Assignment({"x1": "v1", "x2": "v3", "x3": "v6"})
    assert query.eval_crpq_bound(fig_graph, q, good) is True
    assert query.eval_crpq_bound(fig_graph, q, bad) is False
    _report("criterion 7 PASS: all 7 ground-truth evaluations match")


def test_criterion_8_determinism(fig_graph_text, tmp_path):
    """Identical seeds give byte-identical sampled reports."""
    chain = tmp_path / "chain.graph"
    chain.write_text(CHAIN3)
    commands = [
        [
            "shapley", "--graph", str(fig_graph_text),
            "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6",
            "--mode", "approx-additive", "--eps", "0.1", "--delta", "0.05",
            "--seed", "99", "--format", "json",
        ],
        [
            "shapley", "--graph", str(chain),
            "--query", "(x, a b c, y)", "--bind", "x=u1,y=u4",
            "--mode", "approx-multiplicative", "--eps", "0.5", "--delta", "0.05",
            "--seed", "7", "--format", "csv",
        ],
    ]
    for argv in commands:
        outputs = []
        for _ in range(3):
            buf = io.StringIO()
            assert cli.main(argv, out=buf) == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]
    _report("criterion 8 PASS: repeated seeded runs byte-identical")
