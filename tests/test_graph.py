import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathshap import cli
from pathshap.errors import InvalidPlayerSet, MalformedGraph
from pathshap.graph import Edge, LabeledGraph, edge_subgraph, load_graph

from helpers import reference_load_graph, serialize, vertex_subgraph


def test_running_example_counts(fig_graph):
    assert len(fig_graph.vertices) == 6
    assert len(fig_graph.edges) == 9
    assert fig_graph.endo_edges == frozenset(fig_graph.edges_by_id)
    assert fig_graph.exo_edges == frozenset()
    assert fig_graph.alphabet == {"a", "b", "c"}


def test_edge_id_scheme(fig_graph):
    e = fig_graph.edges_by_id["v1->v3"]
    assert (e.source, e.label, e.target) == ("v1", "a", "v3")


def test_empty_text_gives_empty_graph():
    g = load_graph("# nothing here\n\n")
    assert not g.vertices and not g.edges


def test_vertex_lines_and_defaults():
    g = load_graph("v lonely x\nu1 a u2 n\nv u1 x\n")
    assert g.vertices == {"lonely", "u1", "u2"}
    assert g.exo_vertices == {"lonely", "u1"}
    assert g.endo_vertices == {"u2"}  # edge-only vertices default endogenous


def test_exogenous_edges_parse():
    g = load_graph("u1 a u2 x\nu2 b u3 n\n")
    assert g.exo_edges == {"u1->u2"}
    assert g.endo_edges == {"u2->u3"}


@pytest.mark.parametrize(
    "text",
    [
        "u1 a u2 n\nu1 b u2 n\n",  # parallel pair
        "u1 a u2 q\n",  # unknown classification
        "u1 a n\n",  # short edge line
        "v u1\n",  # short vertex line
        "v u1 q\n",  # unknown vertex classification
        "v u1 n\nv u1 x\n",  # reclassified vertex
    ],
)
def test_malformed_inputs(text):
    with pytest.raises(MalformedGraph):
        load_graph(text)


def test_edge_is_a_tuple_of_its_fields():
    e = Edge("u1->u2", "u1", "a", "u2")
    assert e == ("u1->u2", "u1", "a", "u2") and hash(e) == hash(("u1->u2", "u1", "a", "u2"))
    eid, source, label, target = e
    assert (eid, source, label, target) == (e.id, e.source, e.label, e.target)
    assert sorted([Edge("u2->u1", "u2", "a", "u1"), e]) == [e, ("u2->u1", "u2", "a", "u1")]


def test_alphabet_is_computed_once(fig_graph):
    assert fig_graph.alphabet is fig_graph.alphabet
    assert load_graph("v w n\n").alphabet == frozenset()


def test_names_holding_an_arrow_load_while_their_ids_differ():
    g = load_graph("a->b x c n\nc y a->b x\n")
    assert set(g.edges_by_id) == {"a->b->c", "c->a->b"}
    assert g.edges_by_id["a->b->c"] == ("a->b->c", "a->b", "x", "c")


def test_an_edge_id_collision_is_not_a_parallel_edge():
    # the pairs (a->b, c) and (a, b->c) both have the id a->b->c
    with pytest.raises(MalformedGraph) as info:
        load_graph("a->b x c n\na y b->c n\n")
    assert str(info.value) == "line 2: pairs (a->b, c) and (a, b->c) have the same edge id a->b->c"
    with pytest.raises(MalformedGraph, match=r"^line 2: parallel edge for pair \(a->b, c\)$"):
        load_graph("a->b x c n\na->b y c n\n")


def test_cli_reports_an_edge_id_collision_with_exit_2(tmp_path, capsys):
    path = tmp_path / "g"
    path.write_text("a->b x c n\na y b->c n\n")
    out = io.StringIO()
    assert cli.main(["eval", "--graph", str(path), "--query", "(x, x, y)", "--bind", "x=a->b,y=c"], out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "error: line 2: pairs (a->b, c) and (a, b->c) have the same edge id a->b->c\n"


# --- the loader against the reference loader ---------------------------------

NAMES = ("u1", "u2", "u3", "v", "w", "#w")  # "#w" is a name unless it starts a line
LABELS = ("a", "b", "v", "#")
SPACE = st.sampled_from((" ", "  ", "\t", " \t", "\xa0"))


@st.composite
def graph_line(draw) -> str:
    """One line of a graph text, without its ending: an edge or vertex
    line, a comment, a blank line, or a malformed line of any kind."""
    kind = draw(st.sampled_from(("edge",) * 5 + ("vertex",) * 3 + ("comment", "blank", "fields", "bad-tag")))
    tag = st.sampled_from(("n", "x"))
    if kind == "edge":
        fields = [draw(st.sampled_from(NAMES)), draw(st.sampled_from(LABELS)), draw(st.sampled_from(NAMES)),
                  draw(tag)]
    elif kind == "vertex":
        fields = ["v", draw(st.sampled_from(("u1", "v", "#w", "lone"))), draw(tag)]
    elif kind == "comment":
        fields = ["#" + draw(st.sampled_from(("", " u1 a u2 n", "comment")))]
    elif kind == "blank":
        fields = []
    elif kind == "fields":  # too few or too many fields for an edge or vertex line
        fields = draw(st.lists(st.sampled_from(NAMES + LABELS + ("n", "x")), min_size=1, max_size=6))
    else:
        fields = draw(st.sampled_from((["u1", "a", "u2"], ["v", "u1"])))
        fields.append(draw(st.sampled_from(("q", "N", "nx"))))
    indent = draw(st.sampled_from(("", " ", "\t")))
    trailing = draw(st.sampled_from(("", " ", "\t ")))
    return indent + "".join(f + draw(SPACE) for f in fields[:-1]) + "".join(fields[-1:]) + trailing


@given(lines=st.lists(st.tuples(graph_line(), st.sampled_from(("\n", "\r\n"))), max_size=12),
       last_ending=st.booleans())
@settings(max_examples=400, deadline=None)
def test_loader_matches_the_reference_loader(lines, last_ending):
    text = "".join(line + ending for line, ending in lines)
    if lines and not last_ending:
        text = text[:-len(lines[-1][1])]
    try:
        expected = reference_load_graph(text)
    except MalformedGraph as exc:
        with pytest.raises(MalformedGraph) as info:
            load_graph(text)
        assert str(info.value) == str(exc)
        return
    g = load_graph(text)
    assert g == expected
    assert g.edges == expected.edges
    assert g.edges_by_id == expected.edges_by_id
    assert g.alphabet == expected.alphabet
    assert g.exo_edges == expected.exo_edges and g.exo_vertices == expected.exo_vertices
    for v in expected.vertices:
        assert g.out_edges(v) == expected.out_edges(v)


def test_self_loop_allowed():
    g = load_graph("u1 a u1 n\n")
    assert g.edges_by_id["u1->u1"].source == "u1"


def test_opposite_directions_are_distinct_edges():
    g = load_graph("u1 a u2 n\nu2 a u1 n\n")
    assert len(g.edges) == 2


def test_serialize_round_trip(fig_graph):
    assert load_graph(serialize(fig_graph)) == fig_graph


def test_serialize_round_trip_with_partitions():
    g = load_graph("v w0 x\nu1 a u2 x\nu2 b u3 n\n")
    assert load_graph(serialize(g)) == g


@pytest.mark.parametrize("text", [
    "v a w n\nw b v x\n",  # v is an edge's source, then its target
    "v v x\nv a v n\n",  # a vertex named v, and its self-loop
])
def test_serialize_round_trip_with_a_vertex_named_v(text):
    # a line of four fields is an edge line, whatever its first field
    g = load_graph(text)
    assert "v" in g.vertices and g.edges
    assert load_graph(serialize(g)) == g


def test_vertex_line_errors_keep_their_messages():
    assert load_graph("v w x\n").exo_vertices == {"w"}
    for text in ("v w\n", "v w x y z\n"):
        with pytest.raises(MalformedGraph, match="vertex line needs 'v <id> <n|x>'"):
            load_graph(text)
    with pytest.raises(MalformedGraph, match="edge line needs"):
        load_graph("u a w n x\n")
    with pytest.raises(MalformedGraph, match="unknown classification 'q'"):
        load_graph("v a w q\n")


def test_constructor_rejects_dangling_edge():
    with pytest.raises(MalformedGraph):
        LabeledGraph({"u1"}, [Edge("u1->u2", "u1", "a", "u2")], set(), {"u1"})


def test_constructor_rejects_unknown_partition_members():
    with pytest.raises(MalformedGraph):
        LabeledGraph({"u1"}, [], {"ghost->ghost"}, {"u1"})
    with pytest.raises(MalformedGraph):
        LabeledGraph({"u1"}, [], set(), {"u1", "ghost"})


def test_edge_subgraph_semantics(fig_graph):
    empty = edge_subgraph(fig_graph, set())
    assert not empty.edges  # everything endogenous, nothing kept
    assert empty.vertices == fig_graph.vertices

    full = edge_subgraph(fig_graph, fig_graph.endo_edges)
    assert full == fig_graph

    some = edge_subgraph(fig_graph, {"v3->v5", "v5->v6"})
    assert set(some.edges_by_id) == {"v3->v5", "v5->v6"}
    assert some.endo_edges == {"v3->v5", "v5->v6"}


def test_edge_subgraph_keeps_exogenous():
    g = load_graph("u1 a u2 x\nu2 b u3 n\nu3 c u4 n\n")
    sub = edge_subgraph(g, {"u2->u3"})
    assert set(sub.edges_by_id) == {"u1->u2", "u2->u3"}


def test_edge_subgraph_rejects_non_players(fig_graph):
    with pytest.raises(InvalidPlayerSet):
        edge_subgraph(fig_graph, {"v9->v9"})
    g = load_graph("u1 a u2 x\n")
    with pytest.raises(InvalidPlayerSet):
        edge_subgraph(g, {"u1->u2"})  # exogenous, not a player


def test_vertex_subgraph_semantics(fig_graph):
    full = vertex_subgraph(fig_graph, fig_graph.endo_vertices)
    assert full == fig_graph

    sub = vertex_subgraph(fig_graph, {"v1", "v3", "v5", "v6"})
    assert sub.vertices == {"v1", "v3", "v5", "v6"}
    assert set(sub.edges_by_id) == {"v1->v3", "v3->v5", "v5->v6"}

    empty = vertex_subgraph(fig_graph, set())
    assert not empty.vertices and not empty.edges


def test_vertex_subgraph_keeps_exogenous_vertices():
    g = load_graph("v u1 x\nv u3 x\nu1 a u2 n\nu2 b u3 n\n")
    sub = vertex_subgraph(g, set())
    assert sub.vertices == {"u1", "u3"}
    assert not sub.edges
    sub2 = vertex_subgraph(g, {"u2"})
    assert set(sub2.edges_by_id) == {"u1->u2", "u2->u3"}


def test_vertex_subgraph_rejects_non_players(fig_graph):
    with pytest.raises(InvalidPlayerSet):
        vertex_subgraph(fig_graph, {"v99"})


def test_subgraph_monotone_under_inclusion(fig_graph):
    rng = random.Random(7)
    players = sorted(fig_graph.endo_edges)
    for _ in range(50):
        small = set(rng.sample(players, rng.randint(0, len(players))))
        big = small | set(rng.sample(players, rng.randint(0, len(players))))
        small_edges = set(edge_subgraph(fig_graph, small).edges_by_id)
        big_edges = set(edge_subgraph(fig_graph, big).edges_by_id)
        assert small_edges <= big_edges
