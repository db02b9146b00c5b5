"""Edge-labeled directed graphs with endogenous/exogenous partitions.

Graphs are immutable after construction.  At most one edge is allowed per
ordered (source, target) pair, so an edge id can be (and is) derived from its
endpoints; two pairs whose ids collide (a vertex name holding ``->``) are
rejected.  Vertices referenced only by edge lines default to endogenous.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InvalidPlayerSet, MalformedGraph


class Edge(NamedTuple):
    """An edge; a tuple, so it equals, unpacks and orders like
    ``(id, source, label, target)``."""

    id: str
    source: str
    label: str
    target: str


class LabeledGraph:
    """Immutable labeled directed graph with player partitions."""

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge],
        endo_edges: Iterable[str],
        endo_vertices: Iterable[str],
    ):
        self.vertices = frozenset(vertices)
        self.edges = tuple(sorted(edges, key=lambda e: e.id))
        self.edges_by_id = {e.id: e for e in self.edges}
        self.endo_edges = frozenset(endo_edges)
        self.exo_edges = frozenset(self.edges_by_id) - self.endo_edges
        self.endo_vertices = frozenset(endo_vertices)
        self.exo_vertices = self.vertices - self.endo_vertices
        self._check()
        self.alphabet = frozenset(e.label for e in self.edges)
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
        self._out = out

    def _check(self) -> None:
        if len(self.edges_by_id) != len(self.edges):
            dup = len(self.edges) - len(self.edges_by_id)
            raise MalformedGraph(f"{dup} duplicate (source, target) pair(s)")
        for e in self.edges:
            if e.source not in self.vertices or e.target not in self.vertices:
                raise MalformedGraph(f"edge {e.id} references an undeclared vertex")
            if not e.label:
                raise MalformedGraph(f"edge {e.id} has an empty label")
        if not self.endo_edges <= set(self.edges_by_id):
            raise MalformedGraph("endogenous edge partition references unknown edges")
        if not self.endo_vertices <= self.vertices:
            raise MalformedGraph("endogenous vertex partition references unknown vertices")

    def out_edges(self, v: str) -> list[Edge]:
        return self._out[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.endo_edges == other.endo_edges
            and self.endo_vertices == other.endo_vertices
        )

    def __repr__(self) -> str:
        return f"LabeledGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def load_graph(text: str) -> LabeledGraph:
    """Parse the whitespace-separated graph format.

    Edge lines are ``<src> <label> <dst> <n|x>``; vertex lines are
    ``v <id> <n|x>``, so a line of four fields is an edge line even when
    its source is a vertex named ``v``.  Blank lines and lines whose first
    non-blank character is ``#`` are ignored.  Each line is split once.
    """
    vertices: set[str] = set()
    vertex_class: dict[str, str] = {}
    edges: list[Edge] = []
    # edge id -> its (source, target): a repeated pair repeats its id, and a
    # repeated id of another pair is a collision, not a parallel edge
    pairs: dict[str, tuple[str, str]] = {}
    endo_edges: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) == 4:
            src, label, dst, tag = fields
            if tag not in ("n", "x"):
                raise MalformedGraph(f"line {lineno}: unknown classification {tag!r}")
            eid = f"{src}->{dst}"
            pair = pairs.get(eid)
            if pair is not None:
                if pair == (src, dst):
                    raise MalformedGraph(f"line {lineno}: parallel edge for pair ({src}, {dst})")
                raise MalformedGraph(f"line {lineno}: pairs ({pair[0]}, {pair[1]}) and ({src}, {dst}) "
                                     f"have the same edge id {eid}")
            pairs[eid] = (src, dst)
            edges.append(Edge(eid, src, label, dst))
            if tag == "n":
                endo_edges.add(eid)
            vertices.add(src)
            vertices.add(dst)
        elif fields[0] == "v":
            if len(fields) != 3:
                raise MalformedGraph(f"line {lineno}: vertex line needs 'v <id> <n|x>'")
            _, vid, tag = fields
            if tag not in ("n", "x"):
                raise MalformedGraph(f"line {lineno}: unknown classification {tag!r}")
            if vertex_class.setdefault(vid, tag) != tag:
                raise MalformedGraph(f"line {lineno}: vertex {vid} reclassified")
            vertices.add(vid)
        else:
            raise MalformedGraph(f"line {lineno}: edge line needs '<src> <label> <dst> <n|x>'")
    endo_vertices = {v for v in vertices if vertex_class.get(v, "n") == "n"}
    return LabeledGraph(vertices, edges, endo_edges, endo_vertices)


def edge_subgraph(g: LabeledGraph, coalition: Iterable[str]) -> LabeledGraph:
    """Keep the coalition's edges plus all exogenous edges; all vertices stay."""
    b = frozenset(coalition)
    bad = b - g.endo_edges
    if bad:
        raise InvalidPlayerSet(f"not endogenous edges: {sorted(bad)}")
    keep = b | g.exo_edges
    return LabeledGraph(
        g.vertices,
        (e for e in g.edges if e.id in keep),
        b,
        g.endo_vertices,
    )
