"""Shapley-value responsibility of edges and vertices for regular path
query answers on edge-labeled directed graphs."""

from .automata import Dfa, LanguageProfile, compile, language_profile
from .explain import ExplainRequest, gap_bound, solve
from .game import SampledEstimate, ShapleyReport, sample_count, shapley_lineage_all
from .graph import Edge, LabeledGraph, edge_subgraph, load_graph
from .query import (
    Assignment,
    Crpq,
    RpqAtom,
    compile_crpq,
    enumerate_answers,
    eval_crpq_bound,
    eval_rpq,
    parse_binding,
)
from .regex import RegexAst, parse_regex

__all__ = [
    "Assignment",
    "Crpq",
    "Dfa",
    "Edge",
    "ExplainRequest",
    "LabeledGraph",
    "LanguageProfile",
    "RegexAst",
    "RpqAtom",
    "SampledEstimate",
    "ShapleyReport",
    "compile",
    "compile_crpq",
    "edge_subgraph",
    "enumerate_answers",
    "eval_crpq_bound",
    "eval_rpq",
    "gap_bound",
    "language_profile",
    "load_graph",
    "parse_binding",
    "parse_regex",
    "sample_count",
    "shapley_lineage_all",
    "solve",
]
