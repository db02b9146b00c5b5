"""Edge and vertex contribution games over a graph/query/answer triple.

Builds a request's players, coalition predicate and lineage, and
dispatches between the lineage counter and the sampler, whose pivot rule,
support, tolerance and trial count ``solve`` decides once: it is the only
caller of ``game.sample_pivots``.  Every exact and auto request searches
and counts its lineage first, whatever its query, player kind and player
count, within a step budget: ``LINEAGE_BUDGET`` for ``exact``, which
refuses past it, and the cost of the sampler it would fall back to for
``auto``, which samples past it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import or_
from typing import Callable, Iterator, NamedTuple, Optional

from . import game as game_mod
from .errors import (
    BudgetExceeded,
    InfiniteLanguage,
    InvalidPlayerSet,
    NoPlayers,
)
from .game import ShapleyReport
from .graph import LabeledGraph
from .query import (
    Assignment,
    Crpq,
    _check_vertices,
    bind_atoms,
    holds_on_mask,
    lineage,
    out_lists,
    product_reach,
)

# Default step budget of a lineage search whose caller sets none
# (``candidate_supports`` and ``nonzero --budget``), the budget of an exact
# request's search and count, and the cap on an auto request's.  A step of
# a search this long took at most ~0.12 us on dense random graphs, ladders
# and layered graphs, so the budget runs out in about a second, as the
# former witness search's default of 10^6 nodes did (1.3-1.5 s).
# Short-word fans are refused near 1 330 players: one of 1 301 spent
# 9.5*10^6 steps in 0.39 s.
LINEAGE_BUDGET = 10_000_000


class ExplainRequest(NamedTuple):
    graph: LabeledGraph
    query: Crpq
    binding: Assignment
    player_kind: str = "edge"  # edge | vertex
    focus: Optional[str] = None
    mode: str = "auto"  # auto | exact | approx-additive | approx-multiplicative
    eps: float = 0.05
    delta: float = 0.01
    seed: int = 0


# --- game construction -----------------------------------------------------

def _request_game(
    g: LabeledGraph, q: Crpq, mu: Assignment, player_kind: str
) -> tuple[tuple[str, ...], Callable[[int], bool], Callable[[list[int]], list[int]]]:
    """The request's players, sorted, the mask predicate before the
    baseline shift, and ``lineage(budget)``, its minimal winning masks
    (query.lineage).  A coalition wins when it holds every bound endogenous
    vertex and the query holds on the edges whose need mask it covers.  An
    edge needs its own bit, or in the vertex game the bits of its
    endpoints; at mask 0 the predicate is the query on the exogenous part."""
    _check_vertices(g, *(mu[v] for v in q.variables))
    players = tuple(sorted(g.endo_edges if player_kind == "edge" else g.endo_vertices))
    bits = {p: 1 << i for i, p in enumerate(players)}
    bound = 0
    if player_kind == "edge":
        out = out_lists(g, lambda e: bits.get(e.id, 0))
    else:
        out = out_lists(g, lambda e: bits.get(e.source, 0) | bits.get(e.target, 0))
        for var in q.variables:
            bound |= bits.get(mu[var], 0)
    atoms = bind_atoms(q, mu)
    if bound:
        holds = lambda mask: not bound & ~mask and holds_on_mask(out, atoms, mask)
    else:
        holds = functools.partial(holds_on_mask, out, atoms)
    return players, holds, functools.partial(lineage, out, atoms, bound)


# --- gap bound -------------------------------------------------------------

def gap_bound(q: Crpq, n: int, player_kind: str = "edge") -> Fraction:
    """Smallest possible nonzero value for a finite-language query over n
    players.  A player of a minimal winning coalition of w players pivots
    in every order that starts with the rest of the coalition, so its value
    is at least (w-1)!(n-w)!/n! = 1/(n C(n-1, w-1)), which falls while
    w - 1 < (n-1)/2; the gap takes w up to K = ``k_sum``, the most players
    of a minimal winning coalition.  A word of length k takes k edges and
    visits k + 1 vertices, so K is the sum of the non-empty atoms' longest
    word lengths, plus one per atom for vertex players.  An empty atom adds
    nothing: its query has no winning coalition at all."""
    k_sum = 0
    for atom in q.atoms:
        if not atom.profile.is_finite:
            raise InfiniteLanguage(f"atom {atom.text!r} has an infinite language")
        if not atom.profile.is_empty:
            k_sum += atom.profile.max_word_length + (player_kind == "vertex")
    w = min(k_sum, (n + 1) // 2)  # the width of the least bound; 0 when no player has a nonzero value
    return Fraction(1, n * math.comb(n - 1, w - 1)) if w else Fraction(1)


def multiplicative_tolerance(gap: Fraction, eps: float) -> float:
    """Additive tolerance gap*eps/(1+eps) of the (1+eps) reduction, for any
    eps > 0: within it, every value phi of at least the gap is estimated in
    [phi/(1+eps), phi(1+eps)], and a null player, never a pivot, reads
    exactly 0."""
    return float(gap) * eps / (1.0 + eps)


# --- lineage ---------------------------------------------------------------

def candidate_supports(
    g: LabeledGraph,
    q: Crpq,
    mu: Assignment,
    player_kind: str = "edge",
    budget: Optional[int] = None,
) -> Iterator[frozenset[str]]:
    """The minimal winning coalitions of the game before the baseline shift,
    from the request's lineage; ``budget`` caps the search steps,
    ``LINEAGE_BUDGET`` as it reads when the search starts if None."""
    players, _, lineage = _request_game(g, q, mu, player_kind)
    for t in lineage([LINEAGE_BUDGET if budget is None else budget]):
        yield frozenset(players[b.bit_length() - 1] for b in game_mod._bits(t))


# --- dispatcher ------------------------------------------------------------

def solve(req: ExplainRequest) -> ShapleyReport:
    """Pick the cheapest sound method for the request and run it; the
    engines value every player, and a ``focus`` request keeps its player's
    value."""
    if req.player_kind not in ("edge", "vertex"):
        raise ValueError(f"unknown player kind {req.player_kind!r}")
    if req.mode not in ("auto", "exact", "approx-additive", "approx-multiplicative"):
        raise ValueError(f"unknown mode {req.mode!r}")
    # written so that a NaN eps or delta fails
    if not (0 < req.delta < 1 and 0 < req.eps < math.inf):
        raise ValueError("eps must be positive and finite and delta must lie in (0, 1)")
    # random.Random(-s) draws the stream of Random(s)
    if req.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {req.seed}")
    players, holds, lineage = _request_game(req.graph, req.query, req.binding, req.player_kind)
    if not players:
        raise NoPlayers(f"no endogenous {req.player_kind} players")
    if req.focus is not None and req.focus not in players:
        raise InvalidPlayerSet(f"{req.focus} is not an endogenous {req.player_kind}")
    targets = [req.focus] if req.focus is not None else players

    if any(a.profile.is_empty for a in req.query.atoms):
        # the values of an empty lineage, as the lineage counter gives them,
        # in every mode: no coalition wins, whatever the other atoms are
        return ShapleyReport("exact-lineage", {p: Fraction(0) for p in targets}, ("empty-language-atom",))
    all_finite = all(a.profile.is_finite for a in req.query.atoms)
    if req.mode == "approx-multiplicative" and not all_finite:
        raise InfiniteLanguage("multiplicative approximation needs finite atom languages")
    if req.mode != "exact":
        # the sampler a request runs when its lineage is not counted and its
        # trials, decided here once: a multiplicative request samples at
        # ``multiplicative_tolerance`` and reports its own eps.  An explicit
        # sampler mode is refused over the trial cap before the baseline
        # search, the request's first valuation, and an auto request only
        # when it samples; a tolerance too small for its trial count to be
        # a float gives infinite trials.
        engine, tolerance, fallback = "mc-additive", req.eps, ()
        if req.mode == "approx-multiplicative" or req.mode == "auto" and all_finite:
            engine = "mc-multiplicative"
            tolerance = multiplicative_tolerance(gap_bound(req.query, len(players), req.player_kind), req.eps)
        elif req.mode == "auto":
            fallback = ("no-multiplicative-guarantee",)
        trials = game_mod.sample_count(tolerance, req.delta)
        if req.mode != "auto":
            game_mod.capped(trials)
        elif engine == "mc-multiplicative" and trials > game_mod.TRIAL_CAP:
            fallback = (f"no-multiplicative-guarantee:trials={trials}",)
            engine, trials = "mc-additive", game_mod.sample_count(req.eps, req.delta)
    if holds(0):
        # the values of a lineage holding mask 0, as the lineage counter gives them
        return ShapleyReport("exact-lineage", {p: Fraction(0) for p in targets}, ("answer-exogenous",))

    if req.mode == "exact":
        budget = LINEAGE_BUDGET
    elif req.mode == "auto":
        # the sampler's cost in lineage steps: a binary search of
        # n.bit_length() valuations per trial, each taking at most
        # product_reach steps; so a count that runs out at most about
        # doubles the request's cost
        reach = product_reach(req.graph, bind_atoms(req.query, req.binding))
        budget = min(LINEAGE_BUDGET, trials * len(players).bit_length() * reach)
    else:
        budget = trials  # the sampler's search of its terms
    steps = [budget]
    terms = None  # the sampler runs on the product search when the search runs out
    try:
        terms = lineage(steps)
        if req.mode in ("auto", "exact"):
            values = game_mod.shapley_lineage_all(players, terms, steps)
            return ShapleyReport("exact-lineage", {p: values[p] for p in targets})
    except BudgetExceeded:
        if req.mode == "exact":
            raise
    game_mod.capped(trials)  # an auto request's, once it samples
    # the pivots read from the terms when their search finished with at most
    # one term per edge of the graph; past that a vertex game's term pivot is
    # slower than the product search (README)
    if terms is not None and len(terms) <= len(req.graph.edges):
        pivot = game_mod.term_pivot(terms)
    else:
        pivot = game_mod.search_pivot(game_mod.memoized(holds))
    # the players that can pivot: those of some term or, when the search ran
    # out, every player, if they win
    support = (1 << len(players)) - 1 if terms is None else functools.reduce(or_, terms, 0)
    if terms is None and not holds(support):
        support = 0
    values = game_mod.sample_pivots(players, pivot, support, trials, req.eps, req.delta, req.seed)
    return ShapleyReport(engine, {p: values[p] for p in targets}, fallback)
