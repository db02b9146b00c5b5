"""Generic Shapley machinery over monotone 0/1 coalition games.

A game is its ordered players and a mask predicate: a coalition is a
bitmask, bit i the i-th player.  The exact engine counts a game's lineage
by size, compiled once into a DAG whose one reverse pass values every
player, each polynomial packed into one int so that a polynomial operation
is one big-int operation.
The sampler draws its permutations of the players that can pivot, the
lineage's support when ``explain.solve`` has it, with the stdlib shuffle's
draws inlined, and reads each one's pivot in the same loop: a veto player,
one in every term of the lineage, that arrives last is the pivot, and any
other order goes to the pivot function its caller hands it, from the
lineage's terms (``term_pivot``) or by a binary search over the prefixes on
a mask predicate (``search_pivot``).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from operator import mul, or_
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import BudgetExceeded

TRIAL_CAP = 10**7
VALUATION_CACHE_SIZE = 1 << 20


def memoized(value: Callable[[int], int]) -> Callable[[int], int]:
    """``value`` as 0/1 behind a dict of the masks it was asked, cleared at
    ``VALUATION_CACHE_SIZE`` entries, since permutation prefixes repeat
    heavily."""
    cache: dict[int, int] = {}

    def cached(mask: int) -> int:
        hit = cache.get(mask)
        if hit is not None:
            return hit
        hit = 1 if value(mask) else 0
        if len(cache) >= VALUATION_CACHE_SIZE:
            cache.clear()
        cache[mask] = hit
        return hit

    return cached


class SampledEstimate(NamedTuple):
    """Monte-Carlo success ratio with its (eps, delta) contract."""

    successes: int
    samples: int
    eps: float
    delta: float
    seed: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.successes, self.samples)


class ShapleyReport(NamedTuple):
    method: str  # exact-lineage | mc-additive | mc-multiplicative
    values: dict[str, Union[Fraction, SampledEstimate]]
    flags: tuple[str, ...] = ()


def sample_count(eps: float, delta: float) -> Union[int, float]:
    """Hoeffding trial count for an additive (eps, delta) guarantee, at
    least 1 however large eps is; ``math.inf`` when eps is too small for
    the count to be a float (a multiplicative tolerance from a tiny gap).
    ln(2/delta) reads as ln 2 - ln delta where 2/delta overflows."""
    try:
        ratio = 2.0 / delta
        spread = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(delta)
        return max(1, math.ceil(spread / (2.0 * eps * eps)))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def capped(trials: Union[int, float]) -> int:
    """``trials``, refused with ``BudgetExceeded`` above ``TRIAL_CAP``."""
    if trials > TRIAL_CAP:
        raise BudgetExceeded(f"{trials} sampler trials exceeds trial cap {TRIAL_CAP}")
    return trials


def shapley_lineage_all(
    players: Sequence[str], terms: Sequence[int], budget: list[int]
) -> dict[str, Fraction]:
    """Exact values of every player from the game's lineage: its minimal
    winning masks, a monotone DNF over the player bits.

    The losing coalitions of the w players in some term are counted by size
    as a polynomial L, compiled once into a DAG (``_compile``).  A player a
    turns the coalitions without it counted by L|a=0 - L|a=1 into winning
    ones, so phi(a) = sum_k k!(w-1-k)!/w! * (L|a=0[k] - L|a=1[k]): the
    subset form of the value, one Fraction per player, over w! instead of
    n!, which leaves the values alone since the other players are null.  With
    G_a = x*L|a=1 and L = L|a=0 + G_a, every G_a comes from one reverse pass
    over the DAG, root first (``_reverse``): each node gets an adjoint
    polynomial A, the derivative of L by the node's polynomial, and adds A
    times the derivative of its own polynomial by a's presence to G_a.
    Both passes spend ``budget`` (see ``spend``).

    A polynomial is one packed int, coefficient k in bits [k*S, (k+1)*S)
    for a multiple S of 8 of at least w + 2 bits: x is 1 << S, so + and *
    on the ints add and multiply the polynomials, // divides exactly and
    << S multiplies by x.  Every coefficient the counter forms counts
    coalitions of at most w players, at most 2^w, so no slot overflows
    into the next.
    """
    w = reduce(or_, terms, 0).bit_count()
    S = -(-(w + 2) // 8) * 8
    nodes: list[tuple] = []
    _compile(frozenset(terms), {}, nodes, S, budget)
    gains = _reverse(nodes, w, S, budget)
    fact = list(accumulate(range(1, w + 1), mul, initial=1))
    weights = [fact[k] * fact[w - 1 - k] for k in range(w)]
    losing = _coefficients(nodes[-1][2], w + 1, S)
    values = dict.fromkeys(players, Fraction(0))
    alike: dict[int, Fraction] = {}  # players alike in L share G_a
    shared: dict[int, Fraction] = {}  # by the id of a G_a int, which ``gains`` keeps
    for bit, g in gains.items():
        if id(g) not in shared:
            if g not in alike:
                c = _coefficients(g, w + 1, S)
                alike[g] = Fraction(sum(weights[k] * (losing[k] - c[k] - c[k + 1]) for k in range(w)), fact[w])
            shared[id(g)] = alike[g]
        values[players[bit.bit_length() - 1]] = shared[id(g)]
    return values


def _compile(terms: frozenset[int], memo: dict, nodes: list[tuple], S: int, budget: list[int]) -> int:
    """The index in ``nodes`` of the node counting L over the terms'
    players, appended after its children's, so that a node's parents come
    after it.  A node is (support, kind, poly, ...): terms that share no
    player make a ``product`` of their components' nodes; one term of
    width m is a ``term`` leaf, (1+x)^m - x^m; otherwise a ``split`` on the
    most frequent player a, L = (1+x)^f0 * L0 + x*(1+x)^f1 * L1, with
    branches (child, free mask): L0 over the terms without a, L1 over the
    minimal terms less a, and f0, f1 the players each child leaves free.
    No terms, or the empty term, make a ``constant`` leaf, 1 or 0.  The
    polynomials are packed with slots of S bits, and a node of support
    width m is charged as a list of m + 1 coefficients.
    """
    node = memo.get(terms)
    if node is not None:
        return node
    if not terms or 0 in terms:
        entry = (0, "constant", 0 if terms else 1)
    else:
        groups = _term_components(terms)
        support = reduce(or_, terms)
        width = support.bit_count()
        spend(budget, (len(terms) + len(groups)) * width)
        one_plus_x = 1 + (1 << S)
        if len(groups) > 1:
            children = [_compile(group, memo, nodes, S, budget) for group in groups]
            # equal polynomials as one power, then pairwise, so that the operands grow alike
            polys = [p ** k for p, k in Counter(nodes[c][2] for c in children).items()]
            while len(polys) > 1:
                polys = [math.prod(polys[i:i + 2]) for i in range(0, len(polys), 2)]
            entry = (support, "product", polys[0], children)
        elif len(terms) == 1:
            entry = (support, "term", one_plus_x ** width - (1 << width * S))
        else:
            a = _most_frequent(terms, support.bit_length())
            parts = (frozenset(t for t in terms if not t & a),
                     frozenset(minimal_masks((t & ~a for t in terms), budget)))
            branches = []
            for part in parts:
                c = _compile(part, memo, nodes, S, budget)
                branches.append((c, support & ~a & ~nodes[c][0]))
            off, on = (nodes[c][2] * one_plus_x ** free.bit_count() for c, free in branches)
            spend(budget, len(terms) + sum(
                (nodes[c][0].bit_count() + 1) * (free.bit_count() + 1) for c, free in branches))
            entry = (support, "split", off + (on << S), a, branches)
    nodes.append(entry)
    memo[terms] = node = len(nodes) - 1
    return node


def _most_frequent(terms: frozenset[int], length: int) -> int:
    """The bit held by the most terms, ties to the lowest, of terms below
    bit ``length``, counted in one pass over the terms: each is written as
    ``length`` binary digits, and ``zip`` reads those rows column by column,
    highest bit first, so a column's sum is its bit's count plus 48 (the
    byte of '0') per term."""
    rows = map(str.encode, map(format, terms, repeat(f"0{length}b")))
    counts = list(map(sum, zip(*rows)))[::-1]
    return 1 << counts.index(max(counts))


def _reverse(nodes: list[tuple], w: int, S: int, budget: list[int]) -> dict[int, int]:
    """G_a for every player bit a of the root, the last node, over its
    w players, from one pass over ``nodes`` in reverse.  A product's child
    gets A times its siblings' product: A times the whole product, divided
    by the child's polynomial, once per distinct polynomial.  A split's
    children get A*(1+x)^f0 and x*A*(1+x)^f1, a gets x*A*(1+x)^f1*L1, and
    each free player its padding's derivative, A*x*(1+x)^(f0-1)*L0 or
    A*x^2*(1+x)^(f1-1)*L1.  A term leaf of width m gives each member
    A*(x(1+x)^(m-1) - x^m), built by shifts of A.  Constant leaves hold no
    player.  Sums start from the int they add to, so equal adjoints and
    gains stay one shared int, as ints are immutable.  The steps count each
    adjoint as the coefficient list it would be: as long as the longest
    polynomial a parent adds to it."""
    gains = dict.fromkeys(_bits(nodes[-1][0]), 0)
    adjoints = [0] * len(nodes)
    lengths = [0] * len(nodes)
    adjoints[-1] = lengths[-1] = 1
    leaf_gains: dict[tuple[int, int], int] = {}  # by the id of A, which ``adjoints`` keeps
    one_plus_x = 1 + (1 << S)
    for i in range(len(nodes) - 1, -1, -1):
        A, n = adjoints[i], lengths[i]
        support, kind, poly, *rest = nodes[i]
        width = support.bit_count()
        if kind == "product":
            children = rest[0]
            spend(budget, n * (width + 1) + (w + 1) * sum(nodes[c][0].bit_count() + 1 for c in children))
            whole = A * poly
            quotients: dict[int, int] = {}
            for c in children:
                q = quotients.get(nodes[c][2])
                if q is None:
                    q = quotients[nodes[c][2]] = whole // nodes[c][2]
                adjoints[c] = adjoints[c] + q if adjoints[c] else q
                lengths[c] = max(lengths[c], n + width - nodes[c][0].bit_count())
        elif kind == "term":
            spend(budget, n * (width + 1) + (w + 1) * width)
            gain = leaf_gains.get((id(A), width))
            if gain is None:
                padded = A
                for _ in range(width - 1):
                    padded += padded << S
                gain = leaf_gains[id(A), width] = (padded - (A << (width - 1) * S)) << S
            for b in _bits(support):
                gains[b] = gains[b] + gain if gains[b] else gain
        elif kind == "split":
            a, branches = rest
            spend(budget, n * (width + 1) + (w + 1) * sum(free.bit_count() + 1 for _, free in branches))
            for shift, (c, free) in enumerate(branches):
                f = free.bit_count()
                padding = one_plus_x ** f
                adjoints[c] += A * padding << shift * S
                lengths[c] = max(lengths[c], shift + n + f)
                counted = A * nodes[c][2]
                if shift:
                    gains[a] += counted * padding << S
                if f:
                    gain = counted * one_plus_x ** (f - 1) << (shift + 1) * S
                    for b in _bits(free):
                        gains[b] = gains[b] + gain if gains[b] else gain
    return gains


def _coefficients(poly: int, n: int, S: int) -> list[int]:
    """The first n coefficients of a packed polynomial of degree below n."""
    size = S // 8
    data = poly.to_bytes(n * size, "little")
    return [int.from_bytes(data[k * size:(k + 1) * size], "little") for k in range(n)]


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first, in steps of its set bits only."""
    bits = []
    while mask:
        bits.append(mask & -mask)
        mask &= mask - 1
    return bits


def spend(budget: list[int], steps: int) -> None:
    """Take ``steps`` from ``budget[0]``, which counts the edges, masks,
    terms and coefficients that the lineage search and counter visit."""
    budget[0] -= steps
    if budget[0] < 0:
        raise BudgetExceeded("lineage budget exhausted")


def minimal_masks(masks: Iterable[int], budget: list[int]) -> list[int]:
    """The masks that contain no other of the masks, sorted by size; each
    spends a step per kept mask it may be compared with, plus one.  A kept
    mask inside a candidate has its lowest bit among the candidate's, so
    the kept masks are indexed by their lowest bit and a candidate is
    compared only with those whose lowest bit it holds."""
    out: list[int] = []
    by_low: dict[int, list[int]] = {}
    lows = 0  # the keys of by_low
    left = budget[0]  # spent as ``spend`` spends it, one candidate at a time
    for m in sorted(sorted(set(masks)), key=int.bit_count):  # by size, then value
        left -= 1 + len(out)
        if left < 0:
            budget[0] = left
            raise BudgetExceeded("lineage budget exhausted")
        covered = bool(out) and not out[0]  # the empty mask lies inside every mask
        rest = m & lows
        while rest and not covered:
            low = rest & -rest
            rest ^= low
            for c in by_low[low]:
                if c | m == m:
                    covered = True
                    break
        if not covered:
            out.append(m)
            low = m & -m
            by_low.setdefault(low, []).append(m)
            lows |= low
    budget[0] = left
    return out


def _term_components(terms: frozenset[int]) -> list[frozenset[int]]:
    """The terms grouped into components that share no player.  A single
    term, or terms whose widths add up to the width of their union, are a
    component each.  Otherwise a union by player bit: each player points to
    the first term that held it, and a term joins the components of the
    players it shares with earlier terms, one lookup per component, since
    a component's players are dropped from the shared bits once found."""
    if len(terms) == 1 or sum(t.bit_count() for t in terms) == reduce(or_, terms).bit_count():
        return [frozenset((t,)) for t in terms]
    owner: dict[int, int] = {}  # player bit -> the first term that held it
    parent: dict[int, int] = {}  # term -> a term of its component; a root is its own
    players: dict[int, int] = {}  # root -> the players of its component
    seen = 0
    for t in terms:
        parent[t] = joined = t
        shared = t & seen
        while shared:
            root = _root(parent, owner[shared & -shared])
            parent[root] = t
            found = players.pop(root)
            joined |= found
            shared &= ~found
        for b in _bits(t & ~seen):
            owner[b] = t
        players[t] = joined
        seen |= t
    if len(players) == 1:
        return [terms]
    groups: dict[int, list[int]] = {}
    for t in terms:
        groups.setdefault(_root(parent, t), []).append(t)
    return [frozenset(group) for group in groups.values()]


def _root(parent: dict[int, int], t: int) -> int:
    """The root of t's component, halving the path to it."""
    while parent[t] != t:
        parent[t] = t = parent[parent[t]]
    return t


def term_pivot(terms: Sequence[int]) -> Callable[[list[int]], int]:
    """The pivot of an order from the terms, with no valuation: the first
    player whose arrival completes a term.  A term is completed by the
    arrival of its last member, so each arrival tests only the terms that
    hold it.  Some term lies in every order of the terms' support."""
    holding: dict[int, list[int]] = {}
    for t in terms:
        for b in _bits(t):
            holding.setdefault(b, []).append(t)

    def pivot(order: list[int]) -> int:
        prefix = 0
        for b in order:
            prefix |= b
            for t in holding.get(b, ()):
                if t & prefix == t:
                    return b

    return pivot


def search_pivot(value: Callable[[int], int]) -> Callable[[list[int]], int]:
    """The pivot of an order of w players by a binary search over its
    prefixes, in O(log w) valuations of ``value``."""

    def pivot(order: list[int]) -> int:
        prefixes = list(accumulate(order, or_))
        lo, hi = 0, len(order) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value(prefixes[mid]):
                hi = mid
            else:
                lo = mid + 1
        return order[lo]

    return pivot


def sample_pivots(
    players: Sequence[str], pivot: Callable[[list[int]], int], support: int, veto: int, trials: int,
    eps: float, delta: float, seed: int,
) -> dict[str, SampledEstimate]:
    """Monte-Carlo estimates of every player of a monotone 0/1 game (bit i
    the i-th player) from ``trials`` permutations of the bits of
    ``support``, in ascending order, each ``random.Random(seed).shuffle``
    of the last; ``pivot`` reads an order's pivot unless the order ends
    with a bit of ``veto``.  Each estimate reports ``eps``, ``delta`` and
    ``seed``.

    In a monotone 0/1 game with v(empty) = 0 and v(N) = 1 every permutation
    has exactly one pivot, the player whose arrival makes the prefix win,
    and the pivot is the only player with marginal 1.  The caller vouches
    that ``support`` wins, or is 0 when no coalition wins, which draws
    nothing, and that the other players are null, in no minimal winning
    coalition: they are never a pivot, and the support's order within a
    uniform permutation of all the players is uniform.  So each player's
    estimate is the mean of independent Bernoulli samples of its own
    marginal, one permutation serves every player, and the null players
    read 0.  A one-player support is the pivot of every order, counted
    without a draw, as a one-element shuffle draws no random bits.

    The caller also vouches that every bit of ``veto`` lies in every
    minimal winning coalition (0 vouches for nothing).  Such a veto player
    is the pivot of every order it ends: the support without it holds no
    minimal winning coalition, so every earlier prefix loses, while the
    whole support wins.  Other orders go to ``pivot``.

    The draws of ``Random.shuffle`` are inlined: for i from the support's
    size less 1 down to 1, j is drawn from getrandbits of (i + 1)'s
    bit length, redrawn while it exceeds i, and positions i and j swap; so
    the stream of permutations is the stdlib's, drawn 2.5-3 times faster.
    The pivots are listed and counted a block of trials at a time, so the
    list stays small whatever the trial count.
    """
    order = _bits(support)
    if len(order) < 2:
        counts = Counter(dict.fromkeys(order, trials))
    else:
        getrandbits = random.Random(seed).getrandbits
        draws = [(i, (i + 1).bit_length()) for i in range(len(order) - 1, 0, -1)]
        counts, block = Counter(), 1 << 12
        for done in range(0, trials, block):
            pivots = []
            append = pivots.append
            for _ in range(min(block, trials - done)):
                for i, k in draws:
                    j = getrandbits(k)
                    while j > i:
                        j = getrandbits(k)
                    order[i], order[j] = order[j], order[i]
                last = order[-1]
                append(last if last & veto else pivot(order))
            counts.update(pivots)
    return {p: SampledEstimate(counts[1 << i], trials, eps, delta, seed) for i, p in enumerate(players)}
