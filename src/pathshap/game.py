"""Generic Shapley machinery over monotone 0/1 coalition games.

Coalitions are frozensets of player ids on the public surface and bitmasks
(bit i = the i-th player) inside.  The exact engine sweeps a truth table of
all 2^n masks once; the samplers memoize valuations per game (bounded LRU),
since permutation prefixes repeat heavily.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import EnumerationOverflow

SUBSET_CAP = 22
VALUATION_CACHE_SIZE = 1 << 20


class CoalitionGame:
    """Ordered players plus a 0/1 valuation over coalitions.

    The valuation must satisfy v(empty) == 0 (baseline shifts belong to the
    instantiating code) and must be monotone.  Give it on frozensets of
    players (``valuation``) or on bitmasks (``mask_valuation``); the other
    form is derived once, so both attributes are always there.
    """

    def __init__(
        self,
        players: Sequence[str],
        valuation: Optional[Callable[[frozenset[str]], int]] = None,
        *,
        mask_valuation: Optional[Callable[[int], int]] = None,
    ):
        if (valuation is None) == (mask_valuation is None):
            raise ValueError("give exactly one of valuation and mask_valuation")
        self.players = tuple(players)
        self._index = {p: i for i, p in enumerate(self.players)}
        if mask_valuation is None:
            mask_valuation = lambda mask: valuation(
                frozenset(p for i, p in enumerate(self.players) if mask >> i & 1)
            )
        if valuation is None:
            valuation = lambda coalition: mask_valuation(self.mask_of(coalition))
        self.valuation = valuation
        self.mask_valuation = mask_valuation
        self._cache: dict[int, int] = {}

    def value_of_mask(self, mask: int) -> int:
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        value = 1 if self.mask_valuation(mask) else 0
        if len(self._cache) >= VALUATION_CACHE_SIZE:
            self._cache.clear()
        self._cache[mask] = value
        return value

    def value(self, coalition: Iterable[str]) -> int:
        return self.value_of_mask(self.mask_of(coalition))

    def mask_of(self, coalition: Iterable[str]) -> int:
        mask = 0
        for p in coalition:
            mask |= 1 << self._index[p]
        return mask

    def player_bit(self, player: str) -> int:
        return 1 << self._index[player]


@dataclass(frozen=True)
class SampledEstimate:
    """Monte-Carlo success ratio with its (eps, delta) contract."""

    successes: int
    samples: int
    eps: float
    delta: float
    seed: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.successes, self.samples)


@dataclass(frozen=True)
class ShapleyReport:
    method: str  # exact-subset | exact-poly | mc-additive | mc-multiplicative
    values: dict[str, Union[Fraction, SampledEstimate]]
    flags: tuple[str, ...] = ()


def sample_count(eps: float, delta: float) -> int:
    """Hoeffding trial count for an additive (eps, delta) guarantee."""
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))


def shapley_exact_subset(g: CoalitionGame, a: str, cap: int = SUBSET_CAP) -> Fraction:
    """Exact value of one player."""
    return _shapley_by_size(g, a, cap)[a]


def shapley_exact_subset_all(g: CoalitionGame, cap: int = SUBSET_CAP) -> dict[str, Fraction]:
    """Exact values of every player."""
    return _shapley_by_size(g, None, cap)


def _shapley_by_size(g: CoalitionGame, focus: Optional[str], cap: int) -> dict[str, Fraction]:
    """Exact values from winning coalitions counted by size.

    With W(k) the size-k winning coalitions and W_a(k) those among them that
    contain a, phi(a) = sum_k k!(n-k-1)!/n! * (W_a(k+1) - (W(k) - W_a(k))):
    the size-k coalitions without a that win once a joins, minus those that
    win without a.  One sweep over the masks in increasing order fills a
    truth table, holding |mask| + 1 for a winning mask and 0 for a losing
    one; a mask whose lowest bit removed already wins needs no valuation,
    since the game is monotone.  The counts are integers and each value is
    one Fraction over n!.
    """
    n = len(g.players)
    if n > cap:
        raise EnumerationOverflow(f"{n} players exceeds subset enumeration cap {cap}")
    wins = g.mask_valuation
    full = 1 << n
    table = bytearray(full)
    for mask in range(full):
        if table[mask & (mask - 1)] or wins(mask):
            table[mask] = mask.bit_count() + 1
    winning = [table.count(k + 1) for k in range(n + 1)]
    weights = [math.factorial(k) * math.factorial(n - k - 1) for k in range(n)]
    denominator = math.factorial(n)
    values = {}
    for i, p in enumerate(g.players):
        if focus is not None and p != focus:
            continue
        with_p = _masks_with_bit(table, 1 << i)
        containing = [0] + [with_p.count(k + 1) for k in range(1, n + 1)]
        total = sum(
            weights[k] * (containing[k + 1] - winning[k] + containing[k])
            for k in range(n)
        )
        values[p] = Fraction(total, denominator)
    return values


def _masks_with_bit(table: bytearray, bit: int) -> bytes:
    """The table entries of the masks that contain ``bit``, in some order:
    ``bit`` strided slices or len/(2 bit) runs, whichever are fewer."""
    step = 2 * bit
    if bit * bit < len(table):
        return b"".join(table[lo::step] for lo in range(bit, step))
    return b"".join(table[lo:lo + bit] for lo in range(bit, len(table), step))


def _trial_rng(seed: int, player: str, trial: int) -> random.Random:
    # string seeding hashes via sha512 in CPython: stable across runs/platforms
    return random.Random(f"{seed}:{player}:{trial}")


def _fisher_yates(rng: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def shapley_mc(
    g: CoalitionGame,
    a: str,
    eps: float,
    delta: float,
    seed: int,
) -> SampledEstimate:
    """Additive Monte-Carlo estimate over Hoeffding-many permutation trials.

    Each trial draws an independent uniform permutation from its own
    deterministic substream, takes the prefix before the player as the
    coalition, and scores whether the player's marginal contribution is 1.
    """
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    n = sample_count(eps, delta)
    bit = g.player_bit(a)
    successes = 0
    order_template = [1 << i for i in range(len(g.players))]
    for trial in range(n):
        order = list(order_template)
        _fisher_yates(_trial_rng(seed, a, trial), order)
        mask = 0
        for b in order:
            if b == bit:
                break
            mask |= b
        if g.value_of_mask(mask | bit) - g.value_of_mask(mask) == 1:
            successes += 1
    return SampledEstimate(successes, n, eps, delta, seed)


def shapley_nonzero(
    g: CoalitionGame,
    a: str,
    supports: Iterator[frozenset[str]],
) -> bool:
    """Positivity via minimal-winning-coalition witnesses.

    The supplied enumerator must cover every minimal winning coalition; for a
    monotone game the value is positive iff the player lies in one of them.
    """
    for s in supports:
        if a not in s:
            continue
        if g.value(s) == 1 and g.value(s - {a}) == 0:
            return True
    return False
