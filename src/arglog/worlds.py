"""Possible worlds of a program's probabilistic facts, shared by both routes.

A world is the set of probabilistic-fact atoms chosen true. Worlds are
numbered by bitmask: bit i stands for the i-th fact atom in sorted order
(`fact_bits`), and worlds come in mask order 0, 1, ..., 2**n - 1. Both back
ends enumerate and number worlds here and nowhere else, so their per-world
results line up index by index.

Both back ends also evaluate worlds in blocks of `block_width(n)`, that is
2**min(n, BLOCK_BITS), consecutive masks: inside a block, a Boolean fact
holds one bit per world, bit w standing for the world whose mask is the
block's first mask plus w. `world_numerators` alone computes the worlds'
probabilities, as integer numerators over one common denominator, and
`world_lists` alone transposes a block's per-world vectors into lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import prod
from typing import Iterable, Sequence

from .errors import CapExceeded
from .limits import Caps
from .model import Atom, ProbFact

# a block of worlds spans at most 2**BLOCK_BITS masks, so a per-world bit
# vector is an int of at most 2**BLOCK_BITS bits
BLOCK_BITS = 10

_BYTE_OF_BIT = bytes.maketrans(b"01", b"\x00\x01")


def world_probability(world: frozenset[Atom], pfacts: Iterable[ProbFact]) -> Fraction:
    """Product of p over chosen facts and (1-p) over the rest; exact."""
    prob = Fraction(1)
    for pf in pfacts:
        prob *= pf.prob if pf.atom in world else 1 - pf.prob
    return prob


def world_numerators(
    pfacts: Iterable[ProbFact], max_pfacts: int = Caps.max_pfacts
) -> tuple[list[int], list[int], int]:
    """(lows, highs, denominator): world mask (block << b) + w, with
    b = block_bits(n), has probability highs[block] * lows[w] / denominator.

    Each table is doubled once per fact, its b low facts or the rest, by the
    fact's (absent, chosen) numerators; the denominator is the product of
    the facts' denominators. Refuses more than `max_pfacts` facts.
    """
    facts = sorted(pfacts, key=lambda pf: pf.atom)
    n = len(facts)
    if n > max_pfacts:
        raise CapExceeded(
            f"{n} probabilistic facts exceed the world-enumeration "
            f"cap of {max_pfacts} (2**{n} worlds)",
            cap="max_pfacts",
        )
    b = block_bits(n)
    lows, highs = [1], [1]
    for i, pf in enumerate(facts):
        table = lows if i < b else highs
        absent, chosen = pf.prob.denominator - pf.prob.numerator, pf.prob.numerator
        table[:] = [x * absent for x in table] + [x * chosen for x in table]
    return lows, highs, prod(pf.prob.denominator for pf in facts)


def weighted_worlds(
    pfacts: Iterable[ProbFact], max_pfacts: int = Caps.max_pfacts
) -> tuple[list[tuple[frozenset[Atom], int]], list[tuple[frozenset[Atom], int]], int]:
    """(lows, highs, denominator): the numerators of `world_numerators`, each
    paired with the chosen atoms it weighs. The world of mask
    (block << b) + w, with b = block_bits(n), chooses the union of the sets
    of lows[w] and highs[block], and has probability the product of their
    numerators over the denominator.

    The sets are built like the numerators, each table doubled once per
    fact: per low part of a mask (its b low facts) and per high part (the
    rest).
    """
    facts = sorted(pfacts, key=lambda pf: pf.atom)
    lows, highs, denominator = world_numerators(facts, max_pfacts)
    b = block_bits(len(facts))
    low_sets, high_sets = [frozenset()], [frozenset()]
    for i, pf in enumerate(facts):
        table = low_sets if i < b else high_sets
        table += [chosen | {pf.atom} for chosen in table]
    return list(zip(low_sets, lows)), list(zip(high_sets, highs)), denominator


def world_table(
    pfacts: Iterable[ProbFact], max_pfacts: int = Caps.max_pfacts
) -> list[tuple[frozenset[Atom], Fraction]]:
    """All 2**n (world, probability) pairs, in mask order, from the tables
    of `weighted_worlds`."""
    lows, highs, denominator = weighted_worlds(pfacts, max_pfacts)
    return [
        (high_set | low_set, Fraction(high * low, denominator))
        for high_set, high in highs
        for low_set, low in lows
    ]


def fact_bits(atoms: Iterable[Atom]) -> dict[Atom, int]:
    """The world numbering: each probabilistic-fact atom's bit in a world's
    mask, in sorted atom order; the dict iterates in bit order."""
    return {atom: 1 << i for i, atom in enumerate(sorted(atoms))}


def world_mask(bits: dict[Atom, int], world: frozenset[Atom]) -> int:
    """A world's mask under the numbering `bits` of `fact_bits`; the world
    is a set of probabilistic-fact atoms."""
    try:
        return sum(map(bits.__getitem__, world))
    except KeyError as missing:
        raise KeyError(f"{missing.args[0]} is not a probabilistic fact of this program") from None


def block_bits(n: int) -> int:
    """log2 of the number of worlds per block, over n probabilistic facts."""
    return min(n, BLOCK_BITS)


def block_width(n: int) -> int:
    """The number of worlds per block, over n probabilistic facts."""
    return 1 << block_bits(n)


def block_fact_vectors(n: int, block: int) -> list[int]:
    """For each of n facts, in bit order, its truth in each world of a block.

    Bit w of the i-th int is bit i of the mask (block << b) + w, with
    b = block_bits(n). The b low facts alternate in runs of 2**i worlds; the
    high facts are constant over the block, all ones or zero by `block`.
    """
    b = block_bits(n)
    full = (1 << block_width(n)) - 1
    vectors = []
    for i in range(b):
        run = 1 << i
        # one bit at the start of every period of 2*run worlds, times a run of
        # ones shifted into the period's upper half
        vectors.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    vectors += [full if block >> (i - b) & 1 else 0 for i in range(b, n)]
    return vectors


def world_flags(vector: int) -> bytes:
    """A per-world vector as bytes, byte w 1 where bit w is set and 0 where
    it is not, up to its highest set bit; a selector for `compress`."""
    return format(vector, "b").encode().translate(_BYTE_OF_BIT)[::-1]


def masked_sum(values: Sequence[int], vector: int) -> int:
    """The sum of `values[w]` over the set bits w of a per-world vector."""
    if not vector:
        return 0
    return sum(compress(values, world_flags(vector)))


def world_lists(width: int, vectors: Iterable[int], groups: Iterable[list]) -> list[list]:
    """Per world of a block of `width` worlds, the items of every group whose
    vector, paired with the groups in order, holds the world."""
    worlds = range(width)
    lists: list[list] = [[] for _ in worlds]
    for vector, group in zip(vectors, groups, strict=True):
        for w in compress(worlds, world_flags(vector)):
            lists[w] += group
    return lists
