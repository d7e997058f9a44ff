"""Possible worlds of a program's probabilistic facts, shared by both routes.

A world is the set of probabilistic-fact atoms chosen true. Worlds are
numbered by bitmask: bit i stands for the i-th fact atom in sorted order, and
worlds come in mask order 0, 1, ..., 2**n - 1. Both back ends enumerate worlds
here and nowhere else, so their per-world results line up index by index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CapExceeded
from .model import Atom, ProbFact


def world_probability(world: frozenset[Atom], pfacts: Iterable[ProbFact]) -> Fraction:
    """Product of p over chosen facts and (1-p) over the rest; exact."""
    prob = Fraction(1)
    for pf in pfacts:
        prob *= pf.prob if pf.atom in world else 1 - pf.prob
    return prob


def enumerate_worlds(
    pfacts: Iterable[ProbFact], max_pfacts: int = 24
) -> Iterator[tuple[int, frozenset[Atom], Fraction]]:
    """Every world as (mask, world, probability), in mask order.

    Probabilities sum to exactly 1. Refuses more than `max_pfacts` facts. The
    probability of a world reuses the product over the high bits it shares
    with the previous world, so the whole enumeration takes fewer than
    2**(n+1) + n exact multiplications instead of n per world.
    """
    facts = sorted(pfacts, key=lambda pf: pf.atom)
    n = len(facts)
    if n > max_pfacts:
        raise CapExceeded(
            f"{n} probabilistic facts exceed the world-enumeration "
            f"cap of {max_pfacts} (2**{n} worlds)"
        )
    atoms = [pf.atom for pf in facts]
    factors = [(1 - pf.prob, pf.prob) for pf in facts]  # by bit: (absent, chosen)
    # partial[i]: product of the factors of bits i..n-1 of the current mask
    partial = [Fraction(1)] * (n + 1)
    for mask in range(1 << n):
        # going from mask-1 to mask changes exactly the bits up to the lowest set one
        top = (mask & -mask).bit_length() - 1 if mask else n - 1
        for i in range(top, -1, -1):
            partial[i] = partial[i + 1] * factors[i][mask >> i & 1]
        world = frozenset(atoms[i] for i in range(n) if mask >> i & 1)
        yield mask, world, partial[0]


def world_table(
    pfacts: Iterable[ProbFact], max_pfacts: int = 24
) -> list[tuple[frozenset[Atom], Fraction]]:
    """All 2**n (world, probability) pairs, in mask order."""
    return [(world, prob) for _, world, prob in enumerate_worlds(pfacts, max_pfacts)]
