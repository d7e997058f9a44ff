"""Possible worlds of a program's probabilistic facts, shared by both routes.

A world is the set of probabilistic-fact atoms chosen true. Worlds are
numbered by bitmask: bit i stands for the i-th fact atom in sorted order
(`fact_bits`), and worlds come in mask order 0, 1, ..., 2**n - 1. Both back
ends enumerate and number worlds here and nowhere else, so their per-world
results line up index by index.

Both back ends also evaluate worlds in blocks of `block_width(n)`, that is
2**min(n, BLOCK_BITS), consecutive masks: inside a block, a Boolean fact
holds one bit per world, bit w standing for the world whose mask is the
block's first mask plus w.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm, prod
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded
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


def enumerate_worlds(
    pfacts: Iterable[ProbFact], max_pfacts: int = 24
) -> Iterator[tuple[int, frozenset[Atom], Fraction]]:
    """Every world as (mask, world, probability), in mask order.

    Probabilities sum to exactly 1. Refuses more than `max_pfacts` facts. A
    world reuses the numerator product and the chosen atoms of the high bits
    it shares with the previous world, so the whole enumeration takes fewer
    than 2**(n+1) + n int multiplications and set unions, plus one exact
    division by the common denominator per world.
    """
    facts = sorted(pfacts, key=lambda pf: pf.atom)
    n = len(facts)
    if n > max_pfacts:
        raise CapExceeded(
            f"{n} probabilistic facts exceed the world-enumeration "
            f"cap of {max_pfacts} (2**{n} worlds)"
        )
    singletons = [frozenset({pf.atom}) for pf in facts]
    # by bit: the numerators of (absent, chosen) over the fact's denominator
    factors = [(pf.prob.denominator - pf.prob.numerator, pf.prob.numerator) for pf in facts]
    denominator = prod(pf.prob.denominator for pf in facts)
    # partial[i], chosen[i]: the numerator product and the chosen atoms of
    # bits i..n-1 of the current mask
    partial = [1] * (n + 1)
    chosen = [frozenset()] * (n + 1)
    for mask in range(1 << n):
        # going from mask-1 to mask changes exactly the bits up to the lowest set one
        top = (mask & -mask).bit_length() - 1 if mask else n - 1
        for i in range(top, -1, -1):
            if mask >> i & 1:
                partial[i] = partial[i + 1] * factors[i][1]
                chosen[i] = chosen[i + 1] | singletons[i]
            else:
                partial[i] = partial[i + 1] * factors[i][0]
                chosen[i] = chosen[i + 1]
        yield mask, chosen[0], Fraction(partial[0], denominator)


def world_table(
    pfacts: Iterable[ProbFact], max_pfacts: int = 24
) -> list[tuple[frozenset[Atom], Fraction]]:
    """All 2**n (world, probability) pairs, in mask order."""
    return [(world, prob) for _, world, prob in enumerate_worlds(pfacts, max_pfacts)]


def fact_bits(atoms: Iterable[Atom]) -> dict[Atom, int]:
    """The world numbering: each probabilistic-fact atom's bit in a world's
    mask, in sorted atom order; the dict iterates in bit order."""
    return {atom: 1 << i for i, atom in enumerate(sorted(atoms))}


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


def world_columns(vectors: list[int], width: int) -> Iterator[tuple[int, ...]]:
    """Transpose per-item vectors over a block of `width` worlds: one tuple
    per world, in world order, holding each item's bit there (0 or 1)."""
    rows = [format(v, f"0{width}b").encode().translate(_BYTE_OF_BIT)[::-1] for v in vectors]
    return zip(*rows) if rows else iter([()] * width)


def common_numerators(probabilities: Iterable[Fraction]) -> tuple[list[int], int]:
    """The probabilities as integer numerators over one common denominator,
    their least common one: (numerators, denominator)."""
    probabilities = list(probabilities)
    denominator = lcm(*{prob.denominator for prob in probabilities})
    numerators = [prob.numerator * (denominator // prob.denominator) for prob in probabilities]
    return numerators, denominator


def masked_sum(values: Sequence[int], vector: int) -> int:
    """The sum of `values[w]` over the set bits w of a per-world vector."""
    if not vector:
        return 0
    return sum(compress(values, format(vector, "b").encode().translate(_BYTE_OF_BIT)[::-1]))
