"""Probabilistic layer over the argumentation view of a ground program.

Worlds are subsets of the fact-assumption atoms; each world keeps exactly the
arguments whose fact support it contains, and the grounded extension of that
restricted framework decides acceptance. Probabilities of acceptance are
exact rational sums of world probabilities.

The engine compiles the framework once. `aba` gives the arguments in
canonical order, each with its fact support as an int bitmask over the fact
atoms (in the bit order of the shared world enumeration), and the attack
relation factored through claims: the arguments claiming one sentence attack
the arguments assuming its contrary, so it costs one entry per assumption
and never one per attack. Every world is then labelled exactly once, a block
of worlds per labelling. Each block's IN vectors are kept with the block's
share of the world probability numerators from `worlds.world_numerators`;
a probability is the sum of the worlds' integer numerators at the set bits
of a vector, over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import and_
from typing import Iterable, Iterator

from .aba import AaFramework, Argument, argument_table, build_problog_aba, compute_attacks
from .limits import Caps
from .model import Atom, GroundProgram, matches
from .semantics import grounded_block
from .worlds import (
    block_fact_vectors,
    block_width,
    fact_bits,
    masked_sum,
    world_mask,
    world_numerators,
    world_table,
)


class PaaEngine:
    """Grounded-semantics probabilities of arguments and queries for one program."""

    def __init__(self, gp: GroundProgram, caps: Caps = Caps()):
        self.gp = gp
        self.caps = caps
        self.framework = build_problog_aba(gp)
        self._table = argument_table(self.framework, caps.max_arguments)
        self.arguments = self._table.arguments
        self._bit = fact_bits(gp.fact_atoms)
        # arguments grouped by fact support, so one test per group decides them
        self._by_need: dict[int, list[int]] = {}
        for i, need in enumerate(self._table.fact_masks):
            self._by_need.setdefault(need, []).append(i)
        self._claiming: dict[Atom, list[int]] = {}
        for i, arg in enumerate(self.arguments):
            if not arg.claim.negated:
                self._claiming.setdefault(arg.claim.atom, []).append(i)

    @cached_property
    def aaf(self) -> AaFramework:
        """The abstract view with explicit attack pairs, built on first use;
        inference reads the factored relation instead."""
        return AaFramework(self.arguments, compute_attacks(self.framework, self.arguments))

    def worlds(self) -> list[tuple[frozenset[Atom], Fraction]]:
        return world_table(self.gp.pfacts, self.caps.max_pfacts)

    def applicable_indices(self, world: frozenset[Atom]) -> frozenset[int]:
        mask = world_mask(self._bit, world)
        groups = [group for need, group in self._by_need.items() if need & mask == need]
        return frozenset(chain.from_iterable(groups))

    @cached_property
    def _labels(self) -> tuple[list[int], list[tuple[int, list[int]]], int]:
        """The low-bit numerators, per block of worlds its high numerator and
        each argument's IN vector, and the common denominator, as
        `world_numerators` gives them; computed on first use.

        An argument's active vector is the AND of its facts' vectors over the
        block, and one block labelling gives each argument's IN vector.
        """
        lows, highs, denominator = world_numerators(self.gp.pfacts, self.caps.max_pfacts)
        n, full = len(self._bit), (1 << len(lows)) - 1
        supports = {need: [i for i in range(n) if need >> i & 1] for need in self._by_need}
        blocks = []
        active = [0] * len(self.arguments)
        for block, high in enumerate(highs):
            vectors = block_fact_vectors(n, block)
            for need, group in self._by_need.items():
                vector = reduce(and_, [vectors[i] for i in supports[need]], full)
                for i in group:
                    active[i] = vector
            inside = grounded_block(active, self._table.claims, self._table.contraries)
            blocks.append((high, inside))
        return lows, blocks, denominator

    def in_vectors(self) -> list[list[int]]:
        """Per block of worlds, in mask order, each argument's IN vector."""
        return [inside for _, inside in self._labels[1]]

    def evaluations(self) -> Iterator[tuple[frozenset[Atom], Fraction, frozenset[int]]]:
        """(world, probability, accepted indices) for every world, in mask
        order: the rows of `world_table`, each with the world's applicable
        arguments whose IN bit is set in the world's block."""
        vectors, width = self.in_vectors(), block_width(len(self._bit))
        for mask, (world, prob) in enumerate(self.worlds()):
            inside, bit = vectors[mask // width], 1 << mask % width
            accepted = frozenset(i for i in self.applicable_indices(world) if inside[i] & bit)
            yield world, prob, accepted

    def mass(self, vectors: Iterable[int]) -> Fraction:
        """Probability mass at the set bits of `vectors`, one vector per block
        of worlds in mask order."""
        lows, blocks, denominator = self._labels
        total = sum(
            high * masked_sum(lows, vector)
            for (high, _), vector in zip(blocks, vectors, strict=True)
        )
        return Fraction(total, denominator)

    def grounded_prob_argument(self, argument: Argument) -> Fraction:
        """Probability mass of worlds whose grounded extension holds the argument."""
        try:
            index = self.arguments.index(argument)
        except ValueError:
            raise KeyError(f"{argument} is not an argument of this framework") from None
        return self.mass(inside[index] for inside in self.in_vectors())

    def instance_atoms(self, query: Atom) -> frozenset[Atom]:
        """The Herbrand atoms that are instances of the query atom."""
        if query.is_ground:
            return frozenset({query} & self.gp.herbrand_base)
        return frozenset(a for a in self.gp.herbrand_base if matches(query, a))

    def query_argument_indices(self, query: Atom) -> frozenset[int]:
        """Indices of arguments whose claim is an instance of the query atom."""
        return frozenset(
            chain.from_iterable(self._claiming.get(a, ()) for a in self.instance_atoms(query))
        )

    def query_masses(self, query: Atom) -> tuple[Fraction, Fraction]:
        """The query's grounded probability and its argument probability sum,
        in one pass over the block labellings."""
        claiming = self.query_argument_indices(query)
        lows, blocks, denominator = self._labels
        grounded = spread = 0
        for high, inside in blocks:
            accepted = 0
            for i in claiming:
                accepted |= inside[i]
                spread += high * masked_sum(lows, inside[i])
            grounded += high * masked_sum(lows, accepted)
        return Fraction(grounded, denominator), Fraction(spread, denominator)

    def grounded_prob_query(self, query: Atom) -> Fraction:
        """Probability mass of worlds accepting at least one argument claiming
        (an instance of) the query; each world counted once."""
        return self.query_masses(query)[0]

    def argument_probability_sum(self, query: Atom) -> Fraction:
        """Sum of per-argument probabilities over all arguments claiming the
        query; counts a world once per accepted argument, so it can exceed
        the query probability."""
        return self.query_masses(query)[1]
