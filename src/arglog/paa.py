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
of worlds per labelling. Each block's IN vectors are kept, and a probability
is the sum of the worlds' integer numerators at the set bits of a vector,
over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress
from operator import and_
from typing import Iterable

from .aba import AaFramework, Argument, argument_table, build_problog_aba, compute_attacks
from .limits import Caps
from .model import Atom, GroundProgram, matches
from .semantics import grounded_block
from .worlds import (
    block_fact_vectors,
    block_width,
    common_numerators,
    fact_bits,
    masked_sum,
    world_columns,
    world_mask,
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
        self._width = block_width(len(self._bit))
        # arguments grouped by fact support, so one test per group decides them
        self._by_need: dict[int, list[int]] = {}
        for i, need in enumerate(self._table.fact_masks):
            self._by_need.setdefault(need, []).append(i)
        self._claiming: dict[Atom, list[int]] = {}
        for i, arg in enumerate(self.arguments):
            if not arg.claim.negated:
                self._claiming.setdefault(arg.claim.atom, []).append(i)
        self._labels: tuple[list, list[tuple[list[int], list[int]]], int] | None = None
        self._evaluations: list[tuple[frozenset[Atom], Fraction, frozenset[int]]] | None = None

    @cached_property
    def aaf(self) -> AaFramework:
        """The abstract view with explicit attack pairs, built on first use;
        inference reads the factored relation instead."""
        return AaFramework(self.arguments, compute_attacks(self.framework, self.arguments))

    def worlds(self) -> list[tuple[frozenset[Atom], Fraction]]:
        return world_table(self.gp.pfacts, self.caps.max_pfacts)

    def applicable_indices(self, world: frozenset[Atom]) -> frozenset[int]:
        mask = world_mask(self._bit, world)
        return frozenset(
            chain.from_iterable(
                group for need, group in self._by_need.items() if need & mask == need
            )
        )

    def _labelling(self) -> tuple[list, list[tuple[list[int], list[int]]], int]:
        """The world table, and per block of worlds the worlds' probability
        numerators and each argument's IN vector, with the common denominator;
        computed on first use.

        An argument's active vector is the AND of its facts' vectors over the
        block, and one block labelling gives each argument's IN vector.
        """
        if self._labels is None:
            table = self.worlds()
            numerators, denominator = common_numerators(prob for _, prob in table)
            n, width = len(self._bit), self._width
            full = (1 << width) - 1
            supports = {
                need: [i for i in range(n) if need >> i & 1] for need in self._by_need
            }
            blocks = []
            active = [0] * len(self.arguments)
            for start in range(0, len(table), width):
                vectors = block_fact_vectors(n, start // width)
                for need, group in self._by_need.items():
                    vector = reduce(and_, [vectors[i] for i in supports[need]], full)
                    for i in group:
                        active[i] = vector
                inside = grounded_block(active, self._table.claims, self._table.contraries)
                blocks.append((numerators[start : start + width], inside))
            self._labels = table, blocks, denominator
        return self._labels

    def in_vectors(self) -> list[list[int]]:
        """Per block of worlds, in mask order, each argument's IN vector."""
        return [inside for _, inside in self._labelling()[1]]

    def evaluations(self) -> list[tuple[frozenset[Atom], Fraction, frozenset[int]]]:
        """(world, probability, accepted indices) for every world, in mask
        order, read from the block labellings; computed on first use, then
        shared by every query."""
        if self._evaluations is None:
            table, blocks, _ = self._labelling()
            width = self._width
            indices = range(len(self.arguments))
            self._evaluations = []
            for start, (_, inside) in zip(range(0, len(table), width), blocks):
                rows = table[start : start + width]
                for (world, prob), accepts in zip(rows, world_columns(inside, width)):
                    accepted = self.applicable_indices(world).intersection(
                        compress(indices, accepts)
                    )
                    self._evaluations.append((world, prob, accepted))
        return self._evaluations

    def mass(self, vectors: Iterable[int]) -> Fraction:
        """Probability mass at the set bits of `vectors`, one vector per block
        of worlds in mask order."""
        _, blocks, denominator = self._labelling()
        total = sum(
            masked_sum(numerators, vector)
            for (numerators, _), vector in zip(blocks, vectors, strict=True)
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
        _, blocks, denominator = self._labelling()
        grounded = spread = 0
        for numerators, inside in blocks:
            accepted = 0
            for i in claiming:
                accepted |= inside[i]
                spread += masked_sum(numerators, inside[i])
            grounded += masked_sum(numerators, accepted)
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
