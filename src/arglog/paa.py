"""Probabilistic layer over the argumentation view of a ground program.

Worlds are subsets of the fact-assumption atoms; each world keeps exactly the
arguments whose fact support it contains, and the grounded extension of that
restricted framework decides acceptance. Probabilities of acceptance are
exact rational sums of world probabilities.

The engine compiles the framework once. `aba` gives the arguments in
canonical order as ints, each with its claim's number and its fact support
as an int bitmask over the fact atoms (in the bit order of the shared world
enumeration), and the attack relation factored through claims: the
arguments claiming one sentence attack the arguments assuming its contrary,
so it costs one entry per assumption and never one per attack. Every world
is then labelled exactly once, a block of worlds per labelling, and each
block's IN vectors are kept. A probability is the sum of the worlds'
integer numerators from `worlds.world_numerators` at the set bits of a
vector, over one common denominator. The engine builds no row per world:
`equivalence.world_traces` builds them from its vectors.

The engine owns the program's world numerators, built on first use, which
every probability reads; `equivalence.WorldTraces.worlds` pairs them
with the chosen-atom sets for the passes that walk the worlds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import and_
from typing import Iterable

from .aba import AaFramework, Argument, argument_table, build_problog_aba, compute_attacks
from .limits import Caps
from .model import Atom, GroundProgram, matches
from .semantics import grounded_block
from .worlds import (
    block_fact_vectors,
    block_width,
    fact_bits,
    masked_sum,
    world_lists,
    world_mask,
    world_numerators,
    world_table,
)


class PaaEngine:
    """Grounded-semantics probabilities of arguments and queries for one program.

    Inference reads the argument table's ints, and `claim_of` holds each
    argument's claim, read from the table's sentences. The `Argument`
    triples are built on the first read of `arguments`, which `aaf`,
    `grounded_prob_argument` and the listings of `arglog show` make.
    """

    def __init__(self, gp: GroundProgram, caps: Caps = Caps()):
        self.gp = gp
        self.caps = caps
        self.framework = build_problog_aba(gp)
        self._table = table = argument_table(self.framework, caps.max_arguments)
        self._bit = fact_bits(gp.fact_atoms)
        # arguments grouped by fact support, so one test per group decides them
        self._by_need: dict[int, list[int]] = {}
        for i, need in enumerate(table.fact_masks):
            self._by_need.setdefault(need, []).append(i)
        self.claim_of = [table.sentences[c] for c in table.claims]
        self._width = block_width(len(self._bit))
        # the last block of worlds asked for, its group vectors and, once
        # `applicable_indices` has asked, per world of it the applicable arguments
        self._kept_block = -1
        self._kept_groups: list[int] = []
        self._kept_lists: list[list[int]] | None = None
        self._claiming: dict[Atom, list[int]] = {}
        for i, claim in enumerate(self.claim_of):
            if not claim.negated:
                self._claiming.setdefault(claim.atom, []).append(i)

    @property
    def arguments(self) -> tuple[Argument, ...]:
        """The (assumptions, claim, rules) triples in canonical order, built
        on first read; inference reads the table's ints instead."""
        return self._table.arguments

    @cached_property
    def aaf(self) -> AaFramework:
        """The abstract view with explicit attack pairs, built on first use;
        inference reads the factored relation instead."""
        return AaFramework(self.arguments, compute_attacks(self.framework, self.arguments))

    def worlds(self) -> list[tuple[frozenset[Atom], Fraction]]:
        return world_table(self.gp.pfacts, self.caps.max_pfacts)

    @cached_property
    def numerators(self) -> tuple[list[int], list[int], int]:
        """The program's world table as `world_numerators` gives it: the
        low-bit and per-block numerators and the common denominator,
        computed on first use. Probabilities read these alone."""
        return world_numerators(self.gp.pfacts, self.caps.max_pfacts)

    def _group_vectors(self, block: int) -> list[int]:
        """Per fact-support group of `_by_need`, in its order, the worlds of
        a block that hold every fact of the group's need: the AND of the
        facts' vectors. Those of the last block asked for are kept."""
        if block != self._kept_block:
            vectors = block_fact_vectors(len(self._bit), block)
            full = (1 << self._width) - 1
            self._kept_groups = [
                reduce(and_, [vectors[i] for i in range(need.bit_length()) if need >> i & 1], full)
                for need in self._by_need
            ]
            self._kept_block, self._kept_lists = block, None
        return self._kept_groups

    def applicable_vectors(self, block: int) -> list[int]:
        """Per argument, the worlds of a block where it is applicable: those
        that hold all of its facts."""
        active = [0] * len(self.claim_of)
        for vector, group in zip(self._group_vectors(block), self._by_need.values()):
            for i in group:
                active[i] = vector
        return active

    def applicable_indices(self, world: frozenset[Atom]) -> frozenset[int]:
        """The arguments whose facts the world holds, looked up in one list
        per world of its block: the block's `applicable_vectors`, transposed
        a fact-support group at a time. The lists of one block are kept."""
        block, w = divmod(world_mask(self._bit, world), self._width)
        groups = self._group_vectors(block)
        if self._kept_lists is None:
            self._kept_lists = world_lists(self._width, groups, self._by_need.values())
        return frozenset(self._kept_lists[w])

    @cached_property
    def _labels(self) -> list[list[int]]:
        """Per block of worlds, in mask order, each argument's IN vector: one
        block labelling of the arguments' applicable vectors, computed on
        first use."""
        claims, contraries = self._table.claims, self._table.contraries
        return [
            grounded_block(self.applicable_vectors(block), claims, contraries)
            for block in range(len(self.numerators[1]))
        ]

    def in_vectors(self) -> list[list[int]]:
        """Per block of worlds, in mask order, each argument's IN vector."""
        return self._labels

    def mass(self, vectors: Iterable[int]) -> Fraction:
        """Probability mass at the set bits of `vectors`, one vector per block
        of worlds in mask order."""
        lows, highs, denominator = self.numerators
        total = sum(
            high * masked_sum(lows, vector) for high, vector in zip(highs, vectors, strict=True)
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
        lows, highs, denominator = self.numerators
        grounded = spread = 0
        for high, inside in zip(highs, self._labels):
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
