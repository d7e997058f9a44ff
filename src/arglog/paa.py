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

Arguments with the same fact support form one group. A group's worlds in a
block are the AND of its low facts' vectors, the same in every block, or
none where the block lacks one of its high facts. One world's applicable
arguments, which only a lone query's per-world pass asks for, are an
`ApplicableArguments` view of the world's bit in its block's applicable
vectors, as a world's model is a view of its kernel's block.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count
from operator import and_
from typing import Iterable, Iterator

from .aba import AaFramework, Argument, argument_table, build_problog_aba, compute_attacks
from .limits import Caps
from .model import Atom, GroundProgram, cached_property, matches
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


class ApplicableArguments:
    """One world's applicable arguments, by index: a view, built by
    `PaaEngine.applicable_indices`, of the world's place `w` in its block's
    applicable vectors, one per argument. It iterates in increasing index
    order, counts and tests membership without building a set, and
    compares and hashes as the `frozenset` of its indices.
    """

    __slots__ = ("_vectors", "_w")

    def __init__(self, vectors: list[int], w: int):
        self._vectors, self._w = vectors, w

    def _flags(self) -> list[int]:
        w = self._w
        return [v >> w & 1 for v in self._vectors]

    def __iter__(self) -> Iterator[int]:
        return compress(count(), self._flags())

    def __len__(self) -> int:
        return sum(self._flags())

    def __contains__(self, i: object) -> bool:
        vectors = self._vectors
        return isinstance(i, int) and 0 <= i < len(vectors) and bool(vectors[i] >> self._w & 1)

    def __eq__(self, other):
        if isinstance(other, (ApplicableArguments, set, frozenset)):
            return frozenset(self) == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self))


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
        # the last block whose applicable vectors were asked for, and those
        self._active_block = -1
        self._active: list[int] = []
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

    @cached_property
    def _low_vectors(self) -> list[int]:
        """Per fact-support group of `_by_need`, in its order, the worlds of
        any block that hold the low facts of the group's need, those below
        the block width: the AND of their vectors, built on first use. The
        high facts are constant over a block, so a group's worlds in a block
        are these or none."""
        low = self._width - 1
        full, vectors = (1 << self._width) - 1, block_fact_vectors(len(self._bit), 0)
        return [
            reduce(and_, [vectors[i] for i in range(low.bit_length()) if need >> i & 1], full)
            for need in self._by_need
        ]

    def applicable_vectors(self, block: int) -> list[int]:
        """Per argument, the worlds of a block where it is applicable: those
        that hold all of its facts. Those of the last block asked for are
        kept; each block gets a fresh list and none is changed once built,
        so a view of an earlier block still reads its own."""
        if block != self._active_block:
            b = self._width.bit_length() - 1
            active = [0] * len(self.claim_of)
            for (need, group), vector in zip(self._by_need.items(), self._low_vectors):
                if not need >> b & ~block:
                    for i in group:
                        active[i] = vector
            self._active_block, self._active = block, active
        return self._active

    def applicable_indices(self, world: frozenset[Atom]) -> ApplicableArguments:
        """The arguments whose facts the world holds: a view of the world's
        bit in its block's `applicable_vectors`."""
        block, w = divmod(world_mask(self._bit, world), self._width)
        return ApplicableArguments(self.applicable_vectors(block), w)

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
        return self._claiming_any(self.instance_atoms(query))

    def _claiming_any(self, atoms: Iterable[Atom]) -> frozenset[int]:
        """Indices of arguments whose claim is one of the atoms, from the
        claim index."""
        return frozenset(chain.from_iterable(self._claiming.get(a, ()) for a in atoms))

    def query_masses(self, query: Atom) -> tuple[Fraction, Fraction]:
        """The query's grounded probability and its argument probability sum,
        in one pass over the block labellings."""
        return self._instance_masses(self.instance_atoms(query))

    def _instance_masses(self, instances: Iterable[Atom]) -> tuple[Fraction, Fraction]:
        """`query_masses` of a query whose `instance_atoms` are `instances`."""
        claiming = self._claiming_any(instances)
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
