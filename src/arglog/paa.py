"""Probabilistic layer over the argumentation view of a ground program.

Worlds are subsets of the fact-assumption atoms; each world keeps exactly the
arguments whose fact support it contains, and the grounded extension of that
restricted framework decides acceptance. Probabilities of acceptance are
exact rational sums of world probabilities.

The engine compiles the framework once: each argument's fact support becomes
an int bitmask over the fact atoms, in the bit order of the shared world
enumeration, and the attack relation becomes int attacker and target lists.
Every world is then labelled exactly once, a block of worlds per labelling,
and all probabilities are read from that one pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import and_

from .aba import AaFramework, Argument, build_aa_framework, build_problog_aba
from .limits import Caps
from .model import Atom, GroundProgram, Literal, matches
from .semantics import grounded_block
from .worlds import block_bits, block_fact_vectors, world_columns, world_table


def applicable(world: frozenset[Atom], argument: Argument) -> bool:
    """An argument applies in a world iff the world chose all its fact assumptions."""
    return argument.fact_support <= world


def restrict(aaf: AaFramework, world: frozenset[Atom]) -> AaFramework:
    """The framework with respect to a world: applicable arguments only,
    attacks restricted to the survivors (indices are compacted)."""
    keep = [i for i, arg in enumerate(aaf.arguments) if applicable(world, arg)]
    renumber = {old: new for new, old in enumerate(keep)}
    attacks = frozenset(
        (renumber[i], renumber[j])
        for i, j in aaf.attacks
        if i in renumber and j in renumber
    )
    return AaFramework(tuple(aaf.arguments[i] for i in keep), attacks)


class PaaEngine:
    """Grounded-semantics probabilities of arguments and queries for one program."""

    def __init__(self, gp: GroundProgram, caps: Caps = Caps()):
        self.gp = gp
        self.caps = caps
        self.framework = build_problog_aba(gp)
        self.aaf = build_aa_framework(self.framework, caps.max_arguments)
        self._bit = {atom: 1 << i for i, atom in enumerate(sorted(gp.fact_atoms))}
        self._needs = [
            sum(self._bit[atom] for atom in arg.fact_support) for arg in self.aaf.arguments
        ]
        # arguments grouped by fact support, so one test per group decides them
        self._by_need: dict[int, list[int]] = {}
        for i, need in enumerate(self._needs):
            self._by_need.setdefault(need, []).append(i)
        self._attackers: list[list[int]] = [[] for _ in self.aaf.arguments]
        self._targets: list[list[int]] = [[] for _ in self.aaf.arguments]
        for source, target in self.aaf.attacks:
            self._attackers[target].append(source)
            self._targets[source].append(target)
        self._evaluations: list[tuple[frozenset[Atom], Fraction, frozenset[int]]] | None = None

    def _mask(self, world: frozenset[Atom]) -> int:
        return sum(self._bit[atom] for atom in world if atom in self._bit)

    def worlds(self) -> list[tuple[frozenset[Atom], Fraction]]:
        return world_table(self.gp.pfacts, self.caps.max_pfacts)

    def applicable_indices(self, world: frozenset[Atom]) -> frozenset[int]:
        mask = self._mask(world)
        return frozenset(
            chain.from_iterable(
                group for need, group in self._by_need.items() if need & mask == need
            )
        )

    def evaluations(self) -> list[tuple[frozenset[Atom], Fraction, frozenset[int]]]:
        """(world, probability, accepted indices) for every world, in mask
        order; computed on first use, then shared by every query.

        Worlds are labelled a block at a time: an argument's active vector is
        the AND of its facts' vectors over the block, and one block labelling
        gives each argument's IN vector.
        """
        if self._evaluations is None:
            table = self.worlds()
            n = len(self._bit)
            width = 1 << block_bits(n)
            full = (1 << width) - 1
            supports = [[i for i in range(n) if need >> i & 1] for need in self._needs]
            self._evaluations = []
            for start in range(0, len(table), width):
                vectors = block_fact_vectors(n, start // width)
                active = [reduce(and_, [vectors[i] for i in s], full) for s in supports]
                inside = grounded_block(active, self._attackers, self._targets)
                rows = table[start : start + width]
                for (world, prob), accepts in zip(rows, world_columns(inside, width)):
                    accepted = frozenset(i for i in self.applicable_indices(world) if accepts[i])
                    self._evaluations.append((world, prob, accepted))
        return self._evaluations

    def accepted_claims(self, world: frozenset[Atom]) -> frozenset[Literal]:
        _, _, accepted = self.evaluations()[self._mask(world)]
        return frozenset(self.aaf.arguments[i].claim for i in accepted)

    def grounded_prob_argument(self, argument: Argument) -> Fraction:
        """Probability mass of worlds whose grounded extension holds the argument."""
        try:
            index = self.aaf.arguments.index(argument)
        except ValueError:
            raise KeyError(f"{argument} is not an argument of this framework") from None
        total = Fraction(0)
        for world, prob, accepted in self.evaluations():
            if prob and index in accepted:
                total += prob
        return total

    def _instance_atoms(self, query: Atom) -> frozenset[Atom]:
        if query.is_ground:
            return frozenset({query} & self.gp.herbrand_base)
        return frozenset(a for a in self.gp.herbrand_base if matches(query, a))

    def query_argument_indices(self, query: Atom) -> frozenset[int]:
        """Indices of arguments whose claim is an instance of the query atom."""
        instances = self._instance_atoms(query)
        return frozenset(
            i
            for i, arg in enumerate(self.aaf.arguments)
            if not arg.claim.negated and arg.claim.atom in instances
        )

    def grounded_prob_query(self, query: Atom) -> Fraction:
        """Probability mass of worlds accepting at least one argument claiming
        (an instance of) the query; each world counted once."""
        claiming = self.query_argument_indices(query)
        total = Fraction(0)
        for world, prob, accepted in self.evaluations():
            if prob and not claiming.isdisjoint(accepted):
                total += prob
        return total

    def argument_probability_sum(self, query: Atom) -> Fraction:
        """Sum of per-argument probabilities over all arguments claiming the
        query; counts a world once per accepted argument, so it can exceed
        the query probability."""
        claiming = self.query_argument_indices(query)
        total = Fraction(0)
        for world, prob, accepted in self.evaluations():
            if prob:
                total += prob * len(claiming & accepted)
        return total
