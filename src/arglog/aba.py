"""Assumption-based argumentation framework built from a ground program.

The framework treats every negation-as-failure literal over the Herbrand base
as an assumption whose contrary is the underlying atom, and every
probabilistic-fact atom as an additional assumption whose contrary is the
reserved sentence FACT_CONTRARY ("_chi"). No rule can derive that sentence
(the parser rejects the "_" prefix), so fact assumptions are unattackable;
they are instead switched on and off by worlds in the probabilistic layer.

Arguments are identified with (assumptions, claim, rules) triples rather than
derivation trees: the attack relation only depends on the triple, and triples
stay finite even when trees do not (e.g. "p :- p." next to "p."). All triples
with a derivation are kept, not just subset-minimal ones, because distinct
derivations of one claim are counted separately by the per-argument
probability measure.

Since the framework is flat, argument i attacks argument j exactly when i's
claim is the contrary of one of j's assumptions. `argument_table` keeps that
relation factored through claims, one entry per assumption;
`compute_attacks` expands it into one pair per attack.
"""

from __future__ import annotations

import os
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .model import Atom, GroundProgram, Literal, Rule
from .worlds import fact_bits

FACT_CONTRARY = Literal(Atom("_chi"))


@dataclass(frozen=True)
class AbaFramework:
    """A flat framework: rules, plus assumptions derived from the base."""

    rules: frozenset[Rule]
    herbrand_base: frozenset[Atom]
    fact_assumptions: frozenset[Atom]

    @property
    def assumptions(self) -> frozenset[Literal]:
        naf = {Literal(atom, negated=True) for atom in self.herbrand_base}
        return frozenset(naf | {Literal(atom) for atom in self.fact_assumptions})

    def contrary_of(self, assumption: Literal) -> Literal:
        """Total map from assumptions to their contraries."""
        if assumption.negated:
            return Literal(assumption.atom)
        if assumption.atom in self.fact_assumptions:
            return FACT_CONTRARY
        raise KeyError(f"{assumption} is not an assumption of this framework")

    def contraries(self) -> list[tuple[Literal, Literal]]:
        return [(a, self.contrary_of(a)) for a in sorted(self.assumptions)]


@dataclass(frozen=True)
class Argument:
    """A canonical (assumptions, claim, rules) triple standing for a derivation tree."""

    assumptions: frozenset[Literal]
    claim: Literal
    rules_used: frozenset[Rule]

    @property
    def fact_support(self) -> frozenset[Atom]:
        """Atoms of the positive assumptions, i.e. the fact assumptions used."""
        return frozenset(lit.atom for lit in self.assumptions if not lit.negated)

    def __str__(self) -> str:
        support = ", ".join(str(a) for a in sorted(self.assumptions))
        return f"{{{support}}} ⊢ {self.claim}"


def argument_sort_key(arg: Argument):
    return (arg.claim, tuple(sorted(arg.assumptions)), tuple(sorted(arg.rules_used)))


@dataclass(frozen=True)
class AaFramework:
    """Abstract view: indexed arguments plus attack pairs between indices."""

    arguments: tuple[Argument, ...]
    attacks: frozenset[tuple[int, int]]


def build_problog_aba(gp: GroundProgram) -> AbaFramework:
    """The framework corresponding to a ground program: rules stay as given,
    probabilistic-fact atoms become fact assumptions.

    Flatness is guaranteed upstream: validation rejects programs where a
    probabilistic-fact atom unifies with a rule head, and negation-as-failure
    literals can never be rule heads.
    """
    if not gp.herbrand_base:
        warnings.warn(
            "degenerate framework: the program has an empty Herbrand base, "
            "so the assumption set is empty",
            stacklevel=_caller_stacklevel(),
        )
    return AbaFramework(
        rules=gp.rules,
        herbrand_base=gp.herbrand_base,
        fact_assumptions=gp.fact_atoms,
    )


def _caller_stacklevel() -> int:
    """The `warnings.warn` stacklevel, as seen from this function's caller, of
    the nearest frame outside the package, so that a warning names the
    library user's call site and not an internal one."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class ArgumentTable:
    """A framework's arguments in canonical order, with the attack relation
    in factored form.

    Sentences are numbered in sorted order. `claims[i]` is the number of
    argument i's claim, and `contraries[j]` holds the numbers of the claimed
    contraries of argument j's assumptions. So argument i attacks argument j
    iff `claims[i]` is in `contraries[j]`, and the arguments claiming one
    sentence attack the same arguments. `fact_masks[i]` is the mask of the
    fact assumptions argument i uses, in the world numbering of
    `worlds.fact_bits`.
    """

    arguments: tuple[Argument, ...]
    claims: tuple[int, ...]
    contraries: tuple[tuple[int, ...], ...]
    fact_masks: tuple[int, ...]


def enumerate_arguments(
    framework: AbaFramework, max_arguments: int = 100_000
) -> frozenset[Argument]:
    """All argument triples admitting a derivation tree, by saturation.

    Seeds: one argument ({a}, a, {}) per assumption a, and one ({}, h, {r})
    per bodyless rule r. A rule h :- b1, ..., bm combines any already-found
    arguments for the body sentences into an argument for h, taking unions of
    their supports and rule sets. The triple space is finite, so saturation
    terminates; the count guard refuses pathological blow-ups instead of
    truncating.
    """
    return frozenset(argument_table(framework, max_arguments).arguments)


def argument_table(
    framework: AbaFramework, max_arguments: int = 100_000
) -> ArgumentTable:
    """The arguments of `enumerate_arguments`, sorted as by
    `argument_sort_key`, with the attack relation factored through claims.

    Saturation runs over ints. Assumptions and rules are numbered in sorted
    order, and an argument is an (assumption mask, rule mask) pair stored
    under its claim. A rule's body is joined left to right into a set of
    pairs, so each distinct partial union is extended once, however many
    combinations produce it. Rounds are semi-naive: a rule fires again only
    on combinations holding a pair found in the previous round, which takes
    that round's pool at one body position, older pools before it and full
    pools after it. Argument objects are built once, at the end.

    Since the numbering follows the sorted order, sorting on (claim number,
    assumption bit positions, rule bit positions) gives the canonical order
    without comparing any `Literal` or `Rule`.
    """
    assumptions = sorted(framework.assumptions)
    rules = sorted(framework.rules)
    claim_id: dict[Literal, int] = {}

    def intern(lit: Literal) -> int:
        return claim_id.setdefault(lit, len(claim_id))

    fresh: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for bit, assumption in enumerate(assumptions):
        fresh[intern(assumption)].add((1 << bit, 0))
    readers: dict[int, list[tuple[int, tuple[int, ...], int]]] = defaultdict(list)
    for bit, rule in enumerate(rules):
        head = intern(Literal(rule.head))
        if rule.is_fact:
            fresh[head].add((0, 1 << bit))
            continue
        compiled = (head, tuple(intern(lit) for lit in rule.body), 1 << bit)
        for claim in set(compiled[1]):
            readers[claim].append(compiled)
    found: list[set[tuple[int, int]]] = [set() for _ in claim_id]
    count = sum(len(pairs) for pairs in fresh.values())

    def refuse_past_cap() -> None:
        if count > max_arguments:
            raise CapExceeded(
                f"argument saturation exceeds the cap of {max_arguments} arguments"
            )

    while fresh:
        refuse_past_cap()
        for claim, pairs in fresh.items():
            found[claim] |= pairs
        delta, fresh = fresh, defaultdict(set)
        old = {claim: found[claim] - pairs for claim, pairs in delta.items()}
        firing = {rule for claim in delta for rule in readers.get(claim, ())}
        for head, body, rule_bit in firing:
            for position, claim in enumerate(body):
                if claim not in delta:
                    continue
                pools = (
                    [old.get(c, found[c]) for c in body[:position]]
                    + [delta[claim]]
                    + [found[c] for c in body[position + 1 :]]
                )
                partial = {(0, rule_bit)}
                for pool in pools:
                    partial = {(a | a2, r | r2) for a, r in partial for a2, r2 in pool}
                    if not partial:
                        break
                partial -= found[head]
                if head in fresh:
                    partial -= fresh[head]
                if partial:
                    fresh[head] |= partial
                    count += len(partial)
                    refuse_past_cap()

    sentences = sorted(claim_id)
    number = {lit: n for n, lit in enumerate(sentences)}
    # by assumption bit: the number of its contrary when some rule or
    # assumption can claim it, and its bit among the fact assumptions
    contrary = [number.get(framework.contrary_of(a)) for a in assumptions]
    bit_of = fact_bits(framework.fact_assumptions)
    fact_bit = [0 if a.negated else bit_of[a.atom] for a in assumptions]
    found_pairs = [
        (number[lit], a, r) for lit, pairs in zip(claim_id, found) for a, r in pairs
    ]
    assumption_bits = {a: _bits(a) for _, a, _ in found_pairs}
    rule_bits = {r: _bits(r) for _, _, r in found_pairs}
    found_pairs.sort(key=lambda row: (row[0], assumption_bits[row[1]], rule_bits[row[2]]))
    decoded = {
        a: (
            frozenset(assumptions[b] for b in bits),
            tuple(contrary[b] for b in bits if contrary[b] is not None),
            sum(fact_bit[b] for b in bits),
        )
        for a, bits in assumption_bits.items()
    }
    rules_used = {r: frozenset(rules[b] for b in bits) for r, bits in rule_bits.items()}
    return ArgumentTable(
        tuple(Argument(decoded[a][0], sentences[c], rules_used[r]) for c, a, r in found_pairs),
        tuple(c for c, _, _ in found_pairs),
        tuple(decoded[a][1] for _, a, _ in found_pairs),
        tuple(decoded[a][2] for _, a, _ in found_pairs),
    )


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a mask, in increasing order."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return tuple(positions)


def compute_attacks(
    framework: AbaFramework, arguments: Sequence[Argument]
) -> frozenset[tuple[int, int]]:
    """All pairs (i, j) where argument i's claim is the contrary of an
    assumption supporting argument j. Self-attacks included.

    This expands the relation that `ArgumentTable` keeps factored through
    claims; only listings of the pairs need it."""
    targets: dict[Literal, list[int]] = defaultdict(list)
    for j, arg in enumerate(arguments):
        for assumption in arg.assumptions:
            targets[framework.contrary_of(assumption)].append(j)
    # no pair repeats: contrary_of is injective on NAF assumptions and no
    # argument claims FACT_CONTRARY, so each (i, j) comes from one assumption
    return frozenset(
        (i, j) for i, arg in enumerate(arguments) for j in targets.get(arg.claim, ())
    )

