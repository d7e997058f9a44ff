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
probability measure. `argument_table` keeps each triple as one int, its
assumption bits below its rule bits, and builds the triples themselves only
on first read of `ArgumentTable.arguments`; inference never reads them. Its
saturation joins only the body sentences that a rule with a body derives,
each at its first occurrence in a body. Any other body sentence, an
assumption or an atom that only a bodyless rule heads, has at most one
argument, known before the first round, and the rule ORs it into its mask.

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
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import CapExceeded
from .limits import Caps
from .model import Atom, GroundProgram, Literal, Rule

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


class Argument(NamedTuple):
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

    Flatness is guaranteed upstream: `ground` validates its program, which
    rejects a probabilistic-fact atom that is an instance of a rule head, and
    negation-as-failure literals can never be rule heads.
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
    """A framework's arguments in canonical order, one int each, with the
    attack relation in factored form.

    Sentences are numbered in sorted order. `claims[i]` is the number of
    argument i's claim, and `contraries[j]` holds the numbers of the
    contraries of argument j's negation-as-failure assumptions (no argument
    claims the contrary of a fact assumption). So argument i attacks
    argument j iff `claims[i]` is in `contraries[j]`, and the arguments
    claiming one sentence attack the same arguments. `fact_masks[i]` is the
    mask of the fact assumptions argument i uses, in the world numbering of
    `worlds.fact_bits`.

    `masks[i]` is argument i itself: bit k is the k-th of the sorted
    `assumptions`, and bit len(assumptions) + k the k-th of the sorted
    `rules`. `arguments` decodes the masks into triples on first read.
    """

    claims: tuple[int, ...]
    contraries: tuple[tuple[int, ...], ...]
    fact_masks: tuple[int, ...]
    sentences: tuple[Literal, ...]
    assumptions: tuple[Literal, ...]
    rules: tuple[Rule, ...]
    masks: tuple[int, ...]

    @cached_property
    def arguments(self) -> tuple[Argument, ...]:
        """The (assumptions, claim, rules) triples, built on first read.
        Arguments with the same assumptions, or the same rules, share one set."""
        width = len(self.assumptions)
        low = (1 << width) - 1
        assumption_sets = {
            a: frozenset(map(self.assumptions.__getitem__, _bits(a)))
            for a in {mask & low for mask in self.masks}
        }
        rule_sets = {
            r: frozenset(map(self.rules.__getitem__, _bits(r)))
            for r in {mask >> width for mask in self.masks}
        }
        return tuple(
            Argument(assumption_sets[mask & low], self.sentences[c], rule_sets[mask >> width])
            for c, mask in zip(self.claims, self.masks)
        )


def enumerate_arguments(
    framework: AbaFramework, max_arguments: int = Caps.max_arguments
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
    framework: AbaFramework, max_arguments: int = Caps.max_arguments
) -> ArgumentTable:
    """The arguments of `enumerate_arguments`, sorted as by
    `argument_sort_key`, with the attack relation factored through claims.

    Saturation runs over ints. Sentences, assumptions and rules are numbered
    in sorted order: atom k is sentence 2k and its negation-as-failure
    2k + 1, so a literal's number is read off its atom's, and the
    assumptions and their contraries off the sentence numbers, with no
    `Literal` built for them. An argument is one int under its claim: its
    assumption bits low, its rule bits above them. A rule's body is joined
    left to right into a set of ints, so each distinct partial union is
    extended once, however many combinations produce it.

    A body sentence that no rule with a body derives is folded into the
    rule, for it has at most one argument, known before the first round:
    its assumption (a negation-as-failure literal or a probabilistic-fact
    atom) or its bodyless rule. The rule ORs that argument's bits into its
    mask. A rule reading such a sentence with no argument never fires and
    is dropped, and a rule left with no body claim makes its one argument
    without a join, in the first round, at its place in rule order.

    Rounds are semi-naive: a rule fires again only on combinations holding
    an argument found in the previous round, the delta. Such a combination
    is joined at the body position of its first delta argument: older
    arguments before that position, the delta there, all arguments after
    it. Each distinct derived body claim is joined at its first occurrence
    only. That is exact because union is commutative: a combination whose
    first delta argument sits at a later occurrence of claim c holds an
    older argument for c at c's first occurrence, and swapping the two
    gives a combination of the first occurrence's join with the same union.
    Unfolded, a folded argument is in the first round's delta only, where
    a rule's first join makes every combination of its body; so each round
    makes the arguments it makes unfolded, rule by rule in the same order,
    and the count passes the cap at the same argument.

    A join's partial unions count against the cap too, and a folded join
    may hold fewer of them: two unions that differ only in a folded
    argument's bits are one once those bits are in. With s arguments first
    folded in after a rule's first derived claim, a folded union stands for
    at most 2**s unfolded ones, so a folded join whose two sides multiply
    to at most the cap over 2**s is one that the unfolded join builds
    without counting. Past that, saturation starts over unfolded, and so
    refuses exactly where it did.

    Since the numbering follows the sorted order, sorting on (claim number,
    assumption bit positions, rule bit positions) gives the canonical order
    without comparing any `Literal` or `Rule`. One pass over the arguments
    decodes them, computing bit positions, contraries and fact masks once
    per distinct mask, and no triple is built: `ArgumentTable.arguments`
    builds them on first read.
    """
    atoms = sorted(framework.herbrand_base)
    number = {atom: 2 * k for k, atom in enumerate(atoms)}
    # every sentence an argument can claim, in Literal order without a sort
    sentences = tuple(Literal(a, n) for a in atoms for n in (False, True))
    # the assumptions in sorted order, by sentence number: each atom's
    # negation, after the atom itself if it is a fact
    facts = framework.fact_assumptions
    numbered = []
    for atom, n in number.items():
        if atom in facts:
            numbered.append(n)
        numbered.append(n + 1)
    assumptions = tuple(map(sentences.__getitem__, numbered))
    rules = tuple(sorted(framework.rules))
    width = len(assumptions)
    try:
        found = _saturate(number, numbered, rules, max_arguments, fold=True)
    except _JoinMayPassTheCap:
        found = _saturate(number, numbered, rules, max_arguments, fold=False)

    # one pass over the arguments; bit positions, contraries and fact masks
    # are computed once per distinct mask. By assumption bit: its contrary's
    # number (None for the fact contrary, which is no sentence), and its bit
    # among the fact assumptions, which come in sorted order as
    # `worlds.fact_bits` numbers them
    contrary = [n - 1 if n & 1 else None for n in numbered]
    bit_of = {n: 1 << j for j, n in enumerate(n for n in numbered if not n & 1)}
    fact_bit = [bit_of.get(n, 0) for n in numbered]
    low = (1 << width) - 1
    by_assumptions: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
    by_rules: dict[int, tuple[int, ...]] = {}
    rows = []
    for claim, masks in enumerate(found):
        for mask in masks:
            decoded = by_assumptions.get(mask & low)
            if decoded is None:
                positions = _bits(mask & low)
                contraries, fact_mask = [], 0
                for b in positions:
                    if contrary[b] is None:
                        fact_mask |= fact_bit[b]
                    else:
                        contraries.append(contrary[b])
                decoded = by_assumptions[mask & low] = (positions, tuple(contraries), fact_mask)
            rule_positions = by_rules.get(mask >> width)
            if rule_positions is None:
                rule_positions = by_rules[mask >> width] = _bits(mask >> width)
            # (claim, positions, rule positions) tell rows apart, so the sort
            # never compares past them
            rows.append((claim, decoded[0], rule_positions, mask, decoded[1], decoded[2]))
    rows.sort()
    claims, _, _, masks, contraries, fact_masks = tuple(zip(*rows)) or ((),) * 6
    return ArgumentTable(claims, contraries, fact_masks, sentences, assumptions, rules, masks)


def _saturate(
    number: dict[Atom, int],
    numbered: list[int],
    rules: tuple[Rule, ...],
    max_arguments: int,
    fold: bool,
) -> list[set[int]]:
    """The argument masks claiming each sentence, by the semi-naive rounds
    of `argument_table`, with body sentences folded if `fold` is set."""
    width = len(numbered)
    fresh = {n: {1 << bit} for bit, n in enumerate(numbered)}
    derived = set()
    for bit, (head, body) in enumerate(rules, start=width):
        # a fact that heads a bodyless rule has two arguments, so it is not
        # folded; a flat framework has no such fact
        if body or number[head] in fresh:
            derived.add(number[head])
        if not body:
            fresh.setdefault(number[head], set()).add(1 << bit)
    # a rule with a body as (head, body claims, the position of each distinct
    # claim's first occurrence, mask, the bound on a join's two sides that
    # keeps the join exact, rule), in rule order; readers[n] holds the indices
    # in `compiled` of the rules whose body holds claim n, `free` those of the
    # rules with none, and `early` the claims that a rule reads before its
    # last first occurrence, the only ones whose previous-round pool a join
    # reads
    compiled: list[tuple[int, tuple[int, ...], tuple[int, ...], int, int, Rule]] = []
    readers: dict[int, list[int]] = {}
    free: list[int] = []
    early: set[int] = set()
    for bit, rule in enumerate(rules, start=width):
        head, body = rule
        if not body:
            continue
        mask = 1 << bit
        claims = []
        # the folded arguments first read after the first body claim; each
        # may stand between a folded union and two unfolded ones
        spare = 0
        for atom, negated in body:
            claim = number[atom] + negated
            if not fold or claim in derived:
                claims.append(claim)
            elif claim in fresh:
                (argument,) = fresh[claim]
                if claims and not mask & argument:
                    spare += 1
                mask |= argument
            else:
                break
        else:
            first: dict[int, int] = {}
            for position, claim in enumerate(claims):
                first.setdefault(claim, position)
            for claim in first:
                readers.setdefault(claim, []).append(len(compiled))
            if not first:
                free.append(len(compiled))
            early.update(list(first)[:-1])
            limit = max_arguments >> spare
            compiled.append((number[head], tuple(claims), tuple(first.values()), mask, limit, rule))
    found: list[set[int]] = [set() for _ in range(2 * len(number))]
    count = sum(map(len, fresh.values()))
    if count > max_arguments:
        raise _past_count_cap(count, max_arguments)
    # a seed whose sentence no rule joins is found before the first round
    for claim in [claim for claim in fresh if claim not in readers]:
        found[claim] = fresh.pop(claim)

    while fresh or free:
        for claim, masks in fresh.items():
            found[claim] |= masks
        delta, fresh = fresh, {}
        old = {claim: found[claim] - masks for claim, masks in delta.items() if claim in early}
        # rules fire in rule order, each at most once a round
        firing = {i for claim in delta for i in readers.get(claim, ())}.union(free)
        free = []
        for index in sorted(firing):
            head, body, first, rule_mask, limit, rule = compiled[index]
            # a rule with no body claim makes its one argument, unjoined
            for position in first or (None,):
                if position is None:
                    partial = {rule_mask}
                elif body[position] not in delta:
                    continue
                elif len(body) == 1:
                    partial = {rule_mask | mask for mask in delta[body[0]]}
                else:
                    pools = (
                        [old.get(c, found[c]) for c in body[:position]]
                        + [delta[body[position]]]
                        + [found[c] for c in body[position + 1 :]]
                    )
                    if not all(pools):
                        continue
                    partial = _join(rule_mask, pools, limit, max_arguments, rule, fold)
                partial -= found[head]
                if head in fresh:
                    partial -= fresh[head]
                if partial:
                    # no join reads the arguments of a head that no rule
                    # reads, so they are found at once, and start no round
                    if head in readers:
                        fresh.setdefault(head, set()).update(partial)
                    else:
                        found[head] |= partial
                    count += len(partial)
                    if count > max_arguments:
                        raise _past_count_cap(count, max_arguments)
    return found


class _JoinMayPassTheCap(Exception):
    """A folded join whose unfolded join may hold more partial unions than
    the cap."""


def _join(
    rule_mask: int, pools: list[set[int]], limit: int, max_arguments: int, rule: Rule, fold: bool
) -> set[int]:
    """The unions of `rule_mask` with one argument from each pool, joined
    left to right, each distinct partial union extended once.

    A step whose two sides multiply to at most `limit` is built whole:
    `limit` is the cap, or for a folded rule the cap over 2**s, under which
    the unfolded step holds no more unions than the cap either. Past it, a
    folded join gives up, for only the unfolded join holds the unions that
    the cap refusal counts, and an unfolded one is built row by row and
    refused once it holds more unions than the cap."""
    # the first pool's unions are at most its arguments, which the
    # saturation's count keeps under the cap
    partial = {rule_mask | mask for mask in pools[0]}
    for pool in pools[1:]:
        # a join holds at most the product of its two sides
        if len(partial) * len(pool) <= limit:
            partial = {mask | other for mask in partial for other in pool}
            continue
        if fold:
            raise _JoinMayPassTheCap
        # the unions a join holds count against the cap like arguments: their
        # number grows with the product of the pool sizes, however few
        # arguments come out, so a join that may pass the cap is built row by
        # row and refused once past it
        joined: set[int] = set()
        for mask in partial:
            joined.update([mask | other for other in pool])
            if len(joined) > max_arguments:
                raise CapExceeded(
                    f"argument saturation held {len(joined)} partial unions in "
                    f"the join of rule '{rule}', past the cap of {max_arguments}",
                    cap="max_arguments",
                )
        partial = joined
    return partial


def _past_count_cap(count: int, max_arguments: int) -> CapExceeded:
    return CapExceeded(
        f"argument saturation reached {count} arguments, past the cap of {max_arguments}",
        cap="max_arguments",
    )


# the positions of the set bits of each mask below 256, looked up by `_bits`
_BYTE_BITS = tuple(tuple(b for b in range(8) if m >> b & 1) for m in range(256))


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a mask, in increasing order."""
    if mask < 256:
        return _BYTE_BITS[mask]
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

