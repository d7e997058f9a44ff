"""Logic-program semantics: well-founded model, least model, stable models.

The well-founded model is computed by Van Gelder's alternating fixpoint.
Writing G(I) for the least model of the reduct of the program with respect to
interpretation I, the sequence

    K(0) = G(base),  U(i) = G(K(i)),  K(i+1) = G(U(i))

produces an increasing chain of surely-true sets K and a decreasing chain of
possibly-true sets U. At the (guaranteed) fixpoint, K holds the true atoms
and everything outside U is false; the remainder is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .errors import CapExceeded
from .model import Atom, Rule, matches
from .worlds import block_bits, block_fact_vectors, world_columns


@dataclass(frozen=True)
class ThreeValuedModel:
    """Partition of the Herbrand base into true / false / undefined atoms."""

    true_atoms: frozenset[Atom]
    false_atoms: frozenset[Atom]
    undefined_atoms: frozenset[Atom]

    def __post_init__(self):
        if (
            self.true_atoms & self.false_atoms
            or self.true_atoms & self.undefined_atoms
            or self.false_atoms & self.undefined_atoms
        ):
            raise ValueError("model sections must be pairwise disjoint")

    @property
    def is_two_valued(self) -> bool:
        return not self.undefined_atoms


def least_model(rules: Iterable[Rule]) -> frozenset[Atom]:
    """Least Herbrand model of a definite ground program (one-step fixpoint)."""
    pending = list(rules)
    for rule in pending:
        if any(lit.negated for lit in rule.body):
            raise ValueError(f"rule '{rule}' is not definite")
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        remaining = []
        for rule in pending:
            if all(lit.atom in derived for lit in rule.body):
                if rule.head not in derived:
                    derived.add(rule.head)
                    changed = True
            else:
                remaining.append(rule)
        pending = remaining
    return frozenset(derived)


def reduct(rules: Iterable[Rule], interpretation: frozenset[Atom]) -> frozenset[Rule]:
    """Gelfond-Lifschitz reduct: drop rules blocked by the interpretation,
    strip negative literals from the rest."""
    out: set[Rule] = set()
    for rule in rules:
        if any(lit.negated and lit.atom in interpretation for lit in rule.body):
            continue
        out.add(Rule(rule.head, tuple(lit for lit in rule.body if not lit.negated)))
    return frozenset(out)


class WellFoundedKernel:
    """A ground normal program compiled to ints once, for computing the
    well-founded models of its variants that differ only by added facts.

    Atoms are interned to 0..k-1. `choices`, the atoms of the probabilistic
    facts, number the worlds as `worlds` does: bit i of a world's mask is the
    i-th choice atom in sorted order. Worlds are evaluated a block at a time
    (see `worlds.block_fact_vectors`): each atom's truth is an int with one
    bit per world of the block, so one pass of int operations runs the
    alternating fixpoint for every world of the block at once. The block's
    per-world models are kept until a world of another block is asked for.
    """

    def __init__(self, rules: Iterable[Rule], base: Iterable[Atom], choices: Iterable[Atom] = ()):
        rules = list(rules)
        base = frozenset(base)
        atoms = set(base)
        for rule in rules:
            atoms.add(rule.head)
            atoms.update(lit.atom for lit in rule.body)
        self._atoms = list(atoms)
        self._index = {atom: i for i, atom in enumerate(self._atoms)}
        self._in_base = [atom in base for atom in self._atoms]
        self._heads = [self._index[rule.head] for rule in rules]
        self._positive = [
            tuple(self._index[lit.atom] for lit in rule.body if not lit.negated) for rule in rules
        ]
        self._negative = [
            tuple(self._index[lit.atom] for lit in rule.body if lit.negated) for rule in rules
        ]
        self._watch: list[list[int]] = [[] for _ in self._atoms]
        for r, positive in enumerate(self._positive):
            for atom in set(positive):
                self._watch[atom].append(r)
        choices = sorted(choices)
        self._choices = [self._index[atom] for atom in choices]
        self._bit = {atom: 1 << i for i, atom in enumerate(choices)}
        self._block_bits = block_bits(len(choices))
        self._block: int | None = None
        self._rows: list[ThreeValuedModel] = []

    def _least_model(self, against: list[int], facts: list[int], full: int) -> list[int]:
        """Per world: the least model of the reduct with respect to `against`,
        plus `facts`, as one vector per atom.

        A rule derives its head in the worlds where every positive body atom
        is derived and no negative body atom is in `against`. Semi-naive: a
        rule fires again only when one of its positive body atoms grew.
        """
        heads, positive, negative, watch = self._heads, self._positive, self._negative, self._watch
        derived = facts.copy()
        todo = list(range(len(heads)))
        queued = [True] * len(heads)
        while todo:
            r = todo.pop()
            queued[r] = False
            support = full
            for atom in negative[r]:
                support &= ~against[atom]
            for atom in positive[r]:
                support &= derived[atom]
            head = heads[r]
            if support & ~derived[head]:
                derived[head] |= support
                for s in watch[head]:
                    if not queued[s]:
                        queued[s] = True
                        todo.append(s)
        return derived

    def _evaluate(self, facts: dict[int, int], width: int) -> list[ThreeValuedModel]:
        """The well-founded model of each of `width` worlds, where `facts`
        maps an atom to the worlds (a bit vector) that hold it as a fact.

        Alternating fixpoint: K(0) = G(base), U(i) = G(K(i)),
        K(i+1) = G(U(i)), stopping once K repeats (then U repeats too). The
        operations are bitwise, so each world follows the sequence it would
        follow alone, and stays at its fixpoint while other worlds go on.
        """
        full = (1 << width) - 1
        start = [0] * len(self._atoms)
        for atom, vector in facts.items():
            start[atom] |= vector
        base = [full if inside else 0 for inside in self._in_base]
        sure = self._least_model(base, start, full)
        possible = self._least_model(sure, start, full)
        # every world's sure set strictly grows until its fixpoint
        for _ in range(len(self._atoms) + 1):
            next_sure = self._least_model(possible, start, full)
            if next_sure == sure:
                break
            sure = next_sure
            possible = self._least_model(sure, start, full)
        else:  # pragma: no cover - the alternating fixpoint provably converges
            raise RuntimeError("alternating fixpoint failed to converge")
        atoms = self._atoms
        by_world = [
            (frozenset(compress(atoms, column)) for column in world_columns(vectors, width))
            for vectors in (
                sure,
                [b & ~p for b, p in zip(base, possible)],
                [p & ~s for p, s in zip(possible, sure)],
            )
        ]
        return [
            ThreeValuedModel(true_atoms=t, false_atoms=f, undefined_atoms=u)
            for t, f, u in zip(*by_world)
        ]

    def model(self, facts: Iterable[Atom] = ()) -> ThreeValuedModel:
        """The well-founded model of the program plus one fact per given atom.

        Choice atoms name a world: unless its block is the one kept, the
        block is evaluated and kept, and the world's row is returned. A fact
        set with other atoms is evaluated as a block of one world.
        """
        facts = tuple(facts)
        mask = 0
        for atom in facts:
            bit = self._bit.get(atom)
            if bit is None:
                return self._evaluate({self._index[atom]: 1 for atom in facts}, 1)[0]
            mask |= bit
        block = mask >> self._block_bits
        if block != self._block:
            vectors = block_fact_vectors(len(self._choices), block)
            self._rows = self._evaluate(dict(zip(self._choices, vectors)), 1 << self._block_bits)
            self._block = block
        return self._rows[mask & ((1 << self._block_bits) - 1)]


def well_founded_model(
    rules: Iterable[Rule],
    base: Iterable[Atom],
    facts: Iterable[Atom] = (),
    kernel: WellFoundedKernel | None = None,
) -> ThreeValuedModel:
    """The unique well-founded model of a ground normal program over `base`,
    with one fact added per atom of `facts` (atoms of the program).

    `kernel`, the same rules and base already compiled by
    `WellFoundedKernel`, saves compiling them again: callers that evaluate
    many fact sets against one program compile it once and pass it.
    """
    if kernel is None:
        kernel = WellFoundedKernel(rules, base)
    return kernel.model(facts)


def stable_models(
    rules: Iterable[Rule],
    base: Iterable[Atom],
    max_atoms: int = 20,
) -> frozenset[frozenset[Atom]]:
    """All stable models, by exhaustive search over interpretations.

    A desk-scale cross-check: M is stable iff it equals the least model of
    the reduct with respect to M. Refuses bases larger than `max_atoms`.
    """
    rules = frozenset(rules)
    atoms = sorted(frozenset(base))
    if len(atoms) > max_atoms:
        raise CapExceeded(
            f"stable-model search over {len(atoms)} atoms exceeds the cap of {max_atoms}"
        )
    found: set[frozenset[Atom]] = set()
    for mask in range(2 ** len(atoms)):
        candidate = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if least_model(reduct(rules, candidate)) == candidate:
            found.add(candidate)
    return frozenset(found)


def succeeds(model: ThreeValuedModel, query: Atom) -> bool:
    """Whether some ground instance of the query is true in the model.

    Undefined does not count as success. Matching against the true atoms is
    equivalent to instantiating the query over the full base first.
    """
    if query.is_ground:
        return query in model.true_atoms
    return any(matches(query, atom) for atom in model.true_atoms)
