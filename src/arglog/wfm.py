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
from typing import Iterable

from .errors import CapExceeded
from .model import Atom, Rule, matches


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

    Atoms are interned to 0..k-1. Each least model of a reduct is a counter
    propagation: every rule counts its positive body atoms not yet derived,
    and fires when the count reaches zero, unless a negative body atom lies
    in the interpretation the reduct is taken against. One least model costs
    time linear in the size of the program.
    """

    def __init__(self, rules: Iterable[Rule], base: Iterable[Atom]):
        rules = list(rules)
        base = frozenset(base)
        atoms = set(base)
        for rule in rules:
            atoms.add(rule.head)
            atoms.update(lit.atom for lit in rule.body)
        self._atoms = list(atoms)
        self._index = {atom: i for i, atom in enumerate(self._atoms)}
        self._base = frozenset(self._index[atom] for atom in base)
        self._heads = [self._index[rule.head] for rule in rules]
        self._negative = [
            tuple(self._index[lit.atom] for lit in rule.body if lit.negated) for rule in rules
        ]
        # positive body occurrences, counted with multiplicity
        self._pending = [sum(1 for lit in rule.body if not lit.negated) for rule in rules]
        self._watch: list[list[int]] = [[] for _ in self._atoms]
        for r, rule in enumerate(rules):
            for lit in rule.body:
                if not lit.negated:
                    self._watch[self._index[lit.atom]].append(r)
        self._unconditional = [r for r, count in enumerate(self._pending) if not count]

    def _least_model(self, against: frozenset[int], facts: list[int]) -> frozenset[int]:
        """Least model of the reduct with respect to `against`, plus `facts`."""
        heads, negative, watch = self._heads, self._negative, self._watch
        pending = self._pending.copy()
        todo = facts + [heads[r] for r in self._unconditional if against.isdisjoint(negative[r])]
        derived: set[int] = set()
        while todo:
            atom = todo.pop()
            if atom in derived:
                continue
            derived.add(atom)
            for r in watch[atom]:
                pending[r] -= 1
                if not pending[r] and against.isdisjoint(negative[r]):
                    todo.append(heads[r])
        return frozenset(derived)

    def model(self, facts: Iterable[Atom] = ()) -> ThreeValuedModel:
        """The well-founded model of the program plus one fact per given atom.

        Alternating fixpoint: K(0) = G(base), U(i) = G(K(i)),
        K(i+1) = G(U(i)), stopping once K repeats (then U repeats too).
        """
        facts = [self._index[atom] for atom in facts]
        sure = self._least_model(self._base, facts)
        possible = self._least_model(sure, facts)
        # the sure set strictly grows until the fixpoint
        for _ in range(len(self._atoms) + 1):
            next_sure = self._least_model(possible, facts)
            if next_sure == sure:
                break
            sure = next_sure
            possible = self._least_model(sure, facts)
        else:  # pragma: no cover - the alternating fixpoint provably converges
            raise RuntimeError("alternating fixpoint failed to converge")
        atoms = self._atoms
        return ThreeValuedModel(
            true_atoms=frozenset(atoms[i] for i in sure),
            false_atoms=frozenset(atoms[i] for i in self._base - possible),
            undefined_atoms=frozenset(atoms[i] for i in possible - sure),
        )


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
