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

from itertools import compress
from typing import Iterable

from .errors import CapExceeded
from .model import Atom, Rule, matches
from .worlds import block_fact_vectors, block_width, fact_bits, world_mask


class ThreeValuedModel:
    """Partition of the Herbrand base into true / false / undefined atoms.

    A model is a view, built by `WellFoundedKernel` or from the vectors that
    `equivalence.WorldTraces` keeps, of one world of an evaluated block: the
    kernel's atoms, the block's sure, false and undefined vectors over them,
    and the world's place `w` in the block, the bit it reads in those
    vectors; `index` numbers the atoms. A view builds a set each time it is
    read and keeps none, and compares, hashes and prints as its three sets.
    """

    __slots__ = ("_atoms", "_index", "_vectors", "_w")

    def __init__(
        self, atoms: list[Atom], index: dict[Atom, int], vectors: tuple[list[int], ...], w: int
    ):
        self._atoms, self._index, self._vectors, self._w = atoms, index, vectors, w

    def _section(self, k: int) -> frozenset[Atom]:
        w = self._w
        return frozenset(compress(self._atoms, [v >> w & 1 for v in self._vectors[k]]))

    @property
    def true_atoms(self) -> frozenset[Atom]:
        return self._section(0)

    @property
    def false_atoms(self) -> frozenset[Atom]:
        return self._section(1)

    @property
    def undefined_atoms(self) -> frozenset[Atom]:
        return self._section(2)

    def is_true(self, atom: Atom) -> bool:
        """Whether the atom is true, read off one bit; builds no set."""
        k = self._index.get(atom)
        return k is not None and bool(self._vectors[0][k] >> self._w & 1)

    @property
    def is_two_valued(self) -> bool:
        return not self.undefined_atoms

    def _key(self) -> tuple[frozenset[Atom], frozenset[Atom], frozenset[Atom]]:
        return (self.true_atoms, self.false_atoms, self.undefined_atoms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(true_atoms={self.true_atoms!r}, "
            f"false_atoms={self.false_atoms!r}, undefined_atoms={self.undefined_atoms!r})"
        )


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
    well-founded models of its variants that add some of its choices as facts.

    Atoms are interned to 0..k-1. `choices`, the atoms of the probabilistic
    facts, number the worlds by `worlds.fact_bits`. Worlds are evaluated a
    block at a time (see `worlds.block_fact_vectors`): each atom's truth is
    an int with one bit per world of the block, so one pass of int
    operations runs the alternating fixpoint for every world of the block at
    once. The block's sure, false and undefined vectors are kept until a
    world of another block is asked for; a world's model is a view of them
    (see `ThreeValuedModel`). `atoms` lists the interned atoms and `index`
    numbers them.
    """

    def __init__(self, rules: Iterable[Rule], base: Iterable[Atom], choices: Iterable[Atom] = ()):
        rules = list(rules)
        base = frozenset(base)
        atoms = set(base)
        for rule in rules:
            atoms.add(rule.head)
            atoms.update(lit.atom for lit in rule.body)
        self.atoms = list(atoms)
        self.index = {atom: i for i, atom in enumerate(self.atoms)}
        self._in_base = [atom in base for atom in self.atoms]
        self._heads = [self.index[rule.head] for rule in rules]
        self._positive = [
            tuple(self.index[lit.atom] for lit in rule.body if not lit.negated) for rule in rules
        ]
        self._negative = [
            tuple(self.index[lit.atom] for lit in rule.body if lit.negated) for rule in rules
        ]
        self._watch: list[list[int]] = [[] for _ in self.atoms]
        for r, positive in enumerate(self._positive):
            for atom in set(positive):
                self._watch[atom].append(r)
        self._bit = fact_bits(choices)
        self._choices = [self.index[atom] for atom in self._bit]
        self._width = block_width(len(self._bit))
        self._block: int | None = None
        self._vectors: tuple[list[int], list[int], list[int]] = ([], [], [])

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

    def _evaluate(self, block: int) -> tuple[list[int], list[int], list[int]]:
        """The well-founded models of the worlds of a block, where each
        choice holds as a fact in the worlds that choose it: per atom, the
        vectors of the worlds where it is true, false and undefined.

        Alternating fixpoint: K(0) = G(base), U(i) = G(K(i)),
        K(i+1) = G(U(i)), stopping once K repeats (then U repeats too). The
        operations are bitwise, so each world follows the sequence it would
        follow alone, and stays at its fixpoint while other worlds go on.
        """
        full = (1 << self._width) - 1
        start = [0] * len(self.atoms)
        for atom, vector in zip(self._choices, block_fact_vectors(len(self._choices), block)):
            start[atom] = vector
        base = [full if inside else 0 for inside in self._in_base]
        sure = self._least_model(base, start, full)
        possible = self._least_model(sure, start, full)
        # every world's sure set strictly grows until its fixpoint
        for _ in range(len(self.atoms) + 1):
            next_sure = self._least_model(possible, start, full)
            if next_sure == sure:
                break
            sure = next_sure
            possible = self._least_model(sure, start, full)
        else:  # pragma: no cover - the alternating fixpoint provably converges
            raise RuntimeError("alternating fixpoint failed to converge")
        return (
            sure,
            [b & ~p for b, p in zip(base, possible)],
            [p & ~s for p, s in zip(possible, sure)],
        )

    def block_vectors(self, block: int) -> tuple[list[int], list[int], list[int]]:
        """The (true, false, undefined) vectors of a block of worlds, one int
        per atom: the kept ones, unless the block must be evaluated first."""
        if block != self._block:
            self._vectors = self._evaluate(block)
            self._block = block
        return self._vectors

    def keep(self, block: int, vectors: tuple[list[int], list[int], list[int]]) -> None:
        """Keep `vectors`, which `block_vectors(block)` gave, as the kept block."""
        self._block, self._vectors = block, vectors

    def model(self, facts: Iterable[Atom] = ()) -> ThreeValuedModel:
        """The well-founded model of the program plus one fact per given atom.

        The atoms are choices, and name a world: the model is a view of the
        world's place in its block's vectors.
        """
        block, w = divmod(world_mask(self._bit, frozenset(facts)), self._width)
        return ThreeValuedModel(self.atoms, self.index, self.block_vectors(block), w)


def well_founded_model(
    rules: Iterable[Rule],
    base: Iterable[Atom],
    facts: Iterable[Atom] = (),
    kernel: WellFoundedKernel | None = None,
) -> ThreeValuedModel:
    """The unique well-founded model of a ground normal program over `base`,
    with one fact added per atom of `facts` (atoms of the program).

    `kernel`, the same rules and base already compiled by
    `WellFoundedKernel` with the facts among its choices, saves compiling
    them again: callers that evaluate many worlds of one program compile it
    once and pass it. Without it, the program is compiled with `facts` as
    its choices.
    """
    if kernel is None:
        facts = frozenset(facts)
        kernel = WellFoundedKernel(rules, base, facts)
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
        return model.is_true(query)
    return any(matches(query, atom) for atom in model.true_atoms)
