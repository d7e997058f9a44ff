"""Core syntactic objects: atoms, literals, rules, probabilistic facts, programs.

All types are immutable and structurally compared, with a total order used for
canonical iteration everywhere downstream. Probabilities are exact rationals;
floats are rejected so that downstream probability sums can be compared with
``==`` rather than tolerances.

`Atom`, `Literal`, `Rule` and `ProbFact` are `NamedTuple`s, because one is
built per clause, ground atom and literal, and they fill sets and dict keys
on every layer: a tuple is cheap to build and hash. Each type equals, orders
and hashes as the tuple of its fields, so ``Atom("a") == ("a", ())`` holds.
`Atom` and `ProbFact` check their fields in `__new__` of a thin subclass,
since a `NamedTuple` body may not define `__new__`. `Program`,
`GroundProgram` and `Violation` stay dataclasses: there is one per program,
and `Program` caches its atoms and its violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple

RESERVED_PREFIX = "_"


class cached_property:
    """`functools.cached_property` without the lock that Python 3.11 takes
    on each first read: the value is computed and stored in the instance's
    `__dict__`, where later reads find it before this descriptor."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def is_variable(term: str) -> bool:
    """Terms starting with an uppercase letter are variables; all else constants."""
    return term[:1].isupper()


class _AtomFields(NamedTuple):
    predicate: str
    args: tuple[str, ...] = ()


class Atom(_AtomFields):
    __slots__ = ()

    def __new__(cls, predicate: str, args: tuple[str, ...] = ()) -> Atom:
        if not predicate:
            raise ValueError("atom predicate must be non-empty")
        if "" in args:
            raise ValueError(f"atom {predicate!r} has an empty argument term")
        return tuple.__new__(cls, (predicate, args))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(t) for t in self.args)

    def variables(self) -> frozenset[str]:
        return frozenset(t for t in self.args if is_variable(t))

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(t, t) for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"


class Literal(NamedTuple):
    """An atom or its negation-as-failure; renders as "not a" when negated."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


class Rule(NamedTuple):
    """head :- body. An empty body makes the rule a fact."""

    head: Atom
    body: tuple[Literal, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def positive_atoms(self) -> frozenset[Atom]:
        return frozenset(lit.atom for lit in self.body if not lit.negated)

    def variables(self) -> frozenset[str]:
        atoms = (self.head, *(lit.atom for lit in self.body))
        return frozenset(t for atom in atoms for t in atom.args if is_variable(t))

    def substitute(self, binding: dict[str, str]) -> "Rule":
        return Rule(
            self.head.substitute(binding),
            tuple(Literal(lit.atom.substitute(binding), lit.negated) for lit in self.body),
        )

    def __str__(self) -> str:
        if not self.body:
            return str(self.head)
        return f"{self.head} :- {', '.join(str(lit) for lit in self.body)}"


class _ProbFactFields(NamedTuple):
    prob: Fraction
    atom: Atom


class ProbFact(_ProbFactFields):
    """An independent probabilistic fact ``p::atom`` with an exact rational p."""

    __slots__ = ()

    def __new__(cls, prob: Fraction, atom: Atom) -> ProbFact:
        if isinstance(prob, float):
            raise TypeError("probabilities must be exact rationals, not floats")
        if type(prob) is not Fraction:
            prob = Fraction(prob)
        # a Fraction's denominator is positive: 0 <= prob <= 1 on its ints
        if not 0 <= prob.numerator <= prob.denominator:
            raise ValueError(f"probability {prob} of {atom} is outside [0,1]")
        return tuple.__new__(cls, (prob, atom))

    def __str__(self) -> str:
        return f"{format_probability(self.prob)}::{self.atom}"


def format_probability(p: Fraction) -> str:
    """Exact textual form: a finite decimal when one exists, else num/den."""
    num, den = p.numerator, p.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10**digits // den
    if digits == 0:
        return str(scaled)
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class Program:
    """A set of rules plus a set of probabilistic facts.

    Its atoms, its rules' variables and its violations are computed once,
    on first use, and kept with it: `parse_program` validates a program and
    `ground` reuses all three.
    """

    rules: frozenset[Rule] = frozenset()
    pfacts: frozenset[ProbFact] = frozenset()

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        """`herbrand_base` of the clauses as written."""
        return herbrand_base(self.rules, self.pfacts)

    @cached_property
    def rule_variables(self) -> dict[Rule, tuple[str, ...]]:
        """The rules that have variables, each with its variables."""
        if all(atom.is_ground for atom in self.atoms if atom.args):
            return {}
        return {rule: variables for rule in self.rules if (variables := tuple(rule.variables()))}

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """`validate(self)`."""
        return tuple(validate(self))

    def clauses(self) -> list[str]:
        lines = [f"{pf}." for pf in sorted(self.pfacts, key=lambda pf: (pf.atom, pf.prob))]
        lines += [f"{rule}." for rule in sorted(self.rules)]
        return lines

    def to_source(self) -> str:
        return "\n".join(self.clauses()) + ("\n" if self.rules or self.pfacts else "")


@dataclass(frozen=True)
class GroundProgram:
    """A fully ground program together with its Herbrand base."""

    rules: frozenset[Rule]
    pfacts: frozenset[ProbFact]
    herbrand_base: frozenset[Atom]

    @cached_property
    def fact_atoms(self) -> frozenset[Atom]:
        """The atoms of the probabilistic facts, built on first read and kept."""
        return frozenset(pf.atom for pf in self.pfacts)


@dataclass(frozen=True)
class Violation:
    """One broken well-formedness constraint, naming the offender.

    `clause` is the offending rule or probabilistic fact, when the constraint
    is about one clause; it lets a parser point at the clause's position.
    """

    kind: str
    message: str
    clause: Rule | ProbFact | None = None


def validate(program: Program) -> list[Violation]:
    """Check program invariants; returns one record per broken constraint.

    Violations are data, not exceptions: an empty list means the program is
    well formed. The check is deterministic and idempotent: the records come
    in sorted clause order, and since whether a constraint is broken does
    not depend on the order, the clauses are sorted only once one is.
    """
    unordered = (program.atoms, program.rules, program.pfacts)
    open_rules = program.rule_variables
    return _violations(*unordered, open_rules) and _violations(*map(sorted, unordered), open_rules)


def _violations(
    atoms: Collection[Atom],
    rules: Collection[Rule],
    pfacts: Collection[ProbFact],
    open_rules: Collection[Rule],
) -> list[Violation]:
    violations: list[Violation] = []
    for atom in atoms:
        if atom.predicate.startswith(RESERVED_PREFIX):
            violations.append(
                Violation(
                    "reserved_predicate",
                    f"predicate {atom.predicate!r} uses the reserved '_' prefix",
                )
            )
    seen: dict[Atom, ProbFact] = {}
    for pf in pfacts:
        if pf.atom in seen:
            violations.append(
                Violation(
                    "duplicate_probabilistic_fact",
                    f"probabilistic facts {seen[pf.atom]} and {pf} share the atom {pf.atom}",
                    pf,
                )
            )
        else:
            seen[pf.atom] = pf
    # a rule without variables is its own ground instance
    if open_rules:
        constants = constants_of(atoms)
        for rule in rules:
            if rule in open_rules and (reason := ungroundable_reason(rule, constants)):
                violations.append(Violation("rule_not_groundable", reason, rule))
    for pf in pfacts:
        if pf.atom.args and (reason := nonground_reason(pf)) is not None:
            violations.append(Violation("probabilistic_fact_not_ground", reason, pf))
    # a fact atom that is an instance of a rule head breaks flatness; a fact
    # that is not ground is reported above. Only a head with the fact's
    # predicate and arity can match it, so only the rules whose head
    # predicate is some fact's, none in a flat program, are grouped by those
    ground_facts = [pf for pf in pfacts if not pf.atom.args or pf.atom.is_ground]
    predicates = {pf.atom.predicate for pf in ground_facts}
    heads: dict[tuple[str, int], list[Rule]] = {}
    for rule in rules:
        if (head := rule.head).predicate in predicates:
            heads.setdefault((head.predicate, len(head.args)), []).append(rule)
    if heads:
        for pf in ground_facts:
            for rule in heads.get((pf.atom.predicate, len(pf.atom.args)), ()):
                if matches(rule.head, pf.atom):
                    violations.append(
                        Violation(
                            "probabilistic_fact_is_rule_head",
                            f"probabilistic fact atom {pf.atom} unifies with the head of rule "
                            f"'{rule}'",
                            pf,
                        )
                    )
    return violations


def ungroundable_reason(rule: Rule, constants: Collection[str]) -> str | None:
    """Why a rule with variables cannot be finitely grounded over the
    program's `constants`: some head variable occurs in no positive body
    literal, or there are no constants. None when it can be."""
    unrestricted = rule.head.variables()
    for atom in rule.positive_atoms():
        unrestricted -= atom.variables()
    if unrestricted:
        return (
            f"rule '{rule}' is not range-restricted: head variable(s) "
            f"{', '.join(sorted(unrestricted))} never occur in a positive body literal"
        )
    if not constants:
        return (
            f"rule '{rule}' contains variables but the program has no "
            "constants to instantiate them with"
        )
    return None


def nonground_reason(pf: ProbFact) -> str | None:
    """Why the probabilistic fact cannot be grounded, or None when it is ground."""
    if pf.atom.is_ground:
        return None
    try:
        fact = f"'{pf}'"
    except ValueError:  # a probability with more digits than the interpreter prints
        fact = f"for {pf.atom}, whose probability has too many digits to print,"
    return (
        f"probabilistic fact {fact} is not ground; a bodyless clause "
        "has no positive body literal to restrict its variables"
    )


def matches(pattern: Atom, ground: Atom) -> bool:
    """Whether a ground atom is an instance of a (possibly non-ground) pattern."""
    if pattern.predicate != ground.predicate or len(pattern.args) != len(ground.args):
        return False
    binding: dict[str, str] = {}
    for p, g in zip(pattern.args, ground.args):
        if is_variable(p):
            if binding.setdefault(p, g) != g:
                return False
        elif p != g:
            return False
    return True


def herbrand_base(rules: Iterable[Rule], pfacts: Iterable[ProbFact]) -> frozenset[Atom]:
    """All atoms occurring in heads, bodies, and probabilistic facts: the
    Herbrand base, once the rules and facts are ground."""
    atoms = {pf.atom for pf in pfacts}
    for rule in rules:
        atoms.add(rule.head)
        atoms.update([lit.atom for lit in rule.body])
    return frozenset(atoms)


def constants_of(atoms: Iterable[Atom]) -> list[str]:
    """The constants among the atoms' arguments, sorted."""
    return sorted({t for atom in atoms for t in atom.args if not is_variable(t)})
