"""Core syntactic objects: atoms, literals, rules, probabilistic facts, programs.

All types are immutable and structurally compared, with a total order used for
canonical iteration everywhere downstream. Probabilities are exact rationals;
floats are rejected so that downstream probability sums can be compared with
``==`` rather than tolerances.

Atoms, literals and rules fill sets and dict keys on every layer, so each
computes its hash once, when it is built. Pickling rebuilds them through the
constructor, so a hash never crosses into a process whose string hashes
differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable

RESERVED_PREFIX = "_"


def is_variable(term: str) -> bool:
    """Terms starting with an uppercase letter are variables; all else constants."""
    return term[:1].isupper()


@dataclass(frozen=True, order=True)
class Atom:
    predicate: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.predicate:
            raise ValueError("atom predicate must be non-empty")
        if any(not t for t in self.args):
            raise ValueError(f"atom {self.predicate!r} has an empty argument term")
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Atom, (self.predicate, self.args)

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


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its negation-as-failure; renders as "not a" when negated."""

    atom: Atom
    negated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.atom, self.negated)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Literal, (self.atom, self.negated)

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True, order=True)
class Rule:
    """head :- body. An empty body makes the rule a fact."""

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Rule, (self.head, self.body)

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


@dataclass(frozen=True, order=True)
class ProbFact:
    """An independent probabilistic fact ``p::atom`` with an exact rational p."""

    prob: Fraction
    atom: Atom

    def __post_init__(self):
        if isinstance(self.prob, float):
            raise TypeError("probabilities must be exact rationals, not floats")
        object.__setattr__(self, "prob", Fraction(self.prob))
        if not 0 <= self.prob <= 1:
            raise ValueError(f"probability {self.prob} of {self.atom} is outside [0,1]")

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
    """A set of rules plus a set of probabilistic facts."""

    rules: frozenset[Rule] = frozenset()
    pfacts: frozenset[ProbFact] = frozenset()

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

    @property
    def fact_atoms(self) -> frozenset[Atom]:
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
    well formed. The check is deterministic (sorted iteration) and idempotent.
    """
    violations: list[Violation] = []
    atoms = herbrand_base(program.rules, program.pfacts)
    for atom in sorted(atoms):
        if atom.predicate.startswith(RESERVED_PREFIX):
            violations.append(
                Violation(
                    "reserved_predicate",
                    f"predicate {atom.predicate!r} uses the reserved '_' prefix",
                )
            )
    rules, pfacts = sorted(program.rules), sorted(program.pfacts)
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
    constants = constants_of(atoms)
    for rule in rules:
        reason = ungroundable_reason(rule, constants)
        if reason is not None:
            violations.append(Violation("rule_not_groundable", reason, rule))
    for pf in pfacts:
        reason = nonground_reason(pf)
        if reason is not None:
            violations.append(Violation("probabilistic_fact_not_ground", reason, pf))
    for pf in pfacts:
        for rule in rules:
            if unifies(pf.atom, rule.head):
                violations.append(
                    Violation(
                        "probabilistic_fact_is_rule_head",
                        f"probabilistic fact atom {pf.atom} unifies with the head of rule '{rule}'",
                        pf,
                    )
                )
    return violations


def ungroundable_reason(rule: Rule, constants: Collection[str]) -> str | None:
    """Why the rule cannot be finitely grounded over the program's
    `constants`: some head variable occurs in no positive body literal, or
    the rule has variables and there are no constants. None when it can be."""
    if not rule.variables():
        return None
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
    return (
        f"probabilistic fact '{pf}' is not ground; a bodyless clause "
        "has no positive body literal to restrict its variables"
    )


def unifies(left: Atom, right: Atom) -> bool:
    """Whether two atoms from different clauses unify (variables renamed apart)."""
    if left.predicate != right.predicate or len(left.args) != len(right.args):
        return False
    # Tag variables with their side so same-named variables stay distinct.
    subst: dict[tuple[str, str], object] = {}

    def walk(term):
        while isinstance(term, tuple) and term in subst:
            term = subst[term]
        return term

    for a, b in zip(left.args, right.args):
        s = ("L", a) if is_variable(a) else a
        t = ("R", b) if is_variable(b) else b
        s, t = walk(s), walk(t)
        if s == t:
            continue
        if isinstance(s, tuple):
            subst[s] = t
        elif isinstance(t, tuple):
            subst[t] = s
        else:
            return False
    return True


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
    atoms: set[Atom] = set()
    for rule in rules:
        atoms.add(rule.head)
        atoms.update(lit.atom for lit in rule.body)
    atoms.update(pf.atom for pf in pfacts)
    return frozenset(atoms)


def constants_of(atoms: Iterable[Atom]) -> list[str]:
    """The constants among the atoms' arguments, sorted."""
    return sorted({t for atom in atoms for t in atom.args if not is_variable(t)})
