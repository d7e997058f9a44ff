"""Finite grounding of function-free programs over their own constants."""

from __future__ import annotations

from itertools import product

from .errors import GroundingError
from .model import (
    GroundProgram,
    ProbFact,
    Program,
    Rule,
    herbrand_base,
    is_variable,
    nonground_reason,
    unrestricted_reason,
)


def _constants(program: Program) -> list[str]:
    consts: set[str] = set()
    for rule in program.rules:
        for atom in [rule.head, *(lit.atom for lit in rule.body)]:
            consts.update(t for t in atom.args if not is_variable(t))
    for pf in program.pfacts:
        consts.update(t for t in pf.atom.args if not is_variable(t))
    return sorted(consts)


def ground(program: Program) -> GroundProgram:
    """Replace every clause by all its instantiations over the program constants.

    The term language is function-free by construction, so the Herbrand
    universe is the (finite) set of constants that occur in the program.
    Rules must be range-restricted: every head variable has to occur in a
    positive body literal, which rules out bodyless clauses with variables.
    `parse_program` already rejects such clauses, with their positions;
    here they raise `GroundingError`, for programs built in code. Identical
    instantiations are deduplicated.
    """
    constants = _constants(program)
    ground_rules: set[Rule] = set()
    for rule in sorted(program.rules):
        variables = sorted(rule.variables())
        if not variables:
            ground_rules.add(rule)
            continue
        reason = unrestricted_reason(rule)
        if reason is not None:
            raise GroundingError(reason)
        if not constants:
            raise GroundingError(
                f"rule '{rule}' contains variables but the program has no "
                "constants to instantiate them with"
            )
        for values in product(constants, repeat=len(variables)):
            ground_rules.add(rule.substitute(dict(zip(variables, values))))
    ground_pfacts: set[ProbFact] = set()
    for pf in sorted(program.pfacts):
        reason = nonground_reason(pf)
        if reason is not None:
            raise GroundingError(reason)
        ground_pfacts.add(pf)
    return GroundProgram(
        rules=frozenset(ground_rules),
        pfacts=frozenset(ground_pfacts),
        herbrand_base=herbrand_base(ground_rules, ground_pfacts),
    )


def ground_program_from_parts(rules, pfacts) -> GroundProgram:
    """Assemble a GroundProgram from already-ground parts (test convenience)."""
    rules = frozenset(rules)
    pfacts = frozenset(pfacts)
    for rule in rules:
        if rule.variables():
            raise GroundingError(f"rule '{rule}' is not ground")
    for pf in pfacts:
        if not pf.atom.is_ground:
            raise GroundingError(f"probabilistic fact '{pf}' is not ground")
    return GroundProgram(rules, pfacts, herbrand_base(rules, pfacts))
