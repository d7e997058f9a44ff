"""Finite grounding of function-free programs over their own constants."""

from __future__ import annotations

from itertools import product

from .errors import GroundingError
from .model import (
    GroundProgram,
    ProbFact,
    Program,
    Rule,
    constants_of,
    herbrand_base,
    nonground_reason,
    ungroundable_reason,
)


def ground(program: Program) -> GroundProgram:
    """Replace every clause by all its instantiations over the program constants.

    The term language is function-free by construction, so the Herbrand
    universe is the (finite) set of constants that occur in the program.
    Rules must be range-restricted: every head variable has to occur in a
    positive body literal, which rules out bodyless clauses with variables,
    and a rule with variables needs a constant to instantiate them with.
    `parse_program` already rejects such clauses, with their positions;
    here they raise `GroundingError`, for programs built in code. Identical
    instantiations are deduplicated.
    """
    constants = constants_of(herbrand_base(program.rules, program.pfacts))
    ground_rules: set[Rule] = set()
    for rule in sorted(program.rules):
        variables = sorted(rule.variables())
        if not variables:
            ground_rules.add(rule)
            continue
        reason = ungroundable_reason(rule, constants)
        if reason is not None:
            raise GroundingError(reason)
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
