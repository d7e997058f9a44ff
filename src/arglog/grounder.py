"""Finite grounding of function-free programs over their own constants."""

from __future__ import annotations

from itertools import product

from .errors import GroundingError
from .model import GroundProgram, Program, Rule, constants_of, herbrand_base, validate


def ground(program: Program) -> GroundProgram:
    """Replace every clause by all its instantiations over the program constants.

    The term language is function-free by construction, so the Herbrand
    universe is the (finite) set of constants that occur in the program.
    The program must be well formed (`model.validate`): among other things,
    rules must be range-restricted, probabilistic facts ground, and no fact
    atom an instance of a rule head. `parse_program` already rejects a
    program that is not, with its positions; here it raises
    `GroundingError`, for programs built in code. Identical instantiations
    are deduplicated.
    """
    violations = validate(program)
    if violations:
        raise GroundingError("; ".join(v.message for v in violations))
    constants = constants_of(herbrand_base(program.rules, program.pfacts))
    ground_rules: set[Rule] = set()
    for rule in program.rules:
        variables = tuple(rule.variables())
        if not variables:
            ground_rules.add(rule)
            continue
        for values in product(constants, repeat=len(variables)):
            ground_rules.add(rule.substitute(dict(zip(variables, values))))
    return GroundProgram(
        rules=frozenset(ground_rules),
        pfacts=program.pfacts,
        herbrand_base=herbrand_base(ground_rules, program.pfacts),
    )
