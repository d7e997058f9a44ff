"""Finite grounding of function-free programs over their own constants."""

from __future__ import annotations

from itertools import product

from .errors import CapExceeded, GroundingError
from .limits import Caps
from .model import GroundProgram, Program, Rule, constants_of, herbrand_base


def ground(program: Program, caps: Caps = Caps()) -> GroundProgram:
    """Replace every clause by all its instantiations over the program constants.

    The term language is function-free by construction, so the Herbrand
    universe is the (finite) set of constants that occur in the program.
    The program must be well formed (`model.validate`): among other things,
    rules must be range-restricted, probabilistic facts ground, and no fact
    atom an instance of a rule head. `parse_program` already rejects a
    program that is not, with its positions; here it raises
    `GroundingError`, for programs built in code. Identical instantiations
    are deduplicated. A program with no variables is its own ground program,
    and its atoms are its Herbrand base.

    A rule with k variables has |constants|**k instances, a ground rule one.
    When the rules' instances add up to more than `caps.max_ground_rules`,
    CapExceeded is raised before any instance is made.
    """
    if program.violations:
        raise GroundingError("; ".join(v.message for v in program.violations))
    open_rules = list(program.rule_variables.items())
    constants = constants_of(program.atoms) if open_rules else []
    instances = len(program.rules) - len(open_rules)
    instances += sum(len(constants) ** len(vs) for _, vs in open_rules)
    if instances > caps.max_ground_rules:
        raise CapExceeded(
            f"grounding would make {instances} rule instances, "
            f"past the cap of {caps.max_ground_rules}",
            cap="max_ground_rules",
        )
    if not open_rules:
        return GroundProgram(program.rules, program.pfacts, program.atoms)
    ground_rules: set[Rule] = set(program.rules).difference(rule for rule, _ in open_rules)
    for rule, variables in open_rules:
        for values in product(constants, repeat=len(variables)):
            ground_rules.add(rule.substitute(dict(zip(variables, values))))
    return GroundProgram(
        rules=frozenset(ground_rules),
        pfacts=program.pfacts,
        herbrand_base=herbrand_base(ground_rules, program.pfacts),
    )
