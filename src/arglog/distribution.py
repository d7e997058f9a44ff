"""Direct distribution semantics: total choices, induced programs, success probability."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .limits import Caps
from .model import Atom, GroundProgram, ProbFact, Rule, matches
from .wfm import WellFoundedKernel, well_founded_model
from .worlds import weighted_worlds, world_table


def induced_program(total_choice: frozenset[Atom], gp: GroundProgram) -> frozenset[Rule]:
    """The program's rules plus one fact per chosen atom."""
    return gp.rules | frozenset(Rule(atom) for atom in total_choice)


def total_choices(
    pfacts: Iterable[ProbFact], max_pfacts: int = Caps.max_pfacts
) -> Iterator[tuple[frozenset[Atom], Fraction]]:
    """All subsets of the probabilistic-fact atoms with their probabilities."""
    return iter(world_table(pfacts, max_pfacts))


def success_probability(
    query: Atom, gp: GroundProgram, max_pfacts: int = Caps.max_pfacts
) -> Fraction:
    """Exact probability mass of the total choices whose induced program makes
    some ground instance of the query true in its well-founded model.

    The instances are found once, over the Herbrand base; each choice's
    model is then asked for them bit by bit, so no model builds its set of
    true atoms. Undefined does not count as success. The kernel evaluates
    the choices a block of worlds at a time; a model is a view of its block.
    The choices and their integer numerators come from `weighted_worlds`: a
    block's successful low numerators are summed, times the block's high
    numerator, and one `Fraction` is built at the end.
    """
    if query.is_ground:
        instances = [query]
    else:
        instances = [atom for atom in gp.herbrand_base if matches(query, atom)]
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    lows, highs, denominator = weighted_worlds(gp.pfacts, max_pfacts)
    total = 0
    for high_set, high in highs:
        successes = 0
        for low_set, low in lows:
            model = well_founded_model(gp.rules, gp.herbrand_base, high_set | low_set, kernel)
            if any(map(model.is_true, instances)):
                successes += low
        total += high * successes
    return Fraction(total, denominator)
