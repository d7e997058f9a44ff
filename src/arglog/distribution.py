"""Direct distribution semantics: total choices, induced programs, success probability."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .limits import Caps
from .model import Atom, GroundProgram, ProbFact, Rule, matches
from .wfm import ThreeValuedModel, WellFoundedKernel, well_founded_model
from .worlds import enumerate_worlds


def induced_program(total_choice: frozenset[Atom], gp: GroundProgram) -> frozenset[Rule]:
    """The program's rules plus one fact per chosen atom."""
    return gp.rules | frozenset(Rule(atom) for atom in total_choice)


def total_choices(
    pfacts: Iterable[ProbFact], max_pfacts: int = Caps.max_pfacts
) -> Iterator[tuple[frozenset[Atom], Fraction]]:
    """All subsets of the probabilistic-fact atoms with their probabilities."""
    return ((choice, prob) for _, choice, prob in enumerate_worlds(pfacts, max_pfacts))


def world_models(
    gp: GroundProgram, max_pfacts: int = Caps.max_pfacts
) -> Iterator[tuple[frozenset[Atom], Fraction, ThreeValuedModel]]:
    """(total choice, probability, well-founded model of the induced program)
    for every total choice, in the shared world order. The program is
    compiled once with the choice atoms, and the kernel evaluates the
    choices a block of worlds at a time; each choice's model is a view of
    its block's vectors."""
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    for choice, prob in total_choices(gp.pfacts, max_pfacts):
        yield choice, prob, well_founded_model(gp.rules, gp.herbrand_base, choice, kernel)


def success_probability(
    query: Atom, gp: GroundProgram, max_pfacts: int = Caps.max_pfacts
) -> Fraction:
    """Exact probability mass of the total choices whose induced program makes
    some ground instance of the query true in its well-founded model.

    The instances are found once, over the Herbrand base; each choice's
    model is then asked for them bit by bit, so no model builds its set of
    true atoms. Undefined does not count as success.
    """
    if query.is_ground:
        instances = [query]
    else:
        instances = [atom for atom in gp.herbrand_base if matches(query, atom)]
    total = Fraction(0)
    for _, prob, model in world_models(gp, max_pfacts):
        if prob and any(map(model.is_true, instances)):
            total += prob
    return total
