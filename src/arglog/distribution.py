"""Direct distribution semantics: total choices, induced programs, success probability."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .limits import Caps
from .model import Atom, GroundProgram, ProbFact, Rule, matches
from .wfm import WellFoundedKernel, well_founded_model
from .worlds import weighted_worlds, world_numerators, world_table


def induced_program(total_choice: frozenset[Atom], gp: GroundProgram) -> frozenset[Rule]:
    """The program's rules plus one fact per chosen atom."""
    return gp.rules | frozenset(Rule(atom) for atom in total_choice)


def total_choices(
    pfacts: Iterable[ProbFact], max_pfacts: int = Caps.max_pfacts
) -> Iterator[tuple[frozenset[Atom], Fraction]]:
    """All subsets of the probabilistic-fact atoms with their probabilities."""
    return iter(world_table(pfacts, max_pfacts))


def success_probability(
    query: Atom, gp: GroundProgram, max_pfacts: int = Caps.max_pfacts, traces=None
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

    Given `traces`, what `equivalence.world_traces` returned for `gp`, the
    pass reads their `kernel`, `worlds` and block `vectors` instead of
    compiling, tabulating and evaluating again, and gives the same answer.
    Without them it builds its own, refusing more than `max_pfacts` facts.
    """
    if query.is_ground:
        instances = [query]
    else:
        instances = [atom for atom in gp.herbrand_base if matches(query, atom)]
    if traces is None:
        kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
        worlds = weighted_worlds(gp.pfacts, world_numerators(gp.pfacts, max_pfacts))
        blocks = None
    else:
        kernel, worlds, blocks = traces.kernel, traces.worlds, traces.vectors
    lows, highs, denominator = worlds
    rules, base = gp.rules, gp.herbrand_base
    low_sets = [low_set for low_set, _ in lows]
    total = 0
    for block, (high_set, high) in enumerate(highs):
        if blocks is not None:
            kernel.keep(block, blocks[block])
        successes = 0
        world_sets = (high_set | low_set for low_set in low_sets) if high_set else low_sets
        for world, (_, low) in zip(world_sets, lows):
            model = well_founded_model(rules, base, world, kernel)
            if any(map(model.is_true, instances)):
                successes += low
        total += high * successes
    return Fraction(total, denominator)
