"""Cross-checking the two back ends against each other, query by query.

For every query the success probability computed from total choices and
well-founded models must equal, exactly, the probability of worlds whose
grounded extension accepts an argument for the query. The per-argument
probability sum upper-bounds both, strictly so when several distinct
derivations of the claim coexist in a world. The per-world trace records the
correspondence the equality rests on: true atoms of the well-founded model
are exactly the accepted atomic claims, false atoms exactly the atoms whose
negation-as-failure is an accepted claim.

`world_traces` evaluates every world once on each route. Besides the
per-world rows, which the listings and a counterexample's dump print, it
keeps each block's true vectors. A query that shares those traces (as in
`check_program`) is answered by masked sums over the engine's cached block
labellings: its success probability at the OR of its instances' true
vectors, its grounded ones, as on every path, from the engine's
`query_masses`. It walks no world. A lone query instead takes its success
probability from `success_probability`, the distribution semantics' own
pass over the worlds, which sums integer numerators: `arglog query` then
compares the very functions that its `--semantics dist` and
`--semantics arg` print, and `arglog check` compares one lone query per
program with its shared report. Both routes weigh worlds by
`worlds.world_numerators`, so no check here can catch a defect in them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import or_
from typing import NamedTuple, Sequence

from .distribution import success_probability
from .limits import Caps
from .model import Atom, GroundProgram, Literal, ProbFact, Program, Rule
from .paa import PaaEngine
from .wfm import ThreeValuedModel, WellFoundedKernel, well_founded_model
from .worlds import block_width


class WorldTrace(NamedTuple):
    """One world's view from both back ends, plus whether they agree."""

    world: frozenset[Atom]
    probability: Fraction
    model: ThreeValuedModel
    accepted_claims: frozenset[Literal]
    model_matches_claims: bool


class WorldTraces(tuple):
    """The `WorldTrace` rows of every world, in mask order, and what a query
    is answered from without walking them.

    `true_vectors` holds, per block of worlds, the kernel's true vector per
    atom, numbered by `index`. `all_match` says whether every world's model
    matched its accepted claims.
    """

    true_vectors: list[list[int]]
    index: dict[Atom, int]
    all_match: bool


@dataclass(frozen=True)
class EquivalenceReport:
    query: Atom
    success_probability: Fraction
    grounded_query_probability: Fraction
    argument_probability_sum: Fraction
    world_traces: WorldTraces

    @property
    def probabilities_equal(self) -> bool:
        return self.success_probability == self.grounded_query_probability

    @property
    def sum_bounds_success(self) -> bool:
        return self.success_probability <= self.argument_probability_sum

    @property
    def holds(self) -> bool:
        return (
            self.probabilities_equal
            and self.sum_bounds_success
            and self.world_traces.all_match
        )


def mismatched_worlds(
    sure: Sequence[int],
    false: Sequence[int],
    inside: Sequence[int],
    claiming: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> int:
    """The worlds of a block, as a bit vector, whose well-founded model does
    not match the accepted claims.

    `sure[k]` and `false[k]` are the worlds where atom k is true and false,
    `inside[i]` the worlds whose grounded extension accepts argument i, and
    `claiming[k]` the arguments claiming atom k and those claiming its
    negation. A world matches when, for every atom, the atom is true iff an
    argument claiming it is accepted, and false iff an argument claiming its
    negation is.
    """
    mismatch = 0
    for true_vector, false_vector, (positive, negative) in zip(sure, false, claiming):
        accepted = 0
        for i in positive:
            accepted |= inside[i]
        mismatch |= true_vector ^ accepted
        accepted = 0
        for i in negative:
            accepted |= inside[i]
        mismatch |= false_vector ^ accepted
    return mismatch


def world_traces(gp: GroundProgram, engine: PaaEngine) -> WorldTraces:
    """Evaluate every world (including zero-probability ones) on both routes.

    The worlds, their probabilities and accepted arguments are the engine's
    `evaluations`, read a block at a time, in mask order. Each route
    evaluates each world once, a block of worlds at a time, and whether a
    world's model matches its accepted claims is read from one
    `mismatched_worlds` vector per block. The kernel's true vectors are
    kept with the rows (see `WorldTraces`).
    """
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    claim_of = engine.claim_of
    claiming: list[tuple[list[int], list[int]]] = [([], []) for _ in kernel.atoms]
    for i, claim in enumerate(claim_of):
        claiming[kernel.index[claim.atom]][claim.negated].append(i)
    evaluations = engine.evaluations()
    width = block_width(len(gp.pfacts))
    rows, true_vectors = [], []
    mismatches = 0
    for block, inside in enumerate(engine.in_vectors()):
        sure, false, _ = kernel.block_vectors(block)
        true_vectors.append(sure)
        mismatch = mismatched_worlds(sure, false, inside, claiming)
        mismatches |= mismatch
        for world, prob, accepted in islice(evaluations, width):
            model = well_founded_model(gp.rules, gp.herbrand_base, world, kernel)
            claims = frozenset(map(claim_of.__getitem__, accepted))
            rows.append(WorldTrace(world, prob, model, claims, not mismatch & 1))
            mismatch >>= 1
    traces = WorldTraces(rows)
    traces.true_vectors, traces.index = true_vectors, kernel.index
    traces.all_match = not mismatches
    return traces


def check_query(
    query: Atom,
    gp: GroundProgram,
    caps: Caps = Caps(),
    engine: PaaEngine | None = None,
    traces: WorldTraces | None = None,
) -> EquivalenceReport:
    """Compare both back ends on one query; the report is the project's
    primary debugging instrument, so it carries the full per-world trace.

    Given `traces`, what `world_traces` returned for this program and
    `engine` (as `check_program` passes them), no world is walked again,
    whatever the number of queries. The success probability is the mass at
    the OR of the true vectors of the engine's `instance_atoms`, and the
    grounded ones come from the engine's `query_masses`, which finds the
    arguments through its own claim index. On this path `all_match` implies
    `probabilities_equal` and `sum_bounds_success`: the two sides share the
    instances and the numerators, and where every world matches, each
    instance's true vector is the OR of its claiming arguments' IN vectors.
    What they still test is the engine's claim index against the claims
    `world_traces` matched; the tests comparing shared and lone reports pin
    the rest of the arithmetic.

    Without `traces`, they are computed, and the success probability comes
    from `success_probability`, the distribution semantics' own pass over
    the worlds with its own instance matching, so a lone query checks the
    functions that answer each route on its own. Either way the grounded
    probability and the argument sum come from one `query_masses` pass, and
    `holds` reads the traces' `all_match`.
    """
    if engine is None:
        engine = PaaEngine(gp, caps)
    if traces is None:
        traces = world_traces(gp, engine)
        success = success_probability(query, gp, caps.max_pfacts)
    else:
        rows = [traces.index[atom] for atom in engine.instance_atoms(query)]
        success = engine.mass(
            reduce(or_, [sure[k] for k in rows], 0) for sure in traces.true_vectors
        )
    return EquivalenceReport(query, success, *engine.query_masses(query), world_traces=traces)


def check_program(gp: GroundProgram, caps: Caps = Caps()) -> list[EquivalenceReport]:
    """One report per Herbrand atom, sharing a single per-world evaluation."""
    engine = PaaEngine(gp, caps)
    traces = world_traces(gp, engine)
    return [
        check_query(atom, gp, caps, engine=engine, traces=traces)
        for atom in sorted(gp.herbrand_base)
    ]


@dataclass(frozen=True)
class GenLimits:
    max_pfacts: int = 6
    max_rules: int = 10
    max_atoms: int = 8
    max_body: int = 3


def random_program(seed: int, limits: GenLimits = GenLimits()) -> Program:
    """Deterministic pseudo-random propositional program, valid by construction.

    Probabilistic-fact atoms are kept out of the rule-head pool, probabilities
    are exact tenths (0 and 1 included), and negation may occur anywhere in
    rule bodies, cycles included.
    """
    rng = random.Random(seed)
    atoms = [Atom(chr(ord("a") + i)) for i in range(rng.randint(1, limits.max_atoms))]
    pfact_atoms = rng.sample(atoms, rng.randint(0, min(limits.max_pfacts, len(atoms))))
    pfacts = frozenset(
        ProbFact(Fraction(rng.randint(0, 10), 10), atom) for atom in pfact_atoms
    )
    head_pool = [a for a in atoms if a not in pfact_atoms]
    rules: set[Rule] = set()
    if head_pool:
        for _ in range(rng.randint(0, limits.max_rules)):
            head = rng.choice(head_pool)
            body = tuple(
                Literal(rng.choice(atoms), rng.random() < 0.4)
                for _ in range(rng.randint(0, limits.max_body))
            )
            rules.add(Rule(head, body))
    return Program(frozenset(rules), pfacts)
