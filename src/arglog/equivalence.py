"""Cross-checking the two back ends against each other, query by query.

For every query the success probability computed from total choices and
well-founded models must equal, exactly, the probability of worlds whose
grounded extension accepts an argument for the query. The per-argument
probability sum upper-bounds both, strictly so when several distinct
derivations of the claim coexist in a world. The per-world trace records the
correspondence the equality rests on: true atoms of the well-founded model
are exactly the accepted atomic claims, false atoms exactly the atoms whose
negation-as-failure is an accepted claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .distribution import success_mass, success_probability, world_models
from .limits import Caps
from .model import Atom, GroundProgram, Literal, ProbFact, Program, Rule
from .paa import PaaEngine
from .wfm import ThreeValuedModel


@dataclass(frozen=True)
class WorldTrace:
    """One world's view from both back ends, plus whether they agree."""

    world: frozenset[Atom]
    probability: Fraction
    model: ThreeValuedModel
    accepted_claims: frozenset[Literal]
    model_matches_claims: bool


@dataclass(frozen=True)
class EquivalenceReport:
    query: Atom
    success_probability: Fraction
    grounded_query_probability: Fraction
    argument_probability_sum: Fraction
    world_traces: tuple[WorldTrace, ...]

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
            and all(t.model_matches_claims for t in self.world_traces)
        )


def world_traces(gp: GroundProgram, engine: PaaEngine) -> tuple[WorldTrace, ...]:
    """Evaluate every world (including zero-probability ones) on both routes.

    Each route evaluates each world once; both enumerate worlds in the same
    order, so their results pair up row by row. The model matches the claims
    when its true atoms are the accepted atomic claims and its false atoms
    the atoms of the accepted negated claims.
    """
    claim_of = [arg.claim for arg in engine.arguments]
    atomic = frozenset(i for i, claim in enumerate(claim_of) if not claim.negated)
    # the base's own atom objects, which the models hold, so that comparing
    # the sets below mostly finds elements by identity
    base = {atom: atom for atom in gp.herbrand_base}
    atom_of = [base.get(claim.atom, claim.atom) for claim in claim_of]
    traces = []
    for (world, prob, model), (_, _, accepted) in zip(
        world_models(gp, engine.caps.max_pfacts), engine.evaluations()
    ):
        true_atoms = set(map(atom_of.__getitem__, accepted & atomic))
        false_atoms = set(map(atom_of.__getitem__, accepted - atomic))
        matches = model.true_atoms == true_atoms and model.false_atoms == false_atoms
        claims = frozenset(map(claim_of.__getitem__, accepted))
        traces.append(WorldTrace(world, prob, model, claims, matches))
    return tuple(traces)


def check_query(
    query: Atom,
    gp: GroundProgram,
    caps: Caps = Caps(),
    engine: PaaEngine | None = None,
    traces: tuple[WorldTrace, ...] | None = None,
) -> EquivalenceReport:
    """Compare both back ends on one query; the report is the project's
    primary debugging instrument, so it carries the full per-world trace.

    Without `traces`, the success probability comes from `success_probability`,
    the distribution semantics' own pass over the worlds, so a lone query also
    checks that public function against the traces. Given `traces` (as by
    `check_program`), it is summed from their well-founded models, so no world
    is evaluated again, whatever the number of queries. The grounded
    probabilities always come from the engine's memoised per-world extensions.
    """
    if engine is None:
        engine = PaaEngine(gp, caps)
    if traces is None:
        traces = world_traces(gp, engine)
        success = success_probability(query, gp, caps.max_pfacts)
    else:
        success = success_mass(query, ((t.probability, t.model) for t in traces))
    return EquivalenceReport(
        query=query,
        success_probability=success,
        grounded_query_probability=engine.grounded_prob_query(query),
        argument_probability_sum=engine.argument_probability_sum(query),
        world_traces=traces,
    )


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
