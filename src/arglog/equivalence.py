"""Cross-checking the two back ends against each other, query by query.

For every query the success probability computed from total choices and
well-founded models must equal, exactly, the probability of worlds whose
grounded extension accepts an argument for the query. The per-argument
probability sum upper-bounds both, strictly so when several distinct
derivations of the claim coexist in a world. The per-world trace records the
correspondence the equality rests on: true atoms of the well-founded model
are exactly the accepted atomic claims, false atoms exactly the atoms whose
negation-as-failure is an accepted claim.

`world_traces` evaluates every world once on each route, a block of worlds
at a time. Per block, it checks each world's model against its accepted
claims and that no argument is IN in a world that lacks its facts, and
keeps what it read: the block's true, false and undefined vectors, its IN
vectors and its mismatched worlds. The per-world rows, which
`arglog worlds`, `query --trace` and a counterexample's dump print, are
built from those only when the traces are iterated, a block at a time, the
accepted claims from one transposition of the block's IN vectors, and
nothing keeps them. A query
that shares those traces (as in `check_program`) is answered by masked sums
over the engine's cached block labellings: its success probability at the
OR of its instances' true vectors, its grounded ones, as on every path,
from the engine's `query_masses`. It walks no world. A lone query instead
takes its success probability from `success_probability`, the distribution
semantics' own pass over the worlds, which sums integer numerators:
`arglog query` then compares the very functions that its `--semantics dist`
and `--semantics arg` print, and `arglog check` compares one query's
`success_probability` per program with its shared report's. The lone query
hands that pass the kernel that its `world_traces` compiled, with its block
vectors, and the engine's world-set table, so the program is compiled, each
block evaluated and its worlds listed once. The pass keeps its own walk over
the worlds, its own instance matching and its own per-world models, and its
answer is the one it gives alone, as `check` calls it. Both routes weigh worlds
by `worlds.world_numerators`, so no comparison of the routes can catch a
defect in them; `weight_failures` checks them against the input instead.
`WorldTraces.failures`, `EquivalenceReport.failures` and `weight_failures`
phrase every failure that `arglog query`, `arglog worlds` and
`arglog check` report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterator, NamedTuple, Sequence

from .distribution import success_probability
from .limits import Caps
from .model import Atom, GroundProgram, Literal, ProbFact, Program, Rule
from .paa import PaaEngine
from .wfm import ThreeValuedModel, WellFoundedKernel, well_founded_model
from .worlds import WeightedWorlds, block_fact_vectors, block_width, world_lists


class WorldTrace(NamedTuple):
    """One world's view from both back ends, plus whether they agree."""

    world: frozenset[Atom]
    probability: Fraction
    model: ThreeValuedModel
    accepted_claims: frozenset[Literal]
    model_matches_claims: bool


class WorldTraces:
    """The per-world evaluation of a program, kept as block vectors: iterating
    it yields one `WorldTrace` per world, in mask order, built then and kept
    by no one.

    Per block it keeps the kernel's (true, false, undefined) vectors, the IN
    vectors that `world_traces` checked and its `mismatched_worlds` vector,
    with the engine's `world_sets` and each argument's claim. A block's IN
    vectors are transposed by `world_lists` once per iteration of the block.
    `kernel` is the `WellFoundedKernel` that evaluated the worlds, and
    `vectors` holds, per block, its (true, false, undefined) vectors over its
    `index`. `failures` phrases what the worlds showed wrong, one phrase per
    failed condition: a model that does not match its accepted claims, or an
    argument IN in a world that lacks its facts. Two `WorldTraces` are equal
    when their failures and their rows are.
    """

    def __init__(
        self,
        kernel: WellFoundedKernel,
        worlds: WeightedWorlds,
        claims: list[Literal],
        blocks: list[tuple[tuple[list[int], list[int], list[int]], list[int], int]],
        failures: list[str],
    ):
        self.kernel, self.failures = kernel, failures
        self._worlds, self._claims, self._blocks = worlds, claims, blocks

    @property
    def vectors(self) -> list[tuple[list[int], list[int], list[int]]]:
        return [vectors for vectors, _, _ in self._blocks]

    def __len__(self) -> int:
        lows, highs, _ = self._worlds
        return len(lows) * len(highs)

    def __iter__(self) -> Iterator[WorldTrace]:
        atoms, index = self.kernel.atoms, self.kernel.index
        lows, highs, denominator = self._worlds
        claims = [[claim] for claim in self._claims]
        for (high_set, high), (vectors, inside, mismatch) in zip(highs, self._blocks):
            accepted = world_lists(len(lows), inside, claims)
            for w, (low_set, low) in enumerate(lows):
                yield WorldTrace(
                    high_set | low_set,
                    Fraction(high * low, denominator),
                    ThreeValuedModel(atoms, index, vectors, w),
                    frozenset(accepted[w]),
                    not mismatch >> w & 1,
                )

    def __eq__(self, other):
        if isinstance(other, WorldTraces):
            return self.failures == other.failures and list(self) == list(other)
        return NotImplemented


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
    def failures(self) -> list[str]:
        """What the report found wrong, one phrase per failed condition."""
        failures = []
        if not self.probabilities_equal:
            failures.append("the back ends disagree")
        if not self.sum_bounds_success:
            failures.append("the argument sum does not bound the success probability")
        return failures + self.world_traces.failures

    @property
    def holds(self) -> bool:
        return not self.failures


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


def stray_worlds(inside: Sequence[int], applicable: Sequence[int]) -> int:
    """The worlds of a block, as a bit vector, where some argument is IN but
    not applicable: `inside[i]` and `applicable[i]` are argument i's IN and
    applicable vectors."""
    stray = 0
    for in_vector, applicable_vector in zip(inside, applicable, strict=True):
        stray |= in_vector & ~applicable_vector
    return stray


def world_traces(gp: GroundProgram, engine: PaaEngine) -> WorldTraces:
    """Evaluate every world (including zero-probability ones) on both routes.

    Worlds come a block at a time, in mask order, from the engine's
    `world_sets`, built on the first pass; each route evaluates each world
    once, a block of worlds at a time. Per block, the worlds whose model
    does not match their accepted claims are one `mismatched_worlds` vector,
    and those where an argument is IN without being applicable one
    `stray_worlds` vector, over the engine's `applicable_vectors`, the
    vectors that `applicable_indices` transposes. What the rows are built
    from is kept per block (see `WorldTraces`); no row is built here.
    """
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    claiming: list[tuple[list[int], list[int]]] = [([], []) for _ in kernel.atoms]
    for i, claim in enumerate(engine.claim_of):
        claiming[kernel.index[claim.atom]][claim.negated].append(i)
    lows, highs, _ = engine.world_sets
    blocks = []
    mismatches = strays = 0
    for block, ((high_set, _), inside) in enumerate(zip(highs, engine.in_vectors(), strict=True)):
        vectors = kernel.block_vectors(block)
        mismatch = mismatched_worlds(vectors[0], vectors[1], inside, claiming)
        mismatches |= mismatch
        strays |= stray_worlds(inside, engine.applicable_vectors(block))
        blocks.append((vectors, inside, mismatch))
        # Nothing reads these two per-world results. The benchmark's tracer
        # counts the calls (perfbench/tracing.py), and its test pins
        # wfm.calls == 8 and paa.distinct_frameworks == 4 on chain-1.
        for low_set, _ in lows:
            world = high_set | low_set
            well_founded_model(gp.rules, gp.herbrand_base, world, kernel)
            engine.applicable_indices(world)
    failures = []
    if mismatches:
        failures.append("a world's well-founded model does not match its accepted claims")
    if strays:
        failures.append(
            "a world's grounded extension accepts an argument whose facts the world lacks"
        )
    return WorldTraces(kernel, engine.world_sets, engine.claim_of, blocks, failures)


def check_query(
    query: Atom,
    gp: GroundProgram,
    caps: Caps = Caps(),
    engine: PaaEngine | None = None,
    traces: WorldTraces | None = None,
) -> EquivalenceReport:
    """Compare both back ends on one query; the report is the project's
    primary debugging instrument, so it carries the per-world trace, whose
    rows are built each time it is iterated.

    Given `traces`, what `world_traces` returned for this program and
    `engine` (as `check_program` passes them), no world is walked again,
    whatever the number of queries. The success probability is the mass at
    the OR of the true vectors of the engine's `instance_atoms`, and the
    grounded ones come from the engine's `query_masses`, which finds the
    arguments through its own claim index. On this path empty `failures` imply
    `probabilities_equal` and `sum_bounds_success`: the two sides share the
    instances and the numerators, and where every world matches, each
    instance's true vector is the OR of its claiming arguments' IN vectors.
    What they still test is the engine's claim index against the claims
    `world_traces` matched; the tests comparing shared and lone reports pin
    the rest of the arithmetic.

    Without `traces`, they are computed, and the success probability comes
    from `success_probability`, the distribution semantics' own pass over
    the worlds with its own instance matching, so a lone query checks the
    functions that answer each route on its own. That pass is handed the
    traces' `kernel` and `vectors` and the engine's `world_sets`, which
    `world_traces` has just used, instead of compiling, evaluating and
    listing them again; its answer is the same either way. Either way the
    grounded probability and the argument sum come from one `query_masses`
    pass, and `holds` reads the traces' `failures`.
    """
    if engine is None:
        engine = PaaEngine(gp, caps)
    if traces is None:
        traces = world_traces(gp, engine)
        success = success_probability(
            query, gp, kernel=traces.kernel, worlds=engine.world_sets, blocks=traces.vectors
        )
    else:
        rows = [traces.kernel.index[atom] for atom in engine.instance_atoms(query)]
        success = engine.mass(
            reduce(or_, [sure[k] for k in rows], 0) for sure, _, _ in traces.vectors
        )
    return EquivalenceReport(query, success, *engine.query_masses(query), world_traces=traces)


def world_weight(engine: PaaEngine) -> Fraction:
    """The mass of all the worlds, at the full vector of every block."""
    return engine.mass((1 << block_width(len(engine.gp.pfacts))) - 1 for _ in engine.numerators[1])


def weight_failures(engine: PaaEngine) -> list[str]:
    """What the input finds wrong with the world weights, one phrase per failure.

    Both routes weigh worlds alike, so only the input checks the weights:
    the worlds weigh 1 in total, their `world_weight`, and, as no rule head
    is a fact atom, each probabilistic fact weighs its declared probability,
    the mass at its fact vectors."""
    declared = {pf.atom: pf.prob for pf in engine.gp.pfacts}
    n = len(declared)
    vectors = [block_fact_vectors(n, block) for block in range(len(engine.numerators[1]))]
    failures = []
    total = world_weight(engine)
    if total != 1:
        failures.append(f"the worlds weigh {total} in total, not 1")
    for bit, atom in enumerate(sorted(declared)):
        mass = engine.mass(facts[bit] for facts in vectors)
        if mass != declared[atom]:
            failures.append(
                f"the declared probability {declared[atom]} of {atom} did not match its mass {mass}"
            )
    return failures


def check_program(
    gp: GroundProgram, caps: Caps = Caps(), engine: PaaEngine | None = None
) -> list[EquivalenceReport]:
    """One report per Herbrand atom, sharing a single per-world evaluation
    and one engine, built here unless given."""
    if engine is None:
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
