"""Cross-checking the two back ends against each other, query by query.

For every query the success probability computed from total choices and
well-founded models must equal, exactly, the probability of worlds whose
grounded extension accepts an argument for the query. The per-argument
probability sum upper-bounds both, strictly so when several distinct
derivations of the claim coexist in a world. The per-world trace records the
correspondence the equality rests on: true atoms of the well-founded model
are exactly the accepted atomic claims, false atoms exactly the atoms whose
negation-as-failure is an accepted claim.

`world_traces` evaluates every world once on each route. Its per-world
rows, which `arglog worlds`, `query --trace` and a counterexample's dump
print, are views of their block: a row keeps its model, its match bit and
its place in the block, and builds its world, its probability and its
accepted claims when they are read, the claims from one transposition of
the block's IN vectors. Per block, it also checks that no argument is IN in
a world that lacks its facts, and keeps the block's true vectors. A query
that shares those traces (as in `check_program`) is answered by masked sums
over the engine's cached block labellings: its success probability at the
OR of its instances' true vectors, its grounded ones, as on every path,
from the engine's `query_masses`. It walks no world. A lone query instead
takes its success probability from `success_probability`, the distribution
semantics' own pass over the worlds, which sums integer numerators:
`arglog query` then compares the very functions that its `--semantics dist`
and `--semantics arg` print, and `arglog check` compares one query's
`success_probability` per program with its shared report's. The lone query
hands that pass the kernel that its `world_traces` compiled and the
engine's world-set table, so the program is compiled and its worlds are
listed once. The pass keeps its own walk over the worlds, its own instance
matching and its own per-world models, and its answer is the one it gives
when it builds both itself, as `check` calls it. Both routes weigh worlds
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
from typing import Sequence

from .distribution import success_probability
from .limits import Caps
from .model import Atom, GroundProgram, Literal, ProbFact, Program, Rule
from .paa import PaaEngine
from .wfm import ThreeValuedModel, WellFoundedKernel, well_founded_model
from .worlds import block_fact_vectors, block_width, world_lists


@dataclass(eq=False)
class _Block:
    """What the rows of one block share: its high set and numerator, the low
    (set, numerator) pairs and denominator of the engine's `world_sets`, each
    argument's claim (a one-item list) and IN vector, and `kept`, shared by
    all blocks."""

    high_set: frozenset[Atom]
    high: int
    lows: list[tuple[frozenset[Atom], int]]
    denominator: int
    claims: list[list[Literal]]
    inside: list[int]
    kept: list

    @property
    def in_claims(self) -> list[list[Literal]]:
        """Per world, the claims IN there; `kept` holds the last block's alone."""
        if self.kept[0] is not self.inside:
            self.kept[:] = self.inside, world_lists(len(self.lows), self.inside, self.claims)
        return self.kept[1]


class WorldTrace:
    """One world's view from both back ends, plus whether they agree.

    A row is a view of its block of worlds, as its `ThreeValuedModel` is: it
    keeps the model, whether they agree, the block and the world's place `w`
    in it. `world`, `probability` (one `Fraction`) and `accepted_claims`
    (read in the block's transposed IN vectors) are built each time they
    are read. A row compares, hashes and pickles as its five `_fields`.
    """

    __slots__ = ("model", "model_matches_claims", "_block", "_w")
    _fields = ("world", "probability", "model", "accepted_claims", "model_matches_claims")

    def __init__(self, model: ThreeValuedModel, model_matches_claims: bool, block: _Block, w: int):
        self.model, self.model_matches_claims = model, model_matches_claims
        self._block, self._w = block, w

    @property
    def world(self) -> frozenset[Atom]:
        return self._block.high_set | self._block.lows[self._w][0]

    @property
    def probability(self) -> Fraction:
        return Fraction(self._block.high * self._block.lows[self._w][1], self._block.denominator)

    @property
    def accepted_claims(self) -> frozenset[Literal]:
        return frozenset(self._block.in_claims[self._w])

    def _key(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if isinstance(other, (WorldTrace, tuple)):
            return self._key() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __iter__(self):
        return iter(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"


class WorldTraces(tuple):
    """The `WorldTrace` rows of every world, in mask order, and what a query
    is answered from without walking them.

    `kernel` is the `WellFoundedKernel` that evaluated the worlds, and
    `true_vectors` holds, per block of worlds, its true vector per atom,
    numbered by its `index`. `failures` phrases what the worlds showed
    wrong, one phrase per failed condition: a model that does not match its
    accepted claims, or an argument IN in a world that lacks its facts.
    """

    kernel: WellFoundedKernel
    true_vectors: list[list[int]]
    failures: list[str]


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
    vectors that `applicable_indices` transposes. Per world, the row is a
    view of the block (see `WorldTrace`) holding the world's well-founded
    model. The kernel and its true vectors are kept with the rows (see
    `WorldTraces`).
    """
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    claiming: list[tuple[list[int], list[int]]] = [([], []) for _ in kernel.atoms]
    for i, claim in enumerate(engine.claim_of):
        claiming[kernel.index[claim.atom]][claim.negated].append(i)
    lows, highs, denominator = engine.world_sets
    claims = [[claim] for claim in engine.claim_of]
    rows, true_vectors, kept = [], [], [None, None]
    mismatches = strays = 0
    blocks = zip(highs, engine.in_vectors(), strict=True)
    for block, ((high_set, high), inside) in enumerate(blocks):
        sure, false, _ = kernel.block_vectors(block)
        true_vectors.append(sure)
        mismatch = mismatched_worlds(sure, false, inside, claiming)
        mismatches |= mismatch
        strays |= stray_worlds(inside, engine.applicable_vectors(block))
        shared = _Block(high_set, high, lows, denominator, claims, inside, kept)
        for w, (low_set, _) in enumerate(lows):
            world = high_set | low_set
            model = well_founded_model(gp.rules, gp.herbrand_base, world, kernel)
            # the world's framework, which the benchmark's tracer counts
            # (perfbench/tracing.py); the check above reads the vectors
            engine.applicable_indices(world)
            rows.append(WorldTrace(model, not mismatch >> w & 1, shared, w))
    traces = WorldTraces(rows)
    traces.kernel, traces.true_vectors, traces.failures = kernel, true_vectors, []
    if mismatches:
        traces.failures.append("a world's well-founded model does not match its accepted claims")
    if strays:
        traces.failures.append(
            "a world's grounded extension accepts an argument whose facts the world lacks"
        )
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
    traces' `kernel` and the engine's `world_sets`, which `world_traces`
    has just used, instead of compiling and listing them again; its answer
    is the same either way. Either way the grounded probability and the
    argument sum come from one `query_masses` pass, and `holds` reads the
    traces' `failures`.
    """
    if engine is None:
        engine = PaaEngine(gp, caps)
    if traces is None:
        traces = world_traces(gp, engine)
        success = success_probability(query, gp, kernel=traces.kernel, worlds=engine.world_sets)
    else:
        rows = [traces.kernel.index[atom] for atom in engine.instance_atoms(query)]
        success = engine.mass(
            reduce(or_, [sure[k] for k in rows], 0) for sure in traces.true_vectors
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
