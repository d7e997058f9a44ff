"""The compiled kernels against plain reference implementations, the shared
world enumeration and its blocks, and the one-evaluation-per-world contract."""

import ast
import re
from collections import defaultdict
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arglog.aba as aba_module
import arglog.cli as cli_module
import arglog.distribution as distribution_module
import arglog.equivalence as equivalence_module
import arglog.paa as paa_module
import arglog.wfm as wfm_module
import arglog.worlds as worlds_module
from arglog import (
    Atom,
    CapExceeded,
    PaaEngine,
    Program,
    check_program,
    check_query,
    ground,
    parse_program,
    random_program,
)
from arglog.aba import (
    Argument,
    argument_sort_key,
    argument_table,
    build_problog_aba,
    compute_attacks,
    enumerate_arguments,
)
from arglog.cli import main
from arglog.distribution import success_probability, total_choices
from arglog.equivalence import EquivalenceReport, mismatched_worlds, world_traces
from arglog.model import Literal, ProbFact, Rule
from arglog.semantics import grounded_block, grounded_extension_of
from arglog.wfm import ThreeValuedModel, WellFoundedKernel, succeeds, well_founded_model
from arglog.worlds import (
    block_bits,
    block_fact_vectors,
    fact_bits,
    world_mask,
    world_numerators,
    world_probability,
    world_table,
)

from conftest import FIXTURES, chain_source, load_fixture

SRC = Path(__file__).resolve().parent.parent / "src" / "arglog"

# --- grounded labelling ---


def defense_fixpoint(active, attacks):
    """Reference: least fixpoint of the defense function, by iteration. An
    argument is defended when each of its active attackers has an attacker
    in the extension."""
    attackers = {i: set() for i in active}
    for s, t in attacks:
        if s in active and t in active:
            attackers[t].add(s)
    extension = set()
    while True:
        defended = {
            i for i in active if all(attackers[a] & extension for a in attackers[i])
        }
        if defended == extension:
            return frozenset(extension)
        extension = defended


@st.composite
def restricted_frameworks(draw):
    n = draw(st.integers(0, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    attacks = draw(st.frozensets(pairs, max_size=3 * n))
    active = draw(st.frozensets(st.integers(0, n - 1), max_size=n)) if n else frozenset()
    return n, attacks, active


@settings(max_examples=300, deadline=None)
@given(restricted_frameworks())
def test_linear_labelling_matches_the_defense_fixpoint(framework):
    n, attacks, active = framework
    attackers = [[s for s, t in sorted(attacks) if t == i] for i in range(n)]
    expected = defense_fixpoint(active, attacks)
    assert grounded_extension_of(active, attackers) == expected
    assert grounded_extension_of(list(active), dict(enumerate(attackers))) == expected


@st.composite
def grouped_frameworks_with_fact_needs(draw):
    """Arguments in groups, each attacked by whole groups, and each needing
    some of k facts."""
    n = draw(st.integers(0, 8))
    groups = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    attacked_by = draw(
        st.lists(st.frozensets(st.integers(0, max(n - 1, 0)), max_size=3), min_size=n, max_size=n)
    )
    k = draw(st.integers(0, 4))
    needs = draw(st.lists(st.integers(0, 2**k - 1), min_size=n, max_size=n))
    return n, groups, [sorted(g) for g in attacked_by], k, needs


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@settings(max_examples=200, deadline=None)
@given(grouped_frameworks_with_fact_needs())
def test_block_labelling_matches_the_defense_fixpoint_in_every_world(bits, framework):
    n, groups, attacked_by, k, needs = framework
    attacks = {(i, j) for j in range(n) for i in range(n) if groups[i] in attacked_by[j]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worlds_module, "BLOCK_BITS", bits)
        b = block_bits(k)
        for block in range(2 ** (k - b)):
            vectors = block_fact_vectors(k, block)
            active = []
            for need in needs:
                vector = 2 ** 2**b - 1
                for i in range(k):
                    if need >> i & 1:
                        vector &= vectors[i]
                active.append(vector)
            inside = grounded_block(active, groups, attacked_by)
            for w in range(2**b):
                mask = (block << b) + w
                world_active = {i for i, need in enumerate(needs) if need & mask == need}
                accepted = {i for i in range(n) if inside[i] >> w & 1}
                assert accepted == defense_fixpoint(world_active, attacks), mask


# --- well-founded model ---


def reference_wfm(rules, base):
    """Reference: Van Gelder's alternating fixpoint over rule objects."""

    def least_model_of_reduct(against):
        derived = set()
        changed = True
        while changed:
            changed = False
            for rule in rules:
                if rule.head in derived:
                    continue
                if all(
                    (lit.atom not in against) if lit.negated else (lit.atom in derived)
                    for lit in rule.body
                ):
                    derived.add(rule.head)
                    changed = True
        return derived

    sure, possible = set(), set(base)
    while True:
        next_sure = least_model_of_reduct(possible)
        next_possible = least_model_of_reduct(next_sure)
        if (next_sure, next_possible) == (sure, possible):
            return sure, set(base) - possible, possible - sure
        sure, possible = next_sure, next_possible


ATOMS = [Atom(ch) for ch in "abcdef"]
literals = st.builds(Literal, st.sampled_from(ATOMS), st.booleans())
rules = st.builds(
    Rule, st.sampled_from(ATOMS), st.lists(literals, max_size=3).map(tuple)
)


@settings(max_examples=300, deadline=None)
@given(st.frozensets(rules, max_size=10), st.frozensets(st.sampled_from(ATOMS), max_size=3))
def test_int_kernel_matches_the_reference_alternating_fixpoint(program, facts):
    base = frozenset(ATOMS)
    model = well_founded_model(program, base)
    assert (model.true_atoms, model.false_atoms, model.undefined_atoms) == tuple(
        map(frozenset, reference_wfm(program, base))
    )
    # facts chosen in a compiled program act as bodyless rules
    kernel = WellFoundedKernel(program, base, facts)
    with_facts = kernel.model(facts)
    assert with_facts == well_founded_model(program | {Rule(a) for a in facts}, base)
    assert with_facts == well_founded_model(program, base, facts)
    assert with_facts == well_founded_model(program, base, facts, kernel)


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(rules, max_size=10),
    st.lists(st.sampled_from(ATOMS), max_size=4, unique=True),
    st.data(),
)
def test_block_kernel_matches_the_reference_in_every_world(bits, program, choices, data):
    base = frozenset(ATOMS)
    choices = sorted(choices)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worlds_module, "BLOCK_BITS", bits)
        kernel = WellFoundedKernel(program, base, choices)
        # any order, so that blocks are left and evaluated again
        for mask in data.draw(st.permutations(range(2 ** len(choices)))):
            chosen = {atom for i, atom in enumerate(choices) if mask >> i & 1}
            model = kernel.model(chosen)
            expected = reference_wfm(program | {Rule(atom) for atom in chosen}, base)
            expected = tuple(map(frozenset, expected))
            # the model is a view: truth is read off a bit before any set is built
            assert [model.is_true(atom) for atom in ATOMS] == [a in expected[0] for a in ATOMS]
            sections = (model.true_atoms, model.false_atoms, model.undefined_atoms)
            assert sections == expected, mask
            assert model.is_two_valued == (not expected[2])
            assert frozenset().union(*sections) == base
            assert sum(map(len, sections)) == len(base)


# --- models as views of block vectors, and the per-block correspondence ---

HEADS = [Atom(ch) for ch in "abcd"]
CHOICES = [Atom(ch) for ch in "efg"]
view_rules = st.builds(
    Rule,
    st.sampled_from(HEADS),
    st.lists(st.builds(Literal, st.sampled_from(HEADS + CHOICES), st.booleans()), max_size=3).map(
        tuple
    ),
)


@st.composite
def probabilistic_programs(draw):
    """Rules over a..d, probabilistic facts on some of e..g."""
    rules = draw(st.frozensets(view_rules, max_size=8))
    chosen = draw(st.lists(st.sampled_from(CHOICES), unique=True, max_size=3))
    pfacts = frozenset(ProbFact(Fraction(draw(st.integers(0, 4)), 4), atom) for atom in chosen)
    return Program(rules, pfacts)


def reference_world_models(gp):
    """Per world, in mask order: the world and the reference model's
    (true, false, undefined) sets."""
    choices = sorted(gp.fact_atoms)
    for mask in range(2 ** len(choices)):
        world = frozenset(atom for i, atom in enumerate(choices) if mask >> i & 1)
        facts = {Rule(atom) for atom in world}
        yield world, tuple(map(frozenset, reference_wfm(gp.rules | facts, gp.herbrand_base)))


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@settings(max_examples=150, deadline=None)
@given(probabilistic_programs())
def test_views_of_two_kernels_compare_and_hash_as_their_sets(bits, program):
    gp = ground(program)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worlds_module, "BLOCK_BITS", bits)
        kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
        twin = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
        width = 2 ** block_bits(len(gp.pfacts))
        for mask, (world, expected) in enumerate(reference_world_models(gp)):
            # views compared before their sets are read, either way round
            assert kernel.model(world) == twin.model(world)
            assert twin.model(world) == kernel.model(world)
            view = kernel.model(world)
            assert (view.true_atoms, view.false_atoms, view.undefined_atoms) == expected
            # the hash a frozen dataclass of the three sets would have; one
            # view is hashed before its sets are read
            assert hash(twin.model(world)) == hash(view) == hash(expected)
            # equal frozensets may iterate in different orders, so the text
            # is compared with the view's own sets
            assert repr(view) == (
                "ThreeValuedModel(true_atoms={!r}, false_atoms={!r}, undefined_atoms={!r})"
            ).format(view.true_atoms, view.false_atoms, view.undefined_atoms)
            assert {view: world}[twin.model(world)] == world
            # the same true atoms, with the undefined ones made false
            sure, false, undefined = kernel.block_vectors(mask // width)
            decided = [f | u for f, u in zip(false, undefined)]
            other = ThreeValuedModel(
                kernel.atoms, kernel.index, (sure, decided, [0] * len(sure)), mask % width
            )
            assert other.true_atoms == expected[0]
            assert (kernel.model(world) != other) == bool(expected[2])


def test_the_answer_path_reads_bits_and_builds_no_atom_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("a model's atom set was built")

    gp = ground(parse_program(chain_source(2)))
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    monkeypatch.setattr(wfm_module, "compress", refuse)
    models = [kernel.model(world) for world, _ in world_table(gp.pfacts)]
    # bits 0 and 1 are x1 and x2, and a2 is true exactly when both are chosen
    assert [succeeds(model, Atom("a2")) for model in models] == [m & 3 == 3 for m in range(16)]
    reports = check_program(gp)
    assert reports and all(report.holds for report in reports)
    with pytest.raises(AssertionError, match="atom set was built"):
        models[0].true_atoms


@pytest.mark.parametrize("outsider", [Atom("c"), Atom("zz")])
def test_both_routes_refuse_a_world_holding_an_atom_that_is_no_probabilistic_fact(outsider):
    """c is an atom of the program and zz is not; neither is a choice."""
    gp = ground(parse_program("0.5::a.\n0.5::b.\nc :- a.\n"))
    engine = PaaEngine(gp)
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    world = frozenset({Atom("b"), outsider})
    with pytest.raises(KeyError) as arguments:
        engine.applicable_indices(world)
    with pytest.raises(KeyError) as models:
        well_founded_model(gp.rules, gp.herbrand_base, world, kernel)
    assert str(arguments.value) == str(models.value)
    assert str(models.value) == repr(f"{outsider} is not a probabilistic fact of this program")


def accepted_claim_sets(engine, inside, w):
    """The reference's side of the correspondence in world w of a block:
    the atoms of the accepted atomic claims and of the accepted negated ones."""
    claims = [arg.claim for i, arg in enumerate(engine.arguments) if inside[i] >> w & 1]
    return (
        frozenset(c.atom for c in claims if not c.negated),
        frozenset(c.atom for c in claims if c.negated),
    )


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:degenerate framework")
@given(probabilistic_programs(), st.data())
def test_mismatch_vector_flags_the_worlds_the_set_comparison_flags(bits, program, data):
    gp = ground(program)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(worlds_module, "BLOCK_BITS", bits)
        engine = PaaEngine(gp)
        kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
        claiming = [([], []) for _ in kernel.atoms]
        for i, arg in enumerate(engine.arguments):
            claiming[kernel.index[arg.claim.atom]][arg.claim.negated].append(i)
        width = 2 ** block_bits(len(gp.pfacts))
        models = [expected for _, expected in reference_world_models(gp)]
        for block, inside in enumerate(engine.in_vectors()):
            sure, false, _ = kernel.block_vectors(block)
            in_block = models[block * width : (block + 1) * width]

            def reference(inside):
                # the per-world set comparison world_traces made before
                return sum(
                    (model[:2] != accepted_claim_sets(engine, inside, w)) << w
                    for w, model in enumerate(in_block)
                )

            assert mismatched_worlds(sure, false, inside, claiming) == reference(inside) == 0
            if not engine.arguments:
                continue
            i = data.draw(st.integers(0, len(engine.arguments) - 1))
            w = data.draw(st.integers(0, len(in_block) - 1))
            flipped = list(inside)
            flipped[i] ^= 1 << w
            before, after = (accepted_claim_sets(engine, v, w) for v in (inside, flipped))
            changed = before != after
            assert mismatched_worlds(sure, false, flipped, claiming) == reference(flipped)
            assert reference(flipped) == (changed << w)


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_world_traces_flag_exactly_the_world_whose_in_bit_flipped(bits, monkeypatch):
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    gp = ground(parse_program(chain_source(3)))
    width = 2 ** block_bits(len(gp.pfacts))
    atoms = sorted(gp.herbrand_base)
    for mask in (0, 5, 37, 63):
        engine = PaaEngine(gp)
        # the one argument claiming x1, so that its IN bit decides the claim
        (x1,) = engine.query_argument_indices(Atom("x1"))
        vectors = [list(inside) for inside in engine.in_vectors()]
        vectors[mask // width][x1] ^= 1 << mask % width
        engine.in_vectors = lambda: vectors
        traces = world_traces(gp, engine)
        assert [not t.model_matches_claims for t in traces] == [m == mask for m in range(64)]
        reports = [check_query(atom, gp, engine=engine, traces=traces) for atom in atoms]
        assert not any(report.holds for report in reports)
    engine = PaaEngine(gp)
    traces = world_traces(gp, engine)
    assert all(check_query(atom, gp, engine=engine, traces=traces).holds for atom in atoms)


# --- argument saturation ---


def reference_arguments(framework):
    """Reference: semi-naive saturation over Argument triples, trying every
    combination of already-found body arguments with itertools.product."""
    found = set()
    by_claim = defaultdict(list)

    def add(arg):
        if arg in found:
            return False
        found.add(arg)
        by_claim[arg.claim].append(arg)
        return True

    frontier = []
    for assumption in sorted(framework.assumptions):
        arg = Argument(frozenset({assumption}), assumption, frozenset())
        if add(arg):
            frontier.append(arg)
    rules_with_body = []
    for rule in sorted(framework.rules):
        if rule.is_fact:
            arg = Argument(frozenset(), Literal(rule.head), frozenset({rule}))
            if add(arg):
                frontier.append(arg)
        else:
            rules_with_body.append(rule)

    while frontier:
        frontier_set = frozenset(frontier)
        candidates = {claim: tuple(args) for claim, args in by_claim.items()}
        next_frontier = []
        for rule in rules_with_body:
            pools = [candidates.get(lit, ()) for lit in rule.body]
            if any(not pool for pool in pools):
                continue
            for combo in product(*pools):
                if frontier_set.isdisjoint(combo):
                    continue
                support = frozenset().union(*(sub.assumptions for sub in combo))
                used = frozenset({rule}).union(*(sub.rules_used for sub in combo))
                arg = Argument(support, Literal(rule.head), used)
                if add(arg):
                    next_frontier.append(arg)
        frontier = next_frontier
    return frozenset(found)


@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_saturation_matches_the_reference_on_the_seeded_corpus():
    for seed in range(200):
        framework = build_problog_aba(ground(random_program(seed)))
        assert enumerate_arguments(framework) == reference_arguments(framework), seed


# repeated body literals, such as a :- a, a, \+ a, are what the join dedupes;
# d is a probabilistic fact, so it is never a head; e is neither a head nor a
# fact, so a rule whose body holds e never fires
body_literals = st.builds(Literal, st.sampled_from(ATOMS[:5]), st.booleans())
repeating_rules = st.builds(
    Rule, st.sampled_from(ATOMS[:3]), st.lists(body_literals, max_size=4).map(tuple)
)


@settings(max_examples=200, deadline=None)
@given(st.frozensets(repeating_rules, max_size=6))
def test_saturation_matches_the_reference_with_repeated_body_literals(program):
    pfacts = frozenset({ProbFact(Fraction(1, 2), Atom("d"))})
    framework = build_problog_aba(ground(Program(program, pfacts)))
    assert enumerate_arguments(framework) == reference_arguments(framework)


def test_argument_cap_refuses_exactly_past_the_argument_count():
    framework = build_problog_aba(ground(random_program(18)))
    assert len(enumerate_arguments(framework, max_arguments=243)) == 243
    with pytest.raises(
        CapExceeded, match=r"^argument saturation reached 243 arguments, past the cap of 242$"
    ):
        enumerate_arguments(framework, max_arguments=242)


def test_argument_table_saturates_once(monkeypatch):
    # seed 608's b :- b, b, not c joins sides of 146 and 373 unions, whose
    # product is more than half the default cap
    framework = build_problog_aba(ground(random_program(608)))
    saturate, calls = aba_module._saturate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return saturate(*args, **kwargs)

    monkeypatch.setattr(aba_module, "_saturate", counted)
    table = argument_table(framework)
    assert len(calls) == 1
    assert table.arguments == tuple(sorted(naive_arguments(framework), key=argument_sort_key))


REFUSAL = re.compile(
    r"argument saturation (?:reached (\d+) arguments|held (\d+) partial unions in the "
    r"join of rule '[^']*'), past the cap of (\d+)"
)


def cap_sweep_failures(framework):
    """What goes wrong when `argument_table` runs at every cap from 0 to the
    argument count + 1, one phrase per failure. Each outcome must be the
    default cap's masks or a `max_arguments` refusal naming a count above
    its cap, and the caps that give a table one range up to the top."""
    masks = argument_table(framework).masks
    top, failures, accepted = len(masks) + 1, [], []
    for cap in range(top + 1):
        try:
            table = argument_table(framework, cap)
        except CapExceeded as refusal:
            match = REFUSAL.fullmatch(str(refusal))
            if refusal.cap != "max_arguments" or match is None:
                failures.append(f"cap {cap}: refused with {refusal}")
            elif int(match[3]) != cap or int(match[1] or match[2]) <= cap:
                failures.append(f"cap {cap}: {refusal}")
            continue
        if table.masks != masks:
            failures.append(f"cap {cap}: a table other than the default cap's")
        accepted.append(cap)
    if accepted != list(range(top + 1 - len(accepted), top + 1)):
        failures.append(f"the caps giving a table, {accepted}, are no range up to {top}")
    return failures


@pytest.mark.parametrize(
    "name",
    # the seeds of 0..999 where folding merges partial unions that a join's
    # refusal counts, and the ladder's rungs
    [f"random{seed}" for seed in (49, 102, 515, 608)] + [f"chain{n}" for n in range(1, 6)],
)
def test_every_cap_gives_the_table_or_a_refusal_past_it(name):
    if name.startswith("random"):
        gp = ground(random_program(int(name.removeprefix("random"))))
    else:
        gp = ground(parse_program(chain_source(int(name.removeprefix("chain")))))
    assert cap_sweep_failures(build_problog_aba(gp)) == []


# --- the argumentation route on ints ---


def table_programs():
    """The seeded corpus' ground programs, seeds 0..399."""
    for seed in range(400):
        yield seed, ground(random_program(seed))


@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_mask_keyed_order_is_the_canonical_order_on_the_seeded_corpus():
    for seed, gp in table_programs():
        framework = build_problog_aba(gp)
        table = argument_table(framework)
        assert table.arguments == tuple(
            sorted(enumerate_arguments(framework), key=argument_sort_key)
        ), seed


@settings(max_examples=200, deadline=None)
@given(st.frozensets(repeating_rules, max_size=6))
def test_mask_keyed_order_is_the_canonical_order_with_repeated_body_literals(program):
    pfacts = frozenset({ProbFact(Fraction(1, 2), Atom("d"))})
    framework = build_problog_aba(ground(Program(program, pfacts)))
    table = argument_table(framework)
    assert table.arguments == tuple(sorted(reference_arguments(framework), key=argument_sort_key))


@pytest.mark.parametrize(
    "name",
    ["random18", "random19", "random102", "random162"]
    + [f"chain{n}" for n in range(1, 6)]
    + ["reach"],
)
def test_the_table_is_the_sorted_reference_on_the_heaviest_programs(name):
    # the corpus' four slowest tables, the ladder's rungs and a Datalog program
    if name.startswith("random"):
        gp = ground(random_program(int(name.removeprefix("random"))))
    elif name.startswith("chain"):
        gp = ground(parse_program(chain_source(int(name.removeprefix("chain")))))
    else:
        gp = load_fixture("reach.pl")
    framework = build_problog_aba(gp)
    table = argument_table(framework)
    assert table.arguments == tuple(sorted(reference_arguments(framework), key=argument_sort_key))


def naive_arguments(framework):
    """Reference: naive saturation over Argument triples. Every round joins
    each rule's whole body over all arguments found so far, keeping the
    distinct (assumptions, rules) unions per position; no round is skipped
    and no body position either. The unions stay few where the combinations
    of a long body do not, which `reference_arguments` would enumerate."""
    found = {
        Argument(frozenset({assumption}), assumption, frozenset())
        for assumption in framework.assumptions
    }
    found |= {
        Argument(frozenset(), Literal(rule.head), frozenset({rule}))
        for rule in framework.rules
        if rule.is_fact
    }
    while True:
        by_claim = defaultdict(list)
        for arg in found:
            by_claim[arg.claim].append(arg)
        derived = set()
        for rule in framework.rules:
            partial = {(frozenset(), frozenset({rule}))}
            for lit in rule.body:
                partial = {
                    (support | sub.assumptions, used | sub.rules_used)
                    for support, used in partial
                    for sub in by_claim[lit]
                }
            derived |= {Argument(support, Literal(rule.head), used) for support, used in partial}
        if derived <= found:
            return frozenset(found)
        found |= derived


# bodies of up to six literals over two claims, such as b :- c, a, c, c, a;
# a join at each distinct claim's first occurrence must find every argument
two_claim_bodies = st.tuples(body_literals, body_literals).flatmap(
    lambda pair: st.lists(st.sampled_from(pair), max_size=6).map(tuple)
)
two_claim_rules = st.builds(Rule, st.sampled_from(ATOMS[:3]), two_claim_bodies)


@settings(max_examples=200, deadline=None)
@given(st.frozensets(two_claim_rules | repeating_rules, max_size=5))
def test_the_table_is_the_naive_reference_with_bodies_repeating_two_claims(program):
    pfacts = frozenset({ProbFact(Fraction(1, 2), Atom("d"))})
    framework = build_problog_aba(ground(Program(program, pfacts)))
    table = argument_table(framework)
    assert table.arguments == tuple(sorted(naive_arguments(framework), key=argument_sort_key))


def assert_rows_decode_their_arguments(framework):
    """Each row of the table against its argument: the per-mask decode must
    give the row's own claim, contraries and fact mask."""
    table = argument_table(framework)
    sentences = sorted(Literal(a, neg) for a in framework.herbrand_base for neg in (False, True))
    number = {sentence: n for n, sentence in enumerate(sentences)}
    bits = fact_bits(framework.fact_assumptions)
    for i, arg in enumerate(table.arguments):
        naf = sorted(a for a in arg.assumptions if a.negated)
        assert table.claims[i] == number[arg.claim]
        assert table.contraries[i] == tuple(number[framework.contrary_of(a)] for a in naf)
        assert table.fact_masks[i] == world_mask(bits, arg.fact_support)


@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_table_rows_decode_their_arguments_on_the_seeded_corpus():
    for _, gp in table_programs():
        assert_rows_decode_their_arguments(build_problog_aba(gp))


@settings(max_examples=200, deadline=None)
@given(st.frozensets(repeating_rules, max_size=6))
def test_table_rows_decode_their_arguments_with_repeated_body_literals(program):
    pfacts = frozenset({ProbFact(Fraction(1, 2), Atom("d"))})
    assert_rows_decode_their_arguments(build_problog_aba(ground(Program(program, pfacts))))


def test_the_query_path_builds_no_argument_triples(capsys, monkeypatch, tmp_path):
    """Inference reads the table's ints; only what lists arguments decodes them."""
    gp = ground(parse_program(chain_source(2)))
    engine = PaaEngine(gp)
    traces = world_traces(gp, engine)
    for atom in sorted(gp.herbrand_base):
        check_query(atom, gp, engine=engine, traces=traces)
    check_query(Atom("a2"), gp, engine=engine)
    assert "arguments" not in vars(engine._table)
    engine.grounded_prob_argument(PaaEngine(gp).arguments[0])
    assert "arguments" in vars(engine._table)

    engines = []

    class Recorded(PaaEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(cli_module, "PaaEngine", Recorded)
    program = tmp_path / "chain2.pl"
    program.write_text(chain_source(2), encoding="utf-8")
    for argv, decoded in (
        (["worlds", str(program)], False),
        (["query", str(program), "--query", "a2", "--trace"], False),
        (["show", str(program)], True),
    ):
        assert main(argv) == 0
        assert ("arguments" in vars(engines[-1]._table)) is decoded, argv[0]
    capsys.readouterr()
    engine = PaaEngine(gp)
    assert engine.aaf.arguments and "arguments" in vars(engine._table)


def assert_factored_labelling_matches_the_pairs(gp):
    """Every world's accepted set, labelled over claim groups, against the
    defense fixpoint over the expanded attack pairs."""
    engine = PaaEngine(gp)
    attacks = compute_attacks(engine.framework, engine.arguments)
    expected = {}
    for world, _, accepted in reference_evaluations(engine):
        active = frozenset(
            i for i, arg in enumerate(engine.arguments) if arg.fact_support <= world
        )
        if active not in expected:
            expected[active] = defense_fixpoint(active, attacks)
        assert accepted == expected[active], sorted(world)


@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_factored_labelling_matches_the_attack_pairs_on_the_seeded_corpus():
    for seed, gp in table_programs():
        try:
            assert_factored_labelling_matches_the_pairs(gp)
        except AssertionError as failure:
            raise AssertionError(f"seed {seed}: {failure}") from None


@settings(max_examples=200, deadline=None)
@given(st.frozensets(repeating_rules, max_size=6))
def test_factored_labelling_matches_the_attack_pairs_with_repeated_body_literals(program):
    pfacts = frozenset({ProbFact(Fraction(1, 2), Atom("d"))})
    assert_factored_labelling_matches_the_pairs(ground(Program(program, pfacts)))


def reference_probabilities(engine, atom):
    """Reference: the query probability and the per-argument sum as
    per-world `Fraction` sums over the engine's accepted sets."""
    claiming = engine.query_argument_indices(atom)
    query = argument_sum = Fraction(0)
    for _, prob, accepted in reference_evaluations(engine):
        if not claiming.isdisjoint(accepted):
            query += prob
        argument_sum += prob * len(claiming & accepted)
    return query, argument_sum


CERTAIN_AND_IMPOSSIBLE = """
0::a. 1::b. 0.3::c. 1/3::e. 1::f. 0::g.
q :- a. q :- b, \\+ c. q :- e.
r :- b, f. r :- \\+ q. s :- g, \\+ r. s :- c, e. t :- \\+ t, e.
"""


def uneven_chain(n):
    """chain-n with a different probability on each fact, so that no two
    blocks of worlds carry the same probabilities."""
    source = chain_source(n)
    for i in range(1, n + 1):
        source = source.replace(f"0.5::x{i}.", f"{i}/7::x{i}.")
        source = source.replace(f"0.5::y{i}.", f"{i}/9::y{i}.")
    return source


@pytest.mark.parametrize(
    "source",
    [CERTAIN_AND_IMPOSSIBLE, uneven_chain(6)]
    + [random_program(seed).to_source() for seed in (3, 5, 12, 41, 77)],
    ids=["certain-and-impossible", "chain-6", "seed3", "seed5", "seed12", "seed41", "seed77"],
)
def test_vector_probabilities_equal_per_world_fraction_sums(source):
    gp = ground(parse_program(source))
    engine = PaaEngine(gp)
    for atom in sorted(gp.herbrand_base):
        query, argument_sum = reference_probabilities(engine, atom)
        assert engine.grounded_prob_query(atom) == query, atom
        assert engine.argument_probability_sum(atom) == argument_sum, atom
    by_argument = [Fraction(0)] * len(engine.arguments)
    for _, prob, accepted in reference_evaluations(engine):
        for i in accepted:
            by_argument[i] += prob
    for arg, prob in zip(engine.arguments, by_argument):
        assert engine.grounded_prob_argument(arg) == prob, arg


def test_certain_and_impossible_facts_reach_both_ends_of_the_probabilities():
    gp = ground(parse_program(CERTAIN_AND_IMPOSSIBLE))
    probabilities = {p.prob for p in gp.pfacts}
    assert {Fraction(0), Fraction(1)} <= probabilities
    engine = PaaEngine(gp)
    assert engine.grounded_prob_query(Atom("r")) == 1
    assert engine.grounded_prob_query(Atom("a")) == 0
    assert engine.grounded_prob_query(Atom("q")) == 1 - Fraction(3, 10) * Fraction(2, 3)
    assert engine.grounded_prob_query(Atom("s")) == Fraction(3, 10) * Fraction(1, 3)


def test_the_query_path_never_builds_attack_pairs(monkeypatch):
    def refuse(framework, arguments):
        raise AssertionError("attack pairs were built")

    for module in (aba_module, paa_module):
        monkeypatch.setattr(module, "compute_attacks", refuse)
    gp = ground(parse_program(chain_source(2) + "d :- \\+ d.\n"))
    reports = check_program(gp)
    assert reports and all(report.holds for report in reports)
    with pytest.raises(AssertionError, match="attack pairs were built"):
        PaaEngine(gp).aaf


# --- world enumeration ---


ENUMERATION_PROGRAMS = {f"chain-{n}": chain_source(n) for n in range(1, 7)} | {
    path.stem: path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.pl"))
}


@pytest.mark.parametrize("source", ENUMERATION_PROGRAMS.values(), ids=ENUMERATION_PROGRAMS)
def test_world_probabilities_sum_to_exactly_one(source):
    gp = ground(parse_program(source))
    numbering = fact_bits(gp.fact_atoms)
    rows = world_table(gp.pfacts)
    assert [world_mask(numbering, world) for world, _ in rows] == list(range(2 ** len(gp.pfacts)))
    assert sum(prob for _, prob in rows) == 1


NUMERATOR_PROGRAMS = {
    "no-facts": "a.\n",
    "mixed": "0.1::a.\n1/3::b.\n0::c.\n1::d.\n0.75::e.\n",
    "zero-and-one": "0::a.\n1::b.\n0::c.\n",
}


@pytest.mark.parametrize("source", NUMERATOR_PROGRAMS.values(), ids=NUMERATOR_PROGRAMS)
@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_incremental_probabilities_equal_the_product_per_world(bits, source, monkeypatch):
    """The numerators are shared by both routes, so the cross-check cannot
    see a defect in them; the product per world can."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    pfacts = ground(parse_program(source)).pfacts
    atoms = sorted(pf.atom for pf in pfacts)
    b = block_bits(len(atoms))
    lows, highs, denominator = world_numerators(pfacts)
    assert (len(lows), len(highs)) == (2**b, 2 ** (len(atoms) - b))
    rows = world_table(pfacts)
    assert len(rows) == 2 ** len(atoms)
    for mask, (world, prob) in enumerate(rows):
        assert world == {atoms[i] for i in range(len(atoms)) if mask >> i & 1}
        expected = world_probability(world, pfacts)
        assert Fraction(highs[mask >> b] * lows[mask & (2**b - 1)], denominator) == expected
        assert prob == expected


def test_worlds_command_checks_the_sum_without_assert(capsys, monkeypatch):
    original = worlds_module.world_numerators

    def halved(*args):
        lows, highs, denominator = original(*args)
        return lows, highs, 2 * denominator

    for module in (worlds_module, paa_module):
        monkeypatch.setattr(module, "world_numerators", halved)
    assert main(["worlds", str(FIXTURES / "two_world.pl")]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert "total probability: 1/2 (0.5)" in err
    assert err.splitlines()[-1].startswith("FAIL: the worlds weigh 1/2 in total, not 1; ")


# --- one evaluation per world and route ---


def test_check_program_evaluates_each_world_once_per_route(monkeypatch):
    """Each route evaluates the 16 worlds of chain-2 in one block call, and
    the distribution route still asks for one model per world."""
    covered = {"wfm": [], "grounded": []}
    models = 0
    evaluate, model, grounded = (
        WellFoundedKernel._evaluate,
        WellFoundedKernel.model,
        paa_module.grounded_block,
    )

    def counting_evaluate(self, block):
        covered["wfm"].append(self._width)
        return evaluate(self, block)

    def counting_model(self, facts=()):
        nonlocal models
        models += 1
        return model(self, facts)

    def counting_grounded(active, groups, attacked_by):
        # a0's argument needs no fact, so it is active in every world covered
        covered["grounded"].append(max(vector.bit_length() for vector in active))
        return grounded(active, groups, attacked_by)

    monkeypatch.setattr(WellFoundedKernel, "_evaluate", counting_evaluate)
    monkeypatch.setattr(WellFoundedKernel, "model", counting_model)
    monkeypatch.setattr(paa_module, "grounded_block", counting_grounded)
    gp = ground(parse_program(chain_source(2)))
    reports = check_program(gp)
    assert len(gp.pfacts) == 4 and len(reports) == len(gp.herbrand_base) == 11
    assert covered == {"wfm": [2**4], "grounded": [2**4]}
    assert models == 2**4


def refuse_world_listings(monkeypatch, refuse):
    """Replace the world tables, `world_table` and the `weighted_worlds`
    that it and the per-world passes read, wherever a module binds them."""
    for module in (worlds_module, paa_module, distribution_module, equivalence_module):
        for name in ("world_table", "weighted_worlds"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_a_query_sharing_the_traces_walks_no_world(monkeypatch):
    """Once `world_traces` has run, a query sharing them builds no model, no
    world row and no labelling: it reads the vectors the traces kept and the
    engine's cached labellings."""

    def refuse(*args, **kwargs):
        raise AssertionError("a query walked the worlds")

    gp = ground(parse_program(chain_source(6)))
    engine = PaaEngine(gp)
    traces = world_traces(gp, engine)
    for name in ("model", "block_vectors"):
        monkeypatch.setattr(WellFoundedKernel, name, refuse)
    for name in ("worlds", "applicable_indices"):
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(paa_module, "grounded_block", refuse)
    refuse_world_listings(monkeypatch, refuse)
    report = check_query(Atom("a6"), gp, engine=engine, traces=traces)
    assert report.success_probability == report.grounded_query_probability == Fraction(1, 64)
    assert report.holds


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_world_rows_are_built_only_when_the_traces_are_listed(bits, monkeypatch):
    """Neither `world_traces` nor a lone `check_query` builds a
    `WorldTrace`; each listing of the traces builds one per world, and a
    second listing gives the same rows."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    built = []
    row = equivalence_module.WorldTrace

    def counting(*args):
        built.append(args)
        return row(*args)

    monkeypatch.setattr(equivalence_module, "WorldTrace", counting)
    gp = ground(parse_program(chain_source(3)))
    traces = world_traces(gp, PaaEngine(gp))
    report = check_query(Atom("a3"), gp)
    assert report.holds and not built
    rows = list(traces)
    assert len(rows) == len(built) == len(traces) == 2 ** len(gp.pfacts)
    assert list(traces) == rows and len(built) == 2 * len(rows)


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_the_world_weights_label_no_block(bits, monkeypatch):
    """The weights read the numerators alone; counting the blocks labels none."""

    def refuse(*args, **kwargs):
        raise AssertionError("a block was labelled")

    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    monkeypatch.setattr(paa_module, "grounded_block", refuse)
    engine = PaaEngine(ground(parse_program(chain_source(3))))
    assert equivalence_module.weight_failures(engine) == []


def test_an_argumentation_query_builds_no_world_table(monkeypatch):
    """`--semantics arg` reads the labelling and the numerators alone: no
    world row, no `frozenset` and no `Fraction` per world."""

    def refuse(*args, **kwargs):
        raise AssertionError("a world table was built")

    refuse_world_listings(monkeypatch, refuse)
    engine = PaaEngine(ground(parse_program(chain_source(6))))
    assert engine.grounded_prob_query(Atom("a6")) == Fraction(1, 64)
    assert engine.argument_probability_sum(Atom("a6")) == Fraction(1, 64)


def test_chain_6_spans_four_blocks_and_both_routes_give_one_64th():
    gp = ground(parse_program(chain_source(6)))
    assert 2 ** len(gp.pfacts) == 4 * 2**worlds_module.BLOCK_BITS
    report = check_query(Atom("a6"), gp)
    assert report.success_probability == report.grounded_query_probability == Fraction(1, 64)
    assert report.holds


# --- the lone query's per-world passes on ints ---


LONE_PROGRAMS = (
    [ground(random_program(seed)) for seed in range(400)]
    + [ground(parse_program(chain_source(n))) for n in range(1, 6)]
    + [load_fixture("reach.pl")]
)


def reference_evaluations(engine):
    """Reference: the rows of `world_table`, each with the world's applicable
    arguments whose IN bit is set in the world, tested one by one."""
    vectors, width = engine.in_vectors(), 2 ** block_bits(len(engine.gp.pfacts))
    for mask, (world, prob) in enumerate(world_table(engine.gp.pfacts)):
        inside, bit = vectors[mask // width], 1 << mask % width
        accepted = frozenset(i for i in engine.applicable_indices(world) if inside[i] & bit)
        yield world, prob, accepted


def reference_rows(engine):
    """The rows of `reference_evaluations`, with each accepted argument
    replaced by its claim, as a `WorldTrace` lists them."""
    for world, prob, accepted in reference_evaluations(engine):
        yield world, prob, frozenset(engine.claim_of[i] for i in accepted)


def trace_rows(gp, engine):
    """The (world, probability, accepted claims) of each `world_traces` row."""
    return [(t.world, t.probability, t.accepted_claims) for t in world_traces(gp, engine)]


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_evaluations_equal_the_per_argument_reference(bits, monkeypatch):
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    for gp in LONE_PROGRAMS:
        engine = PaaEngine(gp)
        assert trace_rows(gp, engine) == list(reference_rows(engine))


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_a_row_lists_an_in_bit_where_the_argument_is_not_applicable(bits, monkeypatch):
    """The row reads the IN vectors alone, so a stray IN bit shows in its
    accepted claims, where the per-argument reference drops it, and the
    traces fail on it. The rows read the vectors that `world_traces`
    checked, not the engine's when they are listed."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    gp = ground(parse_program(chain_source(3)))
    width = 2 ** block_bits(len(gp.pfacts))
    engine = PaaEngine(gp)
    # x1's one argument is applicable only where x1 (bit 0) is chosen
    (x1,) = engine.query_argument_indices(Atom("x1"))
    vectors = [list(inside) for inside in engine.in_vectors()]
    vectors[36 // width][x1] ^= 1 << 36 % width
    engine.in_vectors = lambda: vectors
    traces, expected = world_traces(gp, engine), list(reference_rows(engine))
    del engine.in_vectors
    rows = [(t.world, t.probability, t.accepted_claims) for t in traces]
    claim = Literal(Atom("x1"))
    assert claim in rows[36][2] and claim not in expected[36][2]
    assert rows[:36] + rows[37:] == expected[:36] + expected[37:]
    assert [not t.model_matches_claims for t in traces] == [m == 36 for m in range(64)]
    assert traces.failures == [
        "a world's well-founded model does not match its accepted claims",
        "a world's grounded extension accepts an argument whose facts the world lacks",
    ]


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_applicability_and_rows_follow_the_world_across_block_sizes(bits, monkeypatch):
    """Each world's applicable arguments are those whose facts it holds, and
    its row weighs what the world weighs and accepts the claims of the
    arguments IN there, whatever the block a world falls in."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    programs = [ground(random_program(seed)) for seed in range(200)]
    programs += [ground(parse_program(chain_source(n))) for n in range(1, 7)]
    for gp in programs:
        engine = PaaEngine(gp)
        numbering = fact_bits(gp.fact_atoms)
        needs = engine._table.fact_masks
        claims = [arg.claim for arg in engine.arguments]
        width = 2 ** block_bits(len(gp.pfacts))
        traces = world_traces(gp, engine)
        assert len(traces) == 2 ** len(gp.pfacts)
        for mask, row in enumerate(traces):
            assert world_mask(numbering, row.world) == mask
            applicable = frozenset(i for i, need in enumerate(needs) if need & mask == need)
            assert engine.applicable_indices(row.world) == applicable, (gp, mask)
            assert row.probability == world_probability(row.world, gp.pfacts)
            inside, w = engine.in_vectors()[mask // width], mask % width
            accepted = frozenset(c for c, vector in zip(claims, inside) if vector >> w & 1)
            assert row.accepted_claims == accepted, (gp, mask)
        assert not traces.failures


def claim_wide(active, claims, contraries):
    """A faulty labeller: the grounded labelling, then each argument IN
    wherever an argument with its claim is IN, whether the world holds its
    facts or not."""
    inside = grounded_block(active, claims, contraries)
    by_claim = defaultdict(int)
    for claim, vector in zip(claims, inside):
        by_claim[claim] |= vector
    return [by_claim[claim] for claim in claims]


def test_an_in_bit_where_the_world_lacks_the_facts_fails_query_and_check(
    capsys, monkeypatch, tmp_path
):
    """q's two arguments share their claim, so accepting the one whose fact
    the world lacks changes no accepted claim and no model: only the check
    against each world's applicable arguments sees it."""
    monkeypatch.setattr(paa_module, "grounded_block", claim_wide)
    program = tmp_path / "two_ways.pl"
    program.write_text("0.5::a.\n0.5::b.\nq :- a.\nq :- b.\n", encoding="utf-8")
    assert main(["query", str(program), "--query", "q"]) == 3
    err = capsys.readouterr().err
    assert "per-argument probability sum: 3/2 (1.5)" in err
    assert "FAIL: a world's grounded extension accepts an argument whose facts" in err
    assert main(["worlds", str(program)]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.splitlines()[-1] == (
        "FAIL: a world's grounded extension accepts an argument whose facts the world lacks"
    )
    dump = tmp_path / "counterexample.pl"
    assert main(["check", "--seed-range", "0..199", "--dump", str(dump)]) == 3
    headline = capsys.readouterr().err.splitlines()[0]
    assert "accepts an argument whose facts the world lacks" in headline


def reference_success(query, gp, worlds=None):
    """Reference: `Fraction` sums over `total_choices`, or over the first
    `worlds` of them, asking each `well_founded_model` view with
    `succeeds`, which matches the query against the model's true atoms."""
    kernel = WellFoundedKernel(gp.rules, gp.herbrand_base, gp.fact_atoms)
    total = Fraction(0)
    for choice, prob in islice(total_choices(gp.pfacts), worlds):
        if succeeds(well_founded_model(gp.rules, gp.herbrand_base, choice, kernel), query):
            total += prob
    return total


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_success_probability_equals_the_per_world_fraction_reference(bits, monkeypatch):
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    for gp in LONE_PROGRAMS:
        queries = sorted(gp.herbrand_base) + [Atom("zz")]
        if any(atom.args for atom in queries):
            # the Datalog program: non-ground queries, one with no instance
            queries += [Atom("q", ("X",)), Atom("e", ("X", "Y")), Atom("p", ("a", "X"))]
            queries += [Atom("e", ("X", "X")), Atom("zz", ("X",))]
        for query in queries:
            assert success_probability(query, gp) == reference_success(query, gp), query


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_a_lone_query_compiles_one_kernel_and_builds_one_world_table(bits, monkeypatch):
    """A lone `check_query` hands the kernel and the world-set table of its
    `world_traces` to `success_probability`, and answers and fails as a
    standalone `success_probability` and fresh traces do."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    built = defaultdict(int)
    compile_kernel, tabulate = WellFoundedKernel.__init__, worlds_module.weighted_worlds

    def counting_kernel(self, *args):
        built["kernels"] += 1
        compile_kernel(self, *args)

    def counting_table(*args):
        built["tables"] += 1
        return tabulate(*args)

    monkeypatch.setattr(WellFoundedKernel, "__init__", counting_kernel)
    for module in (worlds_module, paa_module, distribution_module, equivalence_module):
        if hasattr(module, "weighted_worlds"):
            monkeypatch.setattr(module, "weighted_worlds", counting_table)
    for n, gp in enumerate(LONE_PROGRAMS):
        atoms = sorted(gp.herbrand_base)
        queries = [atoms[n % len(atoms)] if atoms else Atom("zz")]
        if any(atom.args for atom in atoms):
            queries.append(Atom("q", ("X",)))
        for query in queries:
            built.clear()
            report = check_query(query, gp)
            assert built == {"kernels": 1, "tables": 1}, (gp, query)
            engine = PaaEngine(gp)
            alone = EquivalenceReport(
                query,
                success_probability(query, gp),
                *engine.query_masses(query),
                world_traces(gp, engine),
            )
            assert report == alone, (gp, query)
            assert report.failures == alone.failures


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_a_lone_query_evaluates_each_block_once(bits, monkeypatch):
    """`success_probability` reads the block vectors that the lone query's
    `world_traces` kept, and evaluates no block again: 16 facts make 64
    blocks of 1,024 worlds, and 6 facts 32 blocks of two."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    n = 16 if bits > 1 else 6
    gp = ground(parse_program(" ".join(f"0.3::f{i}." for i in range(n)) + r" q :- f0, \+ f1."))
    evaluated = []
    evaluate = WellFoundedKernel._evaluate

    def counting_evaluate(self, block):
        evaluated.append(block)
        return evaluate(self, block)

    monkeypatch.setattr(WellFoundedKernel, "_evaluate", counting_evaluate)
    report = check_query(Atom("q"), gp)
    blocks = 2 ** n >> bits
    assert sorted(evaluated) == list(range(blocks)) and blocks in (64, 32)
    assert report.success_probability == report.grounded_query_probability == Fraction(21, 100)
    assert report.holds


def test_check_catches_a_lone_success_pass_that_drops_the_last_block(capsys, monkeypatch, tmp_path):
    """`check` also answers one query per program through
    `success_probability`, the name the CLI imports, so a defect there fails
    it; the shared reports never call it."""

    def dropping_the_last_block(query, gp, max_pfacts=24):
        kept = 2 ** len(gp.pfacts) - 2 ** block_bits(len(gp.pfacts))
        return reference_success(query, gp, kept)

    monkeypatch.setattr(worlds_module, "BLOCK_BITS", 1)
    monkeypatch.setattr(cli_module, "success_probability", dropping_the_last_block)
    dump = tmp_path / "counterexample.pl"
    code = main(["check", "--seed-range", "0..199", "--dump", str(dump)])
    assert code == 3
    headline = capsys.readouterr().err.splitlines()[0]
    assert "alone it did not give the shared answers" in headline
    assert "alone it did not give the shared answers" in dump.read_text(encoding="utf-8")


# --- separation of the two routes ---


def imported_modules(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    return {
        node.module.lstrip(".")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }


@pytest.mark.parametrize(
    "route, other",
    [
        (("wfm", "distribution"), {"aba", "paa", "semantics"}),
        (("aba", "paa", "semantics"), {"wfm", "distribution"}),
    ],
)
def test_the_routes_share_no_inference_code(route, other):
    for name in route:
        assert not imported_modules(name) & other, name
