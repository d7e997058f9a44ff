"""The compiled kernels against plain reference implementations, the shared
world enumeration and its blocks, and the one-evaluation-per-world contract."""

import ast
from collections import defaultdict
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arglog.paa as paa_module
import arglog.worlds as worlds_module
from arglog import (
    Argument,
    Atom,
    CapExceeded,
    Literal,
    ProbFact,
    Program,
    Rule,
    build_problog_aba,
    check_program,
    check_query,
    enumerate_arguments,
    ground,
    parse_program,
    random_program,
    well_founded_model,
    world_probability,
)
from arglog.cli import main
from arglog.semantics import grounded_block, grounded_extension_of
from arglog.wfm import WellFoundedKernel
from arglog.worlds import block_bits, block_fact_vectors, enumerate_worlds

from conftest import FIXTURES, chain_source

SRC = Path(__file__).resolve().parent.parent / "src" / "arglog"

# --- grounded labelling ---


def defense_fixpoint(active, attacks):
    """Reference: least fixpoint of the defense function, by iteration."""
    attackers = {i: {s for s, t in attacks if t == i and s in active} for i in active}
    extension = set()
    while True:
        defended = {
            i
            for i in active
            if all(any((g, a) in attacks for g in extension) for a in attackers[i])
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
    targets = [[t for s, t in sorted(attacks) if s == i] for i in range(n)]
    expected = defense_fixpoint(active, attacks)
    assert grounded_extension_of(active, attackers) == expected
    assert grounded_extension_of(active, attackers, targets) == expected
    assert grounded_extension_of(list(active), dict(enumerate(attackers))) == expected


@st.composite
def frameworks_with_fact_needs(draw):
    n, attacks, _ = draw(restricted_frameworks())
    k = draw(st.integers(0, 4))
    needs = draw(st.lists(st.integers(0, 2**k - 1), min_size=n, max_size=n))
    return n, attacks, k, needs


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@settings(max_examples=200, deadline=None)
@given(frameworks_with_fact_needs())
def test_block_labelling_matches_the_defense_fixpoint_in_every_world(bits, framework):
    n, attacks, k, needs = framework
    attackers = [[s for s, t in sorted(attacks) if t == i] for i in range(n)]
    targets = [[t for s, t in sorted(attacks) if s == i] for i in range(n)]
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
            inside = grounded_block(active, attackers, targets)
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
    # facts added to a compiled program act as bodyless rules
    kernel = WellFoundedKernel(program, base)
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
            assert (model.true_atoms, model.false_atoms, model.undefined_atoms) == tuple(
                map(frozenset, expected)
            ), mask


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
# d is a probabilistic fact, so it is never a head
body_literals = st.builds(Literal, st.sampled_from(ATOMS[:4]), st.booleans())
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
        CapExceeded, match=r"^argument saturation exceeds the cap of 242 arguments$"
    ):
        enumerate_arguments(framework, max_arguments=242)


# --- world enumeration ---


ENUMERATION_PROGRAMS = {f"chain-{n}": chain_source(n) for n in range(1, 7)} | {
    path.stem: path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.pl"))
}


@pytest.mark.parametrize("source", ENUMERATION_PROGRAMS.values(), ids=ENUMERATION_PROGRAMS)
def test_world_probabilities_sum_to_exactly_one(source):
    pfacts = ground(parse_program(source)).pfacts
    rows = list(enumerate_worlds(pfacts))
    assert [mask for mask, _, _ in rows] == list(range(2 ** len(pfacts)))
    assert sum(prob for _, _, prob in rows) == 1


def test_incremental_probabilities_equal_the_product_per_world():
    pfacts = ground(parse_program("0.1::a.\n1/3::b.\n0::c.\n1::d.\n0.75::e.\n")).pfacts
    atoms = sorted(pf.atom for pf in pfacts)
    for mask, world, prob in enumerate_worlds(pfacts):
        assert world == {atoms[i] for i in range(len(atoms)) if mask >> i & 1}
        assert prob == world_probability(world, pfacts)


def test_worlds_command_checks_the_sum_without_assert(monkeypatch):
    def halved(pfacts, max_pfacts=24):
        for mask, world, prob in enumerate_worlds(pfacts, max_pfacts):
            yield mask, world, prob / 2

    monkeypatch.setattr(worlds_module, "enumerate_worlds", halved)
    with pytest.raises(RuntimeError, match="sum to 1/2, not exactly 1"):
        main(["worlds", str(FIXTURES / "two_world.pl")])


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

    def counting_evaluate(self, facts, width):
        covered["wfm"].append(width)
        return evaluate(self, facts, width)

    def counting_model(self, facts=()):
        nonlocal models
        models += 1
        return model(self, facts)

    def counting_grounded(active, attackers, targets):
        # a0's argument needs no fact, so it is active in every world covered
        covered["grounded"].append(max(vector.bit_length() for vector in active))
        return grounded(active, attackers, targets)

    monkeypatch.setattr(WellFoundedKernel, "_evaluate", counting_evaluate)
    monkeypatch.setattr(WellFoundedKernel, "model", counting_model)
    monkeypatch.setattr(paa_module, "grounded_block", counting_grounded)
    gp = ground(parse_program(chain_source(2)))
    reports = check_program(gp)
    assert len(gp.pfacts) == 4 and len(reports) == len(gp.herbrand_base) == 11
    assert covered == {"wfm": [2**4], "grounded": [2**4]}
    assert models == 2**4


def test_chain_6_spans_four_blocks_and_both_routes_give_one_64th():
    gp = ground(parse_program(chain_source(6)))
    assert 2 ** len(gp.pfacts) == 4 * 2**worlds_module.BLOCK_BITS
    report = check_query(Atom("a6"), gp)
    assert report.success_probability == report.grounded_query_probability == Fraction(1, 64)
    assert report.holds


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
