"""The compiled per-world kernels against plain reference implementations,
the shared world enumeration, and the one-evaluation-per-world contract."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arglog.paa as paa_module
import arglog.worlds as worlds_module
from arglog import (
    Atom,
    Literal,
    Rule,
    check_program,
    ground,
    parse_program,
    well_founded_model,
    world_probability,
)
from arglog.cli import main
from arglog.semantics import grounded_extension_of
from arglog.wfm import WellFoundedKernel
from arglog.worlds import enumerate_worlds

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
    counts = {"wfm": 0, "grounded": 0}
    model, grounded = WellFoundedKernel.model, paa_module.grounded_extension_of

    def counting_model(self, facts=()):
        counts["wfm"] += 1
        return model(self, facts)

    def counting_grounded(*args):
        counts["grounded"] += 1
        return grounded(*args)

    monkeypatch.setattr(WellFoundedKernel, "model", counting_model)
    monkeypatch.setattr(paa_module, "grounded_extension_of", counting_grounded)
    gp = ground(parse_program(chain_source(2)))
    reports = check_program(gp)
    assert len(gp.pfacts) == 4 and len(reports) == len(gp.herbrand_base) == 11
    assert counts == {"wfm": 2**4, "grounded": 2**4}


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
