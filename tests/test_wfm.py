import random

import pytest

from arglog import Atom, CapExceeded, parse_program, parse_query
from arglog.model import Literal, Rule
from arglog.wfm import least_model, stable_models, succeeds, well_founded_model

A, B, C, D = Atom("a"), Atom("b"), Atom("c"), Atom("d")
RULE_A = Rule(A, (Literal(B), Literal(C, negated=True)))  # a :- b, not c
RULE_B = Rule(B)  # b
RULE_D = Rule(D, (Literal(D, negated=True),))  # d :- not d
BASE = frozenset({A, B, C, D})


def test_wfm_without_the_fact_for_b():
    model = well_founded_model({RULE_A, RULE_D}, BASE)
    assert model.true_atoms == frozenset()
    assert model.false_atoms == {A, B, C}
    assert model.undefined_atoms == {D}


def test_wfm_with_the_fact_for_b():
    model = well_founded_model({RULE_A, RULE_B, RULE_D}, BASE)
    assert model.true_atoms == {A, B}
    assert model.false_atoms == {C}
    assert model.undefined_atoms == {D}


def test_wfm_of_empty_program_makes_everything_false():
    model = well_founded_model((), {Atom("x")})
    assert model.false_atoms == {Atom("x")}
    assert model.true_atoms == frozenset() == model.undefined_atoms


def test_least_model_cases():
    assert least_model({Rule(B)}) == {B}
    assert least_model({Rule(A, (Literal(B),)), Rule(B)}) == {A, B}
    assert least_model({Rule(A, (Literal(B),))}) == frozenset()


def test_least_model_rejects_negation():
    with pytest.raises(ValueError):
        least_model({RULE_D})


def test_least_model_is_monotone_in_rules():
    rules = [Rule(A, (Literal(B),)), Rule(B), Rule(C, (Literal(A),))]
    for i in range(len(rules)):
        assert least_model(rules[:i]) <= least_model(rules[: i + 1])


def test_stable_models_of_the_odd_loop_program():
    assert stable_models({RULE_A, RULE_B, RULE_D}, BASE) == frozenset()


def test_stable_models_simple_cases():
    assert stable_models({Rule(B)}, {B}) == frozenset({frozenset({B})})
    assert stable_models({RULE_D}, {D}) == frozenset()


def test_stable_models_respects_atom_cap():
    base = {Atom(f"x{i}") for i in range(5)}
    with pytest.raises(CapExceeded):
        stable_models((), base, max_atoms=4)


def test_succeeds_only_on_true_atoms():
    with_fact = well_founded_model({RULE_A, RULE_B, RULE_D}, BASE)
    without_fact = well_founded_model({RULE_A, RULE_D}, BASE)
    assert succeeds(with_fact, A)
    assert not succeeds(without_fact, A)
    assert not succeeds(with_fact, Atom("nowhere"))
    # undefined atoms never count as success
    assert not succeeds(with_fact, D)


def test_succeeds_on_nonground_queries():
    rules = parse_program("p(1).\np(2) :- \\+ q(2).\nq(2).\n").rules
    base = {Atom("p", ("1",)), Atom("p", ("2",)), Atom("q", ("2",))}
    model = well_founded_model(rules, base)
    assert succeeds(model, parse_query("p(X)"))
    assert not succeeds(model, parse_query("r(X)"))


def _random_rules(rng, atoms):
    rules = set()
    for _ in range(rng.randint(0, 8)):
        head = rng.choice(atoms)
        body = tuple(
            Literal(rng.choice(atoms), rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))
        )
        rules.add(Rule(head, body))
    return frozenset(rules)


def test_wfm_partitions_and_approximates_stable_models():
    atoms = [Atom(ch) for ch in "abcde"]
    base = frozenset(atoms)
    rng = random.Random(7)
    for _ in range(60):
        rules = _random_rules(rng, atoms)
        model = well_founded_model(rules, base)
        assert model.true_atoms | model.false_atoms | model.undefined_atoms == base
        assert not model.true_atoms & model.false_atoms
        for stable in stable_models(rules, base):
            assert model.true_atoms <= stable
            assert not model.false_atoms & stable
        if model.is_two_valued:
            assert stable_models(rules, base) == frozenset({model.true_atoms})
