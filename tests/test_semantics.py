import random

import pytest

from arglog import Atom, CapExceeded, PaaEngine, ground, parse_program, random_program
from arglog.aba import AaFramework, Argument
from arglog.model import Literal
from arglog.semantics import grounded_extension, stable_extensions


def abstract_framework(n, attacks):
    """A framework over n opaque arguments with a given attack relation."""
    args = tuple(
        Argument(
            frozenset({Literal(Atom(f"x{i}"), True)}),
            Literal(Atom(f"x{i}"), True),
            frozenset(),
        )
        for i in range(n)
    )
    return AaFramework(args, frozenset(attacks))


def test_self_attacker_spares_the_other_argument():
    aaf = abstract_framework(2, {(1, 1)})
    assert grounded_extension(aaf) == {0}
    assert stable_extensions(aaf) == frozenset()


def test_no_attacks_accepts_everything():
    aaf = abstract_framework(3, set())
    assert grounded_extension(aaf) == {0, 1, 2}
    assert stable_extensions(aaf) == frozenset({frozenset({0, 1, 2})})


def test_defense_chain_is_accepted():
    # 0 attacks 1 attacks 2: 0 defends 2
    aaf = abstract_framework(3, {(0, 1), (1, 2)})
    assert grounded_extension(aaf) == {0, 2}


def test_even_cycle_stays_undecided():
    aaf = abstract_framework(2, {(0, 1), (1, 0)})
    assert grounded_extension(aaf) == frozenset()
    assert stable_extensions(aaf) == frozenset(
        {frozenset({0}), frozenset({1})}
    )


def test_grounded_extension_of_the_deterministic_program():
    aaf = PaaEngine(ground(parse_program("a :- b, \\+ c.\nb.\nd :- \\+ d.\n"))).aaf
    accepted = {aaf.arguments[i] for i in grounded_extension(aaf)}
    assert {(a.claim, a.assumptions) for a in accepted} == {
        (Literal(Atom("a")), frozenset({Literal(Atom("c"), True)})),
        (Literal(Atom("b")), frozenset()),
        (Literal(Atom("c"), True), frozenset({Literal(Atom("c"), True)})),
    }
    assert stable_extensions(aaf) == frozenset()


def test_stable_extension_cap():
    aaf = abstract_framework(5, set())
    with pytest.raises(CapExceeded):
        stable_extensions(aaf, max_arguments=4)


def _random_abstract(rng):
    n = rng.randint(0, 6)
    attacks = {
        (i, j) for i in range(n) for j in range(n) if rng.random() < 0.25
    }
    return abstract_framework(n, attacks)


def test_grounded_is_conflict_free_admissible_and_inside_stable():
    rng = random.Random(11)
    for _ in range(80):
        aaf = _random_abstract(rng)
        extension = grounded_extension(aaf)
        for i in extension:
            for j in extension:
                assert (i, j) not in aaf.attacks
        attackers = {t for s, t in aaf.attacks}
        for i in extension:
            for s, t in aaf.attacks:
                if t == i:
                    assert any((g, s) in aaf.attacks for g in extension)
        for stable in stable_extensions(aaf):
            assert extension <= stable


def test_grounded_on_program_pipeline_corpus():
    for seed in range(12):
        gp = ground(random_program(seed))
        engine = PaaEngine(gp)
        extension = grounded_extension(engine.aaf)
        for i in extension:
            for j in extension:
                assert (i, j) not in engine.aaf.attacks
