from fractions import Fraction

import pytest

from arglog import (
    Atom,
    CapExceeded,
    ground,
    parse_program,
    parse_query,
    random_program,
    success_probability,
)
from arglog.distribution import induced_program, total_choices
from arglog.model import Rule
from arglog.worlds import world_probability

B = Atom("b")


@pytest.fixture
def two_world():
    return ground(parse_program("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n"))


def test_induced_program_adds_chosen_facts(two_world):
    induced = induced_program(frozenset({B}), two_world)
    assert induced == two_world.rules | {Rule(B)}
    assert induced_program(frozenset(), two_world) == two_world.rules


def test_induced_program_on_ruleless_program():
    gp = ground(parse_program("0.3::b."))
    assert induced_program(frozenset({B}), gp) == frozenset({Rule(B)})


def test_program_probability_products(two_world):
    assert world_probability(frozenset({B}), two_world.pfacts) == Fraction(3, 10)
    assert world_probability(frozenset(), two_world.pfacts) == Fraction(7, 10)
    assert world_probability(frozenset(), ()) == 1


def test_total_choice_probabilities_sum_to_one():
    for seed in range(8):
        gp = ground(random_program(seed))
        assert sum(p for _, p in total_choices(gp.pfacts)) == 1


def test_total_choices_cap():
    gp = ground(parse_program("0.5::x.\n0.5::y.\n"))
    with pytest.raises(CapExceeded):
        list(total_choices(gp.pfacts, max_pfacts=1))


def test_choice_probability_agrees_with_world_probability():
    for seed in range(8):
        gp = ground(random_program(seed))
        for choice, prob in total_choices(gp.pfacts):
            assert prob == world_probability(choice, gp.pfacts)


def test_success_probability_of_the_gated_atom(two_world):
    assert success_probability(Atom("a"), two_world) == Fraction(3, 10)
    assert success_probability(Atom("b"), two_world) == Fraction(3, 10)
    assert success_probability(Atom("zz"), two_world) == 0
    # the undecided loop atom is never true
    assert success_probability(Atom("d"), two_world) == 0


def test_success_probability_of_nonground_query():
    gp = ground(parse_program("0.5::p(1).\n0.25::p(2).\n"))
    assert success_probability(parse_query("p(X)"), gp) == Fraction(5, 8)


def test_success_probability_monotone_for_definite_programs():
    base = "0.5::x.\n0.5::y.\nq :- x, y.\n"
    extended = base + "q :- x.\n"
    q = Atom("q")
    smaller = success_probability(q, ground(parse_program(base)))
    larger = success_probability(q, ground(parse_program(extended)))
    assert smaller == Fraction(1, 4)
    assert larger == Fraction(1, 2)
    assert smaller <= larger
