from fractions import Fraction

import pytest

from arglog import (
    Atom,
    GroundingError,
    Program,
    ValidationError,
    ground,
    parse_program,
    random_program,
)
from arglog.model import Literal, ProbFact, Rule, validate


def test_grounding_is_identity_on_ground_programs():
    program = parse_program("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n")
    gp = ground(program)
    assert gp.rules == program.rules
    assert gp.pfacts == program.pfacts
    assert gp.herbrand_base == frozenset({Atom("a"), Atom("b"), Atom("c"), Atom("d")})


def test_grounding_instantiates_over_program_constants():
    program = parse_program("p(X) :- q(X).\n0.5::q(1).\n0.5::q(2).\n")
    gp = ground(program)
    expected = parse_program("p(1) :- q(1).\np(2) :- q(2).\n").rules
    assert gp.rules == expected


def test_grounding_deduplicates_identical_instances():
    program = parse_program("p :- q(X), q(Y).\n0.5::q(1).\n")
    gp = ground(program)
    assert gp.rules == parse_program("p :- q(1), q(1).").rules


def built_in_code(rules=(), pfacts=()):
    """A program assembled without the parser, whose validation would
    reject the clauses these tests give to `ground`."""
    return Program(frozenset(rules), frozenset(pfacts))


def test_nonground_fact_is_rejected():
    with pytest.raises(GroundingError, match="range-restricted"):
        ground(built_in_code([Rule(Atom("p", ("X",)))]))


def test_head_variable_missing_from_positive_body_is_rejected():
    rule = Rule(Atom("p", ("X",)), (Literal(Atom("q", ("X",)), negated=True),))
    with pytest.raises(GroundingError, match="range-restricted"):
        ground(built_in_code([rule, Rule(Atom("q", ("1",)))]))


def test_variables_without_constants_are_rejected():
    rule = Rule(Atom("p", ("X",)), (Literal(Atom("q", ("X",))),))
    with pytest.raises(GroundingError, match="no\\s+constants"):
        ground(built_in_code([rule]))


def test_nonground_probabilistic_fact_is_rejected():
    pfact = ProbFact(Fraction(1, 2), Atom("q", ("X",)))
    with pytest.raises(GroundingError, match="not ground"):
        ground(built_in_code([Rule(Atom("p", ("1",)))], [pfact]))


@pytest.mark.parametrize(
    "source, message",
    [
        ("p(X).", r"^1:1: rule 'p\(X\)' is not range-restricted"),
        (
            "q(1).\np(X) :- \\+ q(X).\n",
            r"^2:1: rule 'p\(X\) :- not q\(X\)' is not range-restricted",
        ),
        ("p(1).\n0.5::q(X).\n", r"^2:1: probabilistic fact '0.5::q\(X\)' is not ground"),
        (
            "p(X) :- q(X).",
            r"^1:1: rule 'p\(X\) :- q\(X\)' contains variables but the program has no constants",
        ),
    ],
)
def test_parser_rejects_what_cannot_be_grounded_at_its_position(source, message):
    with pytest.raises(ValidationError, match=message):
        parse_program(source)


def test_negative_only_variables_are_instantiated():
    program = parse_program("p :- q(1), \\+ r(X).")
    gp = ground(program)
    assert gp.rules == parse_program("p :- q(1), \\+ r(1).").rules


def test_grounding_preserves_validity():
    for seed in range(10):
        program = random_program(seed)
        gp = ground(program)
        assert validate(type(program)(gp.rules, gp.pfacts)) == []


def test_ground_rule_count_bound():
    program = parse_program("p(X, Y) :- q(X), q(Y).\nq(1).\nq(2).\nq(3).\n")
    gp = ground(program)
    # one rule with two variables over three constants, plus three facts
    assert len(gp.rules) <= 1 * 3**2 + 3


def test_herbrand_base_covers_every_atom():
    program = parse_program("p(X) :- q(X), \\+ r(X).\nq(1).\nq(2).\n")
    gp = ground(program)
    for rule in gp.rules:
        assert rule.head in gp.herbrand_base
        for lit in rule.body:
            assert lit.atom in gp.herbrand_base

