import re
from fractions import Fraction

import pytest

import arglog.model as model
from arglog import (
    Atom,
    CapExceeded,
    Caps,
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
    # the program's own rules and atoms, not copies
    assert gp.rules is program.rules and gp.herbrand_base is program.atoms


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


A = Atom("a")


# each of these, once grounded, made the two routes disagree: two choices
# for `a` gave success 2/3 against grounded 1/2, and a rule for the fact
# contrary `_chi` gave success 1/2 against grounded 0
@pytest.mark.parametrize(
    "program, message",
    [
        (
            built_in_code(pfacts=[ProbFact(Fraction(1, 2), A), ProbFact(Fraction(1, 3), A)]),
            "probabilistic facts 1/3::a and 0.5::a share the atom a",
        ),
        (
            built_in_code([Rule(Atom("_chi"))], [ProbFact(Fraction(1, 2), A)]),
            "predicate '_chi' uses the reserved '_' prefix",
        ),
        (
            built_in_code([Rule(A)], [ProbFact(Fraction(1, 2), A)]),
            "probabilistic fact atom a unifies with the head of rule 'a'",
        ),
    ],
)
def test_ground_refuses_every_program_that_validate_rejects(program, message):
    assert [v.message for v in validate(program)] == [message]
    with pytest.raises(GroundingError, match=f"^{re.escape(message)}$"):
        ground(program)


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


def count_violations_calls(monkeypatch) -> list:
    """Record each call of `model._violations`, the check behind `validate`."""
    calls = []
    check = model._violations

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(model, "_violations", counted)
    return calls


def test_a_parsed_program_is_validated_once(monkeypatch):
    calls = count_violations_calls(monkeypatch)
    gp = ground(parse_program("p(X) :- q(X), \\+ r(X).\n0.5::q(1).\nq(2).\n"))
    assert len(gp.rules) == 3
    assert len(calls) == 1
    # a program built in code is validated by `ground`, and refused
    with pytest.raises(GroundingError, match="range-restricted"):
        ground(built_in_code([Rule(Atom("p", ("X",)))]))
    assert len(calls) > 1


def join_source(k: int, edges: list[tuple[int, int]]) -> str:
    """Edges over constants c0..c<k-1>, all of which occur, and a
    four-variable join: k**4 instances of its rule."""
    lines = [f"e(c{x},c{y})." for x, y in edges]
    lines += [f"n(c{i})." for i in range(k)]
    return "\n".join(lines + ["p(X,Y,Z,W) :- e(X,Y), e(Y,Z), e(Z,W), \\+ e(X,W)."]) + "\n"


def refuse_to_instantiate(monkeypatch):
    def fail(rule, binding):
        raise AssertionError("a rule was instantiated")

    monkeypatch.setattr(Rule, "substitute", fail)


def test_the_ground_cap_counts_instances_before_making_any(monkeypatch):
    # 3**2 + 3 instances of the rules with variables, and the three facts
    program = parse_program("p(X, Y) :- q(X), q(Y).\nr(X) :- q(X).\nq(1).\nq(2).\nq(3).\n")
    assert len(ground(program, Caps(max_ground_rules=15)).rules) == 15
    refuse_to_instantiate(monkeypatch)
    with pytest.raises(CapExceeded) as refusal:
        ground(program, Caps(max_ground_rules=14))
    assert refusal.value.cap == "max_ground_rules"
    assert str(refusal.value) == "grounding would make 15 rule instances, past the cap of 14"
    # a ground program counts its own rules
    with pytest.raises(CapExceeded):
        ground(parse_program("a.\nb.\n"), Caps(max_ground_rules=1))


def test_the_default_ground_cap_admits_7_constants_and_refuses_30_at_once(monkeypatch):
    gp = ground(parse_program(join_source(7, [(0, 1), (1, 2), (2, 3)])))
    assert len(gp.rules) == 7**4 + 3 + 7
    program = parse_program(join_source(30, [(i, (i + 1) % 30) for i in range(30)]))
    refuse_to_instantiate(monkeypatch)
    with pytest.raises(CapExceeded, match=r"^grounding would make 810060 rule instances"):
        ground(program)
