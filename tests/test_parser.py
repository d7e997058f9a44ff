from fractions import Fraction

import pytest

from arglog import Atom, ParseError, Program, ValidationError, parse_program, parse_query
from arglog.model import Literal, ProbFact, Rule


def test_parse_rules_and_pfacts():
    program = parse_program("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n")
    a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")
    assert program.pfacts == frozenset({ProbFact(Fraction(3, 10), b)})
    assert program.rules == frozenset(
        {
            Rule(a, (Literal(b), Literal(c, negated=True))),
            Rule(d, (Literal(d, negated=True),)),
        }
    )


def test_parse_empty_text():
    assert parse_program("") == Program()
    assert parse_program("  % only a comment\n") == Program()


def test_parse_probability_forms():
    program = parse_program("0.25::a.\n1::b.\n0::c.\n1/3::d.\n")
    probs = {pf.atom.predicate: pf.prob for pf in program.pfacts}
    assert probs == {
        "a": Fraction(1, 4),
        "b": Fraction(1),
        "c": Fraction(0),
        "d": Fraction(1, 3),
    }


def test_parse_rejects_probability_out_of_range():
    with pytest.raises(ParseError, match="outside"):
        parse_program("1.5::b.")


def test_parse_not_keyword_is_negation():
    program = parse_program("a :- not b.")
    (rule,) = program.rules
    assert rule.body == (Literal(Atom("b"), negated=True),)


def test_parse_terms_and_variables():
    program = parse_program("p(X, 1) :- q(X), r(foo).")
    (rule,) = program.rules
    assert rule.head == Atom("p", ("X", "1"))
    assert rule.head.variables() == {"X"}


def test_parse_reports_positions():
    with pytest.raises(ParseError, match="2:6"):
        parse_program("a.\nb :- .\n")


def test_parse_rejects_reserved_identifiers():
    with pytest.raises(ParseError, match="reserved"):
        parse_program("_chi :- a.")
    with pytest.raises(ParseError, match="reserved"):
        parse_program("x :- _chi.")


def test_parse_rejects_not_as_symbol():
    with pytest.raises(ParseError):
        parse_program("not.")


def test_parse_rejects_pfact_with_body():
    with pytest.raises(ParseError, match="body"):
        parse_program("0.3::b :- c.")


def test_parse_rejects_duplicate_pfacts_even_with_equal_probability():
    with pytest.raises(ParseError, match="already given"):
        parse_program("0.3::b.\n0.3::b.\n")


def test_parse_reports_validation_violations():
    with pytest.raises(ValidationError, match="head of rule"):
        parse_program("0.3::b.\nb.\n")


def test_validation_errors_point_at_the_clause_they_name():
    # the rule body `c` also names the earlier clause `c.`; the error is about 0.5::b
    with pytest.raises(ValidationError, match=r"^1:4: probabilistic fact atom b"):
        parse_program("c. 0.5::b. b :- c.")


def test_identical_rules_collapse_silently():
    program = parse_program("a :- b.\na :- b.\n")
    assert len(program.rules) == 1


@pytest.mark.parametrize(
    "source",
    [
        "0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n",
        "1/3::p(1).\nq(X) :- p(X), not r(X).\n",
        "p(X, Y) :- q(X), q(Y).\n0.5::q(1).\n0.25::q(2).\n",
        "",
    ],
)
def test_round_trip_through_source(source):
    program = parse_program(source)
    assert parse_program(program.to_source()) == program


def test_parse_query_atom():
    assert parse_query("a") == Atom("a")
    assert parse_query("p(X)") == Atom("p", ("X",))
    assert parse_query("p(1, foo).") == Atom("p", ("1", "foo"))


def test_parse_query_rejects_negation():
    with pytest.raises(ParseError, match="atoms"):
        parse_query("\\+ a")
    with pytest.raises(ParseError, match="atoms"):
        parse_query("not a")


def test_parse_query_rejects_trailing_input():
    with pytest.raises(ParseError, match="trailing"):
        parse_query("a, b")
