import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arglog

from arglog import (
    Atom,
    PaaEngine,
    Program,
    format_probability,
    ground,
    matches,
    parse_program,
    world_traces,
)
from arglog.model import Literal, ProbFact, Rule, herbrand_base, validate

A, B, C, D = Atom("a"), Atom("b"), Atom("c"), Atom("d")
RULE_A = Rule(A, (Literal(B), Literal(C, negated=True)))
RULE_D = Rule(D, (Literal(D, negated=True),))


def test_validate_accepts_pfact_outside_rule_heads():
    program = Program(frozenset({RULE_A, RULE_D}), frozenset({ProbFact(Fraction(3, 10), B)}))
    assert validate(program) == []


def test_validate_accepts_empty_program():
    assert validate(Program()) == []


def test_validate_rejects_pfact_that_is_a_rule_head():
    program = Program(frozenset({Rule(B)}), frozenset({ProbFact(Fraction(3, 10), B)}))
    violations = validate(program)
    assert len(violations) == 1
    assert violations[0].kind == "probabilistic_fact_is_rule_head"
    assert "b" in violations[0].message


def test_validate_rejects_duplicate_pfacts_on_one_atom():
    program = Program(
        pfacts=frozenset({ProbFact(Fraction(3, 10), B), ProbFact(Fraction(1, 2), B)})
    )
    kinds = [v.kind for v in validate(program)]
    assert kinds == ["duplicate_probabilistic_fact"]


def test_validate_rejects_reserved_predicates():
    program = Program(rules=frozenset({Rule(Atom("_chi"))}))
    assert [v.kind for v in validate(program)] == ["reserved_predicate"]


def test_validate_is_deterministic_and_idempotent():
    program = Program(
        frozenset({Rule(B), Rule(C)}),
        frozenset({ProbFact(Fraction(3, 10), B), ProbFact(Fraction(1, 2), C)}),
    )
    assert validate(program) == validate(program)


def test_validate_uses_unification_against_nonground_heads():
    head = Atom("p", ("X",))
    program = Program(
        frozenset({Rule(head, (Literal(Atom("q", ("X",))),))}),
        frozenset({ProbFact(Fraction(1, 2), Atom("p", ("1",)))}),
    )
    assert [v.kind for v in validate(program)] == ["probabilistic_fact_is_rule_head"]


def test_validate_reports_a_nonground_fact_once_even_when_it_meets_a_head():
    rule = Rule(Atom("p", ("Y",)), (Literal(Atom("q", ("Y",))),))
    program = Program(
        frozenset({rule, Rule(Atom("q", ("1",)))}),
        frozenset({ProbFact(Fraction(1, 2), Atom("p", ("X",)))}),
    )
    assert [v.kind for v in validate(program)] == ["probabilistic_fact_not_ground"]


def test_herbrand_base_collects_all_atom_positions():
    program = parse_program("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n")
    base = herbrand_base(program.rules, program.pfacts)
    assert base == frozenset({A, B, C, D})


def test_herbrand_base_empty_inputs():
    assert herbrand_base((), ()) == frozenset()


def test_herbrand_base_collects_body_atoms():
    rule = Rule(Atom("p", ("1",)), (Literal(Atom("q", ("1",))),))
    assert herbrand_base({rule}, ()) == frozenset({Atom("p", ("1",)), Atom("q", ("1",))})


def test_herbrand_base_monotone_in_content():
    rules = {RULE_A, RULE_D}
    pfacts = {ProbFact(Fraction(3, 10), B)}
    assert herbrand_base(rules, ()) <= herbrand_base(rules, pfacts)
    assert herbrand_base({RULE_A}, pfacts) <= herbrand_base(rules, pfacts)


def test_probfact_rejects_out_of_range_probs():
    with pytest.raises(ValueError):
        ProbFact(Fraction(3, 2), B)
    with pytest.raises(ValueError):
        ProbFact(Fraction(-1, 10), B)


def test_probfact_rejects_floats():
    with pytest.raises(TypeError):
        ProbFact(0.3, B)


def test_probfact_accepts_degenerate_probabilities():
    assert ProbFact(Fraction(0), B).prob == 0
    assert ProbFact(Fraction(1), B).prob == 1
    assert type(ProbFact(1, B).prob) is Fraction  # an int is coerced


def test_atom_ordering_is_lexicographic():
    atoms = [Atom("p", ("2",)), Atom("p", ("1",)), Atom("a"), Atom("p")]
    assert sorted(atoms) == [Atom("a"), Atom("p"), Atom("p", ("1",)), Atom("p", ("2",))]


def test_atom_groundness_and_variables():
    assert Atom("p", ("x", "1")).is_ground
    assert not Atom("p", ("X",)).is_ground
    assert Atom("p", ("X", "y", "Z")).variables() == {"X", "Z"}


def test_matches_requires_consistent_bindings():
    assert matches(Atom("p", ("X",)), Atom("p", ("1",)))
    assert matches(Atom("p", ("X", "X")), Atom("p", ("1", "1")))
    assert not matches(Atom("p", ("X", "X")), Atom("p", ("1", "2")))
    assert not matches(Atom("p", ("1",)), Atom("p", ("2",)))


def test_format_probability_prefers_finite_decimals():
    assert format_probability(Fraction(3, 10)) == "0.3"
    assert format_probability(Fraction(1, 4)) == "0.25"
    assert format_probability(Fraction(1)) == "1"
    assert format_probability(Fraction(0)) == "0"
    assert format_probability(Fraction(1, 3)) == "1/3"


def test_rules_keep_equality_order_and_repr():
    rule = Rule(Atom("p", ("x",)), (Literal(B, negated=True),))
    twin = Rule(Atom("p", ("x",)), (Literal(B, negated=True),))
    assert rule == twin and hash(rule) == hash(twin) and not rule < twin
    assert repr(rule) == (
        "Rule(head=Atom(predicate='p', args=('x',)), "
        "body=(Literal(atom=Atom(predicate='b', args=()), negated=True),))"
    )
    assert hash(A) == hash(("a", ()))


def test_atom_rejects_an_empty_predicate_or_term():
    with pytest.raises(ValueError, match="predicate must be non-empty"):
        Atom("")
    with pytest.raises(ValueError, match="empty argument term"):
        Atom("p", ("",))


def test_value_types_hash_and_compare_as_the_tuple_of_their_fields():
    gp = ground(parse_program("0.5::b.\na :- b, \\+ c.\n"))
    engine = PaaEngine(gp)
    values = {
        "Atom": A,
        "Literal": Literal(A, negated=True),
        "Rule": RULE_A,
        "ProbFact": ProbFact(Fraction(1, 2), B),
        "Argument": engine.arguments[0],
        "WorldTrace": world_traces(gp, engine)[0],
    }
    for name, value in values.items():
        assert type(value).__name__ == name
        fields = tuple(getattr(value, field) for field in value._fields)
        assert hash(value) == hash(fields) and value == fields
        assert pickle.loads(pickle.dumps(value)) == value
    assert Atom("a") == ("a", ())


UNPICKLE = """
import pickle, sys
from arglog.model import Atom, Literal, Rule
atom, rule = pickle.loads(sys.stdin.buffer.read())
fresh = Atom("p", ("x", "y"))
print(hash("p"), atom in {fresh}, rule in {Rule(fresh, (Literal(fresh, True),))})
"""


def test_hashes_do_not_survive_pickling_into_another_hash_seed():
    atom = Atom("p", ("x", "y"))
    rule = Rule(atom, (Literal(atom, True),))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(arglog.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", UNPICKLE],
        input=pickle.dumps((atom, rule)),
        env=env,
        capture_output=True,
        check=True,
        timeout=60,
    )
    str_hash, atom_found, rule_found = done.stdout.decode().split()
    assert int(str_hash) != hash("p")  # string hashes differ between the processes
    assert (atom_found, rule_found) == ("True", "True")
