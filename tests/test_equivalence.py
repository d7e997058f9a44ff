from fractions import Fraction

from arglog import Atom, check_program, check_query, ground, random_program
from arglog.equivalence import GenLimits
from arglog.model import validate


def test_report_on_the_two_world_program(two_world):
    report = check_query(Atom("a"), two_world)
    assert report.success_probability == Fraction(3, 10)
    assert report.grounded_query_probability == Fraction(3, 10)
    assert report.probabilities_equal
    assert report.sum_bounds_success
    assert report.holds
    assert len(report.world_traces) == 2
    assert all(t.model_matches_claims for t in report.world_traces)


def test_factless_program_has_single_certain_world(odd_loop_lp):
    for report in check_program(odd_loop_lp):
        assert report.success_probability in (Fraction(0), Fraction(1))
        assert report.probabilities_equal
        assert len(report.world_traces) == 1


def test_duplicate_derivations_make_the_argument_sum_strict(duplicate_support):
    report = check_query(Atom("q"), duplicate_support)
    assert report.success_probability == Fraction(1, 2)
    assert report.grounded_query_probability == Fraction(1, 2)
    assert report.argument_probability_sum == 1
    assert report.argument_probability_sum > report.success_probability
    assert report.holds


def test_world_traces_expose_both_routes(two_world):
    report = check_query(Atom("a"), two_world)
    by_world = {t.world: t for t in report.world_traces}
    chosen = by_world[frozenset({Atom("b")})]
    assert chosen.probability == Fraction(3, 10)
    assert chosen.model.true_atoms == {Atom("a"), Atom("b")}
    assert {c.atom for c in chosen.accepted_claims if not c.negated} == {
        Atom("a"),
        Atom("b"),
    }
    assert {c.atom for c in chosen.accepted_claims if c.negated} == {Atom("c")}
    assert chosen.model_matches_claims


def test_random_program_is_deterministic():
    assert random_program(0) == random_program(0)
    assert random_program(3) == random_program(3)


def test_random_program_is_always_valid():
    for seed in range(50):
        program = random_program(seed)
        assert validate(program) == []


def test_random_program_respects_limits():
    limits = GenLimits(max_pfacts=2, max_rules=3, max_atoms=4)
    for seed in range(30):
        program = random_program(seed, limits)
        assert len(program.pfacts) <= 2
        assert len(program.rules) <= 3
        atoms = {pf.atom for pf in program.pfacts}
        for rule in program.rules:
            atoms.add(rule.head)
            atoms.update(lit.atom for lit in rule.body)
        assert len(atoms) <= 4


def test_check_program_covers_every_base_atom():
    gp = ground(random_program(1))
    reports = check_program(gp)
    assert {r.query for r in reports} == set(gp.herbrand_base)
    for report in reports:
        assert report.holds
