import gc
import tracemalloc
import warnings
from fractions import Fraction
from string import ascii_lowercase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arglog.worlds as worlds_module
from arglog import (
    Atom,
    PaaEngine,
    check_program,
    check_query,
    ground,
    parse_program,
    parse_query,
    random_program,
    world_traces,
)
from arglog.equivalence import GenLimits
from arglog.model import Literal, ProbFact, Program, Rule, validate

from conftest import load_fixture


def answers(report):
    return (
        report.success_probability,
        report.grounded_query_probability,
        report.argument_probability_sum,
    )


def assert_shared_answers_equal_lone_ones(gp, queries=()):
    """Every Herbrand atom's report from `check_program`, and each further
    query's report from shared traces, has the three exact answers of the
    lone query, whose success probability comes from its own world pass and
    whose grounded ones from the engine's methods."""
    engine = PaaEngine(gp)
    traces = world_traces(gp, engine)
    shared = check_program(gp) + [
        check_query(query, gp, engine=engine, traces=traces) for query in queries
    ]
    assert [r.query for r in shared] == sorted(gp.herbrand_base) + list(queries)
    for report in shared:
        lone = check_query(report.query, gp, engine=engine)
        assert all(type(a) is Fraction for a in answers(report))
        assert answers(report) == answers(lone)
        assert report.holds and lone.holds


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


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_shared_answers_equal_lone_ones_on_the_seeded_corpus(bits, monkeypatch):
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    for seed in range(200):
        assert_shared_answers_equal_lone_ones(ground(random_program(seed)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_shared_answers_equal_lone_ones_on_drawn_seeds(seed):
    assert_shared_answers_equal_lone_ones(ground(random_program(seed)))


@pytest.mark.parametrize("bits", [worlds_module.BLOCK_BITS, 1])
def test_shared_answers_equal_lone_ones_for_non_ground_queries(bits, monkeypatch):
    """reach.pl in one block of 8 worlds, and in four blocks of two."""
    monkeypatch.setattr(worlds_module, "BLOCK_BITS", bits)
    queries = [parse_query("q(X)"), parse_query("e(X,Y)"), parse_query("zz(X)")]
    assert_shared_answers_equal_lone_ones(load_fixture("reach.pl"), queries)


def renamed(program, name):
    """The program with every atom replaced by its image under `name`."""
    rules = frozenset(
        Rule(name[rule.head], tuple(Literal(name[lit.atom], lit.negated) for lit in rule.body))
        for rule in program.rules
    )
    return Program(rules, frozenset(ProbFact(pf.prob, name[pf.atom]) for pf in program.pfacts))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3999), st.permutations(ascii_lowercase), st.data())
@pytest.mark.filterwarnings("ignore:degenerate framework")
def test_renaming_atoms_or_reordering_clauses_changes_no_answer(seed, letters, data):
    """Renaming the atoms through a bijection onto lowercase names reorders
    the facts, and so the world numbering, yet each atom's three answers are
    its image's; parsing the clauses in another order gives the same program."""
    program = random_program(seed)
    gp = ground(program)
    name = dict(zip(sorted(gp.herbrand_base), map(Atom, letters)))
    image = {report.query: report for report in check_program(ground(renamed(program, name)))}
    for report in check_program(gp):
        assert answers(report) == answers(image[name[report.query]]), report.query
        assert image[name[report.query]].holds
    clauses = data.draw(st.permutations(program.clauses()))
    assert parse_program("".join(f"{clause}\n" for clause in clauses)) == program


def test_an_operation_leaves_nothing_behind():
    """No cache or table outlives an operation: after a warm-up, 400 more
    programs from text to cross-checked answers leave the traced memory
    within 64 KiB of where it was (a cache of parsed programs adds MiBs)."""

    def operation(seed: int) -> None:
        check_program(ground(parse_program(random_program(seed).to_source())))

    tracing = tracemalloc.is_tracing()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            for seed in range(50):
                operation(seed)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(50, 450):
                operation(seed)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
    assert grown < 64 * 1024
