"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. The seeded-corpus criteria
share a single evaluation (module-scoped fixture) so the timing budget covers
the real work exactly once.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from arglog import (
    Atom,
    PaaEngine,
    check_program,
    check_query,
    ground,
    parse_query,
    random_program,
    success_probability,
)
from arglog.aba import AaFramework, Argument
from arglog.distribution import total_choices
from arglog.model import Literal
from arglog.semantics import grounded_extension, stable_extensions
from arglog.wfm import stable_models
from arglog.worlds import world_table

from conftest import FIXTURES
from test_golden import PROGRAMS

CORPUS_SEEDS = range(100)
CORPUS_BUDGET_SECONDS = 60.0


def _pass(line: str) -> None:
    print(f"PASS {line}")


@pytest.fixture(scope="module")
def corpus():
    """Ground and cross-check the 100 seeded programs once."""
    started = time.monotonic()
    entries = []
    for seed in CORPUS_SEEDS:
        gp = ground(random_program(seed))
        if gp.herbrand_base:
            reports = check_program(gp)
        else:  # an empty program's framework is degenerate, and says so
            with pytest.warns(UserWarning, match="degenerate framework"):
                reports = check_program(gp)
        entries.append((seed, gp, reports))
    elapsed = time.monotonic() - started
    return entries, elapsed


def test_criterion_1_two_world_probability_golden(two_world):
    started = time.monotonic()
    query = parse_query("a")
    direct = success_probability(query, two_world)
    argued = PaaEngine(two_world).grounded_prob_query(query)
    elapsed = time.monotonic() - started
    assert direct == Fraction(3, 10)
    assert argued == Fraction(3, 10)
    assert elapsed < 1.0
    _pass(
        "criterion 1: both back ends give exactly 3/10 on the two-world "
        f"program ({elapsed:.3f}s)"
    )


def test_criterion_2_deterministic_program_argument_golden(odd_loop_lp):
    started = time.monotonic()
    engine = PaaEngine(odd_loop_lp)
    a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")
    rule_a = next(r for r in odd_loop_lp.rules if r.head == a)
    rule_b = next(r for r in odd_loop_lp.rules if r.head == b)
    rule_d = next(r for r in odd_loop_lp.rules if r.head == d)
    assumption = lambda atom: Argument(
        frozenset({Literal(atom, True)}), Literal(atom, True), frozenset()
    )
    arg_a = Argument(frozenset({Literal(c, True)}), Literal(a), frozenset({rule_a, rule_b}))
    arg_b = Argument(frozenset(), Literal(b), frozenset({rule_b}))
    arg_d = Argument(frozenset({Literal(d, True)}), Literal(d), frozenset({rule_d}))
    expected_arguments = {arg_a, arg_b, arg_d, *(assumption(x) for x in (a, b, c, d))}
    assert set(engine.aaf.arguments) == expected_arguments
    assert len(engine.aaf.arguments) == 7

    index = {arg: i for i, arg in enumerate(engine.aaf.arguments)}
    expected_attacks = {
        (index[arg_a], index[assumption(a)]),
        (index[arg_b], index[assumption(b)]),
        (index[arg_d], index[assumption(d)]),
        (index[arg_d], index[arg_d]),
    }
    assert engine.aaf.attacks == expected_attacks

    accepted = {engine.aaf.arguments[i] for i in grounded_extension(engine.aaf)}
    assert accepted == {arg_a, arg_b, assumption(c)}
    assert stable_extensions(engine.aaf) == frozenset()
    assert stable_models(odd_loop_lp.rules, odd_loop_lp.herbrand_base) == frozenset()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _pass(
        "criterion 2: 7 arguments, 4 attacks, 3 accepted, no stable "
        f"extension or model ({elapsed:.3f}s)"
    )


def test_criterion_3_self_attack_illustration():
    alpha = Argument(frozenset(), Literal(Atom("alpha")), frozenset())
    beta = Argument(frozenset(), Literal(Atom("beta")), frozenset())
    aaf = AaFramework((alpha, beta), frozenset({(1, 1)}))
    assert grounded_extension(aaf) == {0}
    assert stable_extensions(aaf) == frozenset()
    _pass("criterion 3: self-attacker excluded, no stable extension")


def test_criterion_4_equivalence_on_seeded_corpus(corpus):
    entries, elapsed = corpus
    counterexamples = []
    queries = 0
    for seed, _, reports in entries:
        for report in reports:
            queries += 1
            if not (report.probabilities_equal and report.sum_bounds_success):
                counterexamples.append((seed, str(report.query)))
    assert counterexamples == []
    assert len(entries) == 100
    assert elapsed < CORPUS_BUDGET_SECONDS
    _pass(
        f"criterion 4: exact equality and bound on {queries} queries over "
        f"100 programs, 0 counterexamples ({elapsed:.2f}s < {CORPUS_BUDGET_SECONDS:.0f}s)"
    )


def test_criterion_5_per_world_correspondence(corpus):
    entries, _ = corpus
    worlds = 0
    mismatches = 0
    for _, _, reports in entries:
        # traces are shared across a program's reports; inspect one per program
        for trace in reports[0].world_traces if reports else ():
            worlds += 1
            if not trace.model_matches_claims:
                mismatches += 1
        for report in reports:
            assert all(t.model_matches_claims for t in report.world_traces)
    assert mismatches == 0
    _pass(
        f"criterion 5: well-founded truths match accepted claims in every "
        f"world ({worlds} worlds, 0 mismatches)"
    )


def test_criterion_6_normalization(corpus):
    entries, _ = corpus
    for _, gp, _ in entries:
        assert sum(p for _, p in world_table(gp.pfacts)) == 1
        assert sum(p for _, p in total_choices(gp.pfacts)) == 1
    _pass("criterion 6: world and total-choice probabilities sum to exactly 1")


def test_criterion_7_strict_argument_sum_witness(duplicate_support):
    report = check_query(Atom("q"), duplicate_support)
    assert report.success_probability == Fraction(1, 2)
    assert report.grounded_query_probability == Fraction(1, 2)
    assert report.argument_probability_sum == Fraction(1)
    assert report.argument_probability_sum > report.success_probability
    assert report.probabilities_equal
    _pass(
        "criterion 7: shipped fixture has argument sum 1 strictly above "
        "query probability 1/2 while the equality holds"
    )


def test_criterion_8_byte_identical_listings():
    fixtures = sorted(FIXTURES.glob("*.pl"))
    assert fixtures
    for fixture in fixtures:
        # the trace's rows are read from the sets of each world's model
        query = ["query", "--query", PROGRAMS[fixture.stem][1], "--trace"]
        for command in (["show"], ["worlds"], query, query + ["--format", "json"]):
            outputs = set()
            for run in range(3):
                env = dict(os.environ, PYTHONHASHSEED=str(run * 7919))
                result = subprocess.run(
                    [sys.executable, "-m", "arglog", command[0], str(fixture), *command[1:]],
                    capture_output=True,
                    env=env,
                    check=True,
                )
                outputs.add(result.stdout)
            assert len(outputs) == 1, f"{command} on {fixture.name} is not deterministic"
    _pass(
        "criterion 8: show, worlds and query --trace (human and JSON) byte-identical "
        f"across 3 runs on {len(fixtures)} fixtures"
    )
