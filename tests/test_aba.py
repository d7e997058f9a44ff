"""Argument enumeration checked against an independent derivation-tree search.

The oracle below enumerates actual derivation trees up to a depth bound and
collects their (assumptions, claim, rules) triples; it shares no code with
the saturation in the package. For each fixture the bound is raised until the
oracle's answer stops growing, so the frozen comparisons are exact.
"""

from itertools import product

import pytest

from arglog import Atom, CapExceeded, PaaEngine, ground, parse_program
from arglog.aba import (
    FACT_CONTRARY,
    Argument,
    build_problog_aba,
    compute_attacks,
    enumerate_arguments,
)
from arglog.model import Literal

A, B, C, D, P = Atom("a"), Atom("b"), Atom("c"), Atom("d"), Atom("p")


def oracle_triples(framework, max_depth):
    """All (assumptions, claim, rules) triples with a derivation tree of
    depth <= max_depth, by direct tree enumeration."""

    def trees_for(sentence, depth):
        found = set()
        if sentence in framework.assumptions:
            found.add((frozenset({sentence}), frozenset()))
        if depth == 0 or sentence.negated:
            return found
        for rule in framework.rules:
            if Literal(rule.head) != sentence:
                continue
            child_options = [trees_for(lit, depth - 1) for lit in rule.body]
            if any(not opts for opts in child_options):
                continue
            for combo in product(*child_options):
                support = frozenset().union(*(a for a, _ in combo)) if combo else frozenset()
                used = frozenset({rule}).union(*(s for _, s in combo))
                found.add((support, used))
        return found

    triples = set()
    for atom, negated in product(framework.herbrand_base, (False, True)):
        sentence = Literal(atom, negated)
        for support, used in trees_for(sentence, max_depth):
            triples.add((support, sentence, used))
    return triples


def stabilized_oracle(framework, start_depth=4):
    depth = start_depth
    current = oracle_triples(framework, depth)
    while oracle_triples(framework, depth + 1) != current:
        depth += 1
        current = oracle_triples(framework, depth)
    return current


def as_triples(arguments):
    return {(a.assumptions, a.claim, a.rules_used) for a in arguments}


def framework_of(source):
    return build_problog_aba(ground(parse_program(source)))


def aaf_of(source):
    return PaaEngine(ground(parse_program(source))).aaf


def test_build_framework_for_the_two_world_program():
    framework = framework_of("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n")
    assert framework.fact_assumptions == {B}
    assert framework.assumptions == {
        Literal(A, True),
        Literal(B, True),
        Literal(C, True),
        Literal(D, True),
        Literal(B),
    }
    assert framework.contrary_of(Literal(B)) == FACT_CONTRARY
    assert framework.contrary_of(Literal(B, True)) == Literal(B)
    with pytest.raises(KeyError):
        framework.contrary_of(Literal(A))


def test_framework_without_pfacts_has_only_naf_assumptions():
    framework = framework_of("a :- b, \\+ c.\nb.\nd :- \\+ d.\n")
    assert framework.fact_assumptions == frozenset()
    assert all(a.negated for a in framework.assumptions)


def test_empty_program_gives_degenerate_framework_with_warning():
    with pytest.warns(UserWarning, match="degenerate"):
        framework = framework_of("")
    assert framework.assumptions == frozenset()


def test_seven_arguments_of_the_deterministic_program():
    framework = framework_of("a :- b, \\+ c.\nb.\nd :- \\+ d.\n")
    rule_a, rule_b, rule_d = (
        next(r for r in framework.rules if r.head == head) for head in (A, B, D)
    )
    expected = {
        (frozenset({Literal(C, True)}), Literal(A), frozenset({rule_a, rule_b})),
        (frozenset(), Literal(B), frozenset({rule_b})),
        (frozenset({Literal(D, True)}), Literal(D), frozenset({rule_d})),
    } | {
        (frozenset({Literal(x, True)}), Literal(x, True), frozenset())
        for x in (A, B, C, D)
    }
    assert as_triples(enumerate_arguments(framework)) == expected


def test_four_attacks_of_the_deterministic_program():
    aaf = aaf_of("a :- b, \\+ c.\nb.\nd :- \\+ d.\n")
    by_claim_support = {
        (arg.claim, arg.assumptions): i for i, arg in enumerate(aaf.arguments)
    }
    arg_a = by_claim_support[(Literal(A), frozenset({Literal(C, True)}))]
    arg_b = by_claim_support[(Literal(B), frozenset())]
    arg_d = by_claim_support[(Literal(D), frozenset({Literal(D, True)}))]
    not_a = by_claim_support[(Literal(A, True), frozenset({Literal(A, True)}))]
    not_b = by_claim_support[(Literal(B, True), frozenset({Literal(B, True)}))]
    not_d = by_claim_support[(Literal(D, True), frozenset({Literal(D, True)}))]
    assert aaf.attacks == {
        (arg_a, not_a),
        (arg_b, not_b),
        (arg_d, not_d),
        (arg_d, arg_d),
    }


def test_fact_assumption_arguments_are_never_attacked():
    aaf = aaf_of("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n")
    b_arg = aaf.arguments.index(
        Argument(frozenset({Literal(B)}), Literal(B), frozenset())
    )
    assert all(target != b_arg for _, target in aaf.attacks)


def test_cyclic_rule_alone_yields_no_argument_for_its_head():
    framework = framework_of("p :- p.")
    args = enumerate_arguments(framework)
    assert as_triples(args) == {
        (frozenset({Literal(P, True)}), Literal(P, True), frozenset())
    }


def test_cyclic_and_direct_rules_give_two_distinct_triples():
    framework = framework_of("p.\np :- p.\n")
    direct = next(r for r in framework.rules if not r.body)
    cyclic = next(r for r in framework.rules if r.body)
    expected = {
        (frozenset(), Literal(P), frozenset({direct})),
        (frozenset(), Literal(P), frozenset({direct, cyclic})),
        (frozenset({Literal(P, True)}), Literal(P, True), frozenset()),
    }
    assert as_triples(enumerate_arguments(framework)) == expected
    # the tree oracle already stabilises at depth 3 on this fixture
    assert oracle_triples(framework, 3) == expected


@pytest.mark.parametrize(
    "source",
    [
        "a :- b, \\+ c.\nb.\nd :- \\+ d.\n",
        "0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n",
        "p.\np :- p.\n",
        "0.5::f.\ng.\nq :- f.\nq :- f, g.\n",
        "a :- b.\nb :- a.\na.\nb.\n",
        "x :- \\+ y, z.\nz :- z.\nz.\ny :- \\+ x.\n",
        # a body of assumptions only, a body atom whose one rule is bodyless,
        # and a body atom that nothing derives
        "0.5::f.\np :- \\+ q, f.\n",
        "c.\ns :- c, \\+ p.\n",
        "t :- u.\n",
    ],
)
def test_saturation_matches_the_tree_oracle(source):
    framework = framework_of(source)
    assert as_triples(enumerate_arguments(framework)) == stabilized_oracle(framework)


def test_no_argument_ever_claims_the_fact_contrary():
    for source in ("0.3::b.\na :- b.\n", "p.\np :- p.\n", "0.5::f.\nq :- f, \\+ q."):
        framework = framework_of(source)
        assert all(
            arg.claim != FACT_CONTRARY for arg in enumerate_arguments(framework)
        )


def test_arguments_replay_from_their_own_rules_and_assumptions():
    framework = framework_of("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\nq :- a, \\+ d.\n")
    for arg in enumerate_arguments(framework):
        derivable = set(arg.assumptions)
        changed = True
        while changed:
            changed = False
            for rule in arg.rules_used:
                if all(lit in derivable for lit in rule.body):
                    head = Literal(rule.head)
                    if head not in derivable:
                        derivable.add(head)
                        changed = True
        assert arg.claim in derivable


def test_argument_cap_refuses_blowups():
    framework = framework_of("a :- b, \\+ c.\nb.\nd :- \\+ d.\n")
    with pytest.raises(CapExceeded):
        enumerate_arguments(framework, max_arguments=3)


def join_program(last_clause: str) -> str:
    """`h :- b1, b2, b3, c.`, where each b has 20 arguments, one per rule;
    so a join of the three b's holds 20**3 partial unions."""
    rules = [f"b{i} :- \\+ n{j}." for i in (1, 2, 3) for j in range(1, 21)]
    return "\n".join(rules + ["h :- b1, b2, b3, c.", last_clause]) + "\n"


def test_a_join_with_an_empty_pool_is_skipped_before_it_is_built():
    # c has no argument, so h has none; building the 8000 unions of the
    # b's first would pass the cap
    arguments = enumerate_arguments(framework_of(join_program("")), max_arguments=5000)
    assert len(arguments) == 60 + 25
    assert Literal(Atom("h")) not in {arg.claim for arg in arguments}


def test_the_unions_a_join_holds_count_against_the_argument_cap():
    framework = framework_of(join_program("c."))
    assert len(enumerate_arguments(framework, max_arguments=8100)) == 60 + 25 + 1 + 8000
    with pytest.raises(CapExceeded, match="^argument saturation held ") as refusal:
        enumerate_arguments(framework, max_arguments=5000)
    # refused while the unions are built: at most one row of 20 past the cap
    held, rest = str(refusal.value).removeprefix("argument saturation held ").split(" ", 1)
    assert 5000 < int(held) <= 5020
    assert rest == "partial unions in the join of rule 'h :- b1, b2, b3, c', past the cap of 5000"


def test_of_two_joins_past_the_cap_the_rule_first_in_sorted_order_is_named():
    # both joins pass the cap in the same round; rules fire in sorted order,
    # whatever the order of the source or of any set
    for last_clause in ("c.\ng :- b3, b2, b1, c.", "g :- b3, b2, b1, c.\nc."):
        framework = framework_of(join_program(last_clause))
        with pytest.raises(CapExceeded, match="^argument saturation held ") as refusal:
            enumerate_arguments(framework, max_arguments=5000)
        assert "the join of rule 'g :- b3, b2, b1, c'" in str(refusal.value)


def test_canonical_argument_order_is_reproducible():
    source = "0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n"
    first, second = aaf_of(source), aaf_of(source)
    assert first.arguments == second.arguments
    assert first.attacks == second.attacks


def test_compute_attacks_includes_self_attacks():
    framework = framework_of("d :- \\+ d.")
    arguments = sorted(enumerate_arguments(framework), key=str)
    attacks = compute_attacks(framework, arguments)
    d_arg = next(i for i, a in enumerate(arguments) if not a.claim.negated)
    assert (d_arg, d_arg) in attacks
