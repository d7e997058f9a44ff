from fractions import Fraction

import pytest

from arglog import Atom, CapExceeded, Caps, PaaEngine, ground, parse_program, parse_query
from arglog.aba import AaFramework, Argument
from arglog.equivalence import world_traces
from arglog.model import Literal
from arglog.semantics import grounded_extension
from arglog.worlds import world_numerators, world_probability, world_table

B = Atom("b")


def applicable(world, argument):
    """An argument applies in a world iff the world chose all its fact assumptions."""
    return argument.fact_support <= world


def restrict(aaf, world):
    """The framework with respect to a world: applicable arguments only,
    attacks restricted to the survivors (indices are compacted)."""
    keep = [i for i, arg in enumerate(aaf.arguments) if applicable(world, arg)]
    renumber = {old: new for new, old in enumerate(keep)}
    attacks = frozenset(
        (renumber[i], renumber[j])
        for i, j in aaf.attacks
        if i in renumber and j in renumber
    )
    return AaFramework(tuple(aaf.arguments[i] for i in keep), attacks)


def engine_of(source, **caps):
    return PaaEngine(ground(parse_program(source)), Caps(**caps))


@pytest.fixture
def two_world_engine():
    return engine_of("0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n")


def test_world_probability_products(two_world_engine):
    pfacts = two_world_engine.gp.pfacts
    assert world_probability(frozenset({B}), pfacts) == Fraction(3, 10)
    assert world_probability(frozenset(), pfacts) == Fraction(7, 10)
    assert world_probability(frozenset(), ()) == 1


def test_world_table_sums_to_one(two_world_engine):
    table = two_world_engine.worlds()
    assert len(table) == 2
    assert sum(p for _, p in table) == 1


def test_uniform_three_fact_world_table():
    engine = engine_of("0.5::x.\n0.5::y.\n0.5::z.\n")
    table = engine.worlds()
    assert len(table) == 8
    assert all(p == Fraction(1, 8) for _, p in table)
    assert sum(p for _, p in table) == 1


def test_world_table_cap():
    gp = ground(parse_program("0.5::x.\n0.5::y.\n"))
    refusals = [
        lambda: world_table(gp.pfacts, max_pfacts=1),
        lambda: world_numerators(gp.pfacts, max_pfacts=1),
        lambda: PaaEngine(gp, Caps(max_pfacts=1)).grounded_prob_query(Atom("x")),
    ]
    for refuse in refusals:
        with pytest.raises(CapExceeded, match="^2 probabilistic facts exceed") as refusal:
            refuse()
        assert refusal.value.cap == "max_pfacts"


def test_applicability_follows_fact_support(two_world_engine):
    b_argument = Argument(frozenset({Literal(B)}), Literal(B), frozenset())
    naf_argument = Argument(
        frozenset({Literal(Atom("c"), True)}), Literal(Atom("c"), True), frozenset()
    )
    assert applicable(frozenset({B}), b_argument)
    assert not applicable(frozenset(), b_argument)
    assert applicable(frozenset(), naf_argument)
    assert applicable(frozenset({B}), naf_argument)
    full = frozenset(two_world_engine.framework.fact_assumptions)
    for arg in two_world_engine.aaf.arguments:
        assert applicable(full, arg)


def test_restrict_filters_arguments_and_attacks(two_world_engine):
    aaf = two_world_engine.aaf
    everything = restrict(aaf, frozenset({B}))
    assert everything.arguments == aaf.arguments
    assert everything.attacks == aaf.attacks
    nothing_chosen = restrict(aaf, frozenset())
    assert all(not arg.fact_support for arg in nothing_chosen.arguments)
    assert len(nothing_chosen.arguments) == 5  # four NAF assumptions + the d-argument


def test_restricted_grounded_extension_accepts_the_gated_claim(two_world_engine):
    restricted = restrict(two_world_engine.aaf, frozenset({B}))
    claims = {
        restricted.arguments[i].claim for i in grounded_extension(restricted)
    }
    assert Literal(Atom("a")) in claims


def test_applicability_is_monotone(two_world_engine):
    aaf = two_world_engine.aaf
    small = {i for i, a in enumerate(aaf.arguments) if applicable(frozenset(), a)}
    large = {i for i, a in enumerate(aaf.arguments) if applicable(frozenset({B}), a)}
    assert small <= large


def test_grounded_prob_argument_values(two_world_engine):
    a_argument = Argument(
        frozenset({Literal(B), Literal(Atom("c"), True)}),
        Literal(Atom("a")),
        frozenset(r for r in two_world_engine.gp.rules if r.head == Atom("a")),
    )
    assert two_world_engine.grounded_prob_argument(a_argument) == Fraction(3, 10)
    not_c = Argument(
        frozenset({Literal(Atom("c"), True)}), Literal(Atom("c"), True), frozenset()
    )
    assert two_world_engine.grounded_prob_argument(not_c) == 1
    with pytest.raises(KeyError):
        two_world_engine.grounded_prob_argument(
            Argument(frozenset(), Literal(Atom("zz")), frozenset())
        )


def test_applicable_indices_refuses_atoms_that_are_not_probabilistic_facts():
    engine = engine_of("0.5::a.\n0.5::b.\nc :- a.\n")
    a, b = Atom("a"), Atom("b")
    claims = {t.world: t.accepted_claims for t in world_traces(engine.gp, engine)}
    assert Literal(Atom("c")) in claims[frozenset({a})]
    assert Literal(Atom("c"), True) in claims[frozenset({b})]
    for outsider in (Atom("c"), Atom("zz")):
        with pytest.raises(KeyError, match=f"{outsider} is not a probabilistic fact"):
            engine.applicable_indices(frozenset({b, outsider}))


def test_zero_probability_fact_gives_zero_argument_probability():
    engine = engine_of("0::g.\nq :- g.\n")
    q_argument = next(
        arg for arg in engine.aaf.arguments if arg.claim == Literal(Atom("q"))
    )
    assert engine.grounded_prob_argument(q_argument) == 0
    assert engine.grounded_prob_query(Atom("q")) == 0


def test_grounded_prob_query_values(two_world_engine):
    assert two_world_engine.grounded_prob_query(Atom("a")) == Fraction(3, 10)
    assert two_world_engine.grounded_prob_query(Atom("b")) == Fraction(3, 10)
    assert two_world_engine.grounded_prob_query(Atom("zz")) == 0


def test_grounded_prob_query_handles_nonground_queries():
    engine = engine_of("0.5::p(1).\n0.25::p(2).\n")
    # some instance of p(X): 1 - (1-1/2)(1-1/4)
    assert engine.grounded_prob_query(parse_query("p(X)")) == Fraction(5, 8)


def test_argument_probability_sum_counts_duplicate_derivations():
    engine = engine_of("0.5::f.\ng.\nq :- f.\nq :- f, g.\n")
    q = Atom("q")
    assert engine.grounded_prob_query(q) == Fraction(1, 2)
    assert engine.argument_probability_sum(q) == 1


def test_degenerate_warning_names_the_callers_line_with_its_text_unchanged():
    message = (
        "degenerate framework: the program has an empty Herbrand base, "
        "so the assumption set is empty"
    )
    with pytest.warns(UserWarning) as record:
        PaaEngine(ground(parse_program("")))
    assert [(str(w.message), w.filename) for w in record] == [(message, __file__)]
