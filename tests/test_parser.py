import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arglog import (
    Atom,
    ParseError,
    Program,
    ValidationError,
    format_probability,
    parse_program,
    parse_query,
    random_program,
)
from arglog.errors import ArglogError, SourceSpan
from arglog.model import Literal, ProbFact, Rule

from test_kernels import probabilistic_programs


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


ROUND_TRIP_SOURCES = [
    "0.3::b.\na :- b, \\+ c.\nd :- \\+ d.\n",
    "1/3::p(1).\nq(X) :- p(X), not r(X).\n",
    "p(X, Y) :- q(X), q(Y).\n0.5::q(1).\n0.25::q(2).\n",
    "",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
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


# "²" is a digit but not a decimal digit: it once reached `int()` as a
# number, or was taken as a constant
@pytest.mark.parametrize(
    "source, column",
    [("²::a.", 1), ("0.5²::a.", 4), ("1²", 2), ("p(²).", 3), ("a :- q(1²).", 9)],
)
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(source, column):
    with pytest.raises(ParseError, match=f"^1:{column}: unexpected character '²'$"):
        parse_program(source)


def test_decimal_digits_of_any_script_are_digits():
    program = parse_program("0.٥::p(٣).")
    assert program.pfacts == frozenset({ProbFact(Fraction(1, 2), Atom("p", ("٣",)))})


# the end of input is where the text ends: after one-character punctuation,
# not one column past it, and after a trailing comment, not at its start
@pytest.mark.parametrize(
    "source, position",
    [
        ("p(", "1:3"),
        ("a :- b,", "1:8"),
        ("a :- b", "1:7"),
        ("a :-\n", "2:1"),
        ("a :-  ", "1:7"),
        ("a :- % no body yet", "1:19"),
    ],
)
def test_end_of_input_is_reported_where_the_text_ends(source, position):
    with pytest.raises(ParseError, match=f"^{position}: expected .*, found 'end of input'$"):
        parse_program(source)


def atom_tokens(atom: Atom) -> list[str]:
    if not atom.args:
        return [atom.predicate]
    terms = [token for term in atom.args for token in (",", term)][1:]
    return [atom.predicate, "(", *terms, ")"]


@st.composite
def program_texts(draw):
    """A program, and a text of it: the clauses in any order, negation
    spelled either way, probabilities as decimals or fractions, and blanks,
    tabs, carriage returns, newlines and comments between the tokens."""
    program = draw(
        st.one_of(
            probabilistic_programs(),
            st.integers(0, 1999).map(random_program),
            st.sampled_from(ROUND_TRIP_SOURCES).map(parse_program),
        )
    )
    clauses = []
    for pf in program.pfacts:
        prob = draw(
            st.sampled_from(
                [[format_probability(pf.prob)], [str(pf.prob.numerator), "/", str(pf.prob.denominator)]]
            )
        )
        clauses.append([*prob, "::", *atom_tokens(pf.atom), "."])
    for rule in program.rules:
        tokens = atom_tokens(rule.head)
        for i, lit in enumerate(rule.body):
            tokens.append("," if i else ":-")
            if lit.negated:
                tokens.append(draw(st.sampled_from(["\\+", "not"])))
            tokens += atom_tokens(lit.atom)
        clauses.append(tokens + ["."])
    blank = st.sampled_from([" ", "\t", "\r", "\n", "% a comment :- 1.5::\n"])
    text, previous = "", None
    for tokens in draw(st.permutations(clauses)):
        for token in tokens:
            # two words need a blank between them; only "not" precedes a word
            gap = draw(st.lists(blank, min_size=1 if previous == "not" else 0, max_size=3))
            text += "".join(gap) + token
            previous = token
    text += draw(st.sampled_from(["", "\n", "% a last comment"]))
    return program, text


@settings(max_examples=300, deadline=None)
@given(program_texts())
def test_layout_and_clause_order_do_not_change_the_program(case):
    program, text = case
    assert parse_program(text) == program


LAYOUT = [" ", "\t", "\n", "\r\n", "% a comment :- @ )\n"]
CLAUSES = ["a.", "p(X, 1) :- q(X), \\+ r.", "b :- not a."]


def counted_position(text: str, offset: int) -> SourceSpan:
    """The line and column of `text[offset]`, counted one character at a time."""
    line = column = 1
    for char in text[:offset]:
        if char == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return SourceSpan(line, column)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(LAYOUT + CLAUSES)),
    st.sampled_from(["@", "$", ")", ","]),
    st.lists(st.sampled_from(LAYOUT + CLAUSES + ["p(", "@", "_x"])),
)
def test_an_unexpected_character_is_reported_where_a_count_puts_it(before, planted, after):
    # whole clauses and layout, then a character that no clause starts with:
    # the tokenizer refuses "@" and "$" wherever the text goes on; the parser
    # refuses ")" and ",", once the whole text has been tokenized
    if planted in ")," and ("@" in after or "_x" in after):
        after = []
    text = "".join(before) + planted + "".join(after)
    with pytest.raises(ParseError) as error:
        parse_program(text)
    span = counted_position(text, len("".join(before)))
    assert error.value.span == span
    assert str(error.value).startswith(f"{span}: ")


# --- the parser's outcomes on seeded token soup, kept under tests/golden/ ---

SOUP = Path(__file__).parent / "golden" / "parser-soup.jsonl"

SOUP_WORDS = ["a", "b", "p", "q", "foo", "a1", "X", "Y", "Abc"]
SOUP_NUMBERS = ["0", "1", "2", "10", "0.5", "0.25", "1.5", "1/2", "2/3", "3/2", "1/0"]
SOUP_MARKS = ["::", ":-", "\\+", "not", "(", ")", ",", ".", "/"]
SOUP_LAYOUT = [" ", "  ", "\t", "\n", "\r", "\r\n", "% a note :- 0.5::\n"]
# drawn only by an edit: a reserved word, digits that are not all decimal
# (a superscript, Arabic-Indic), a form feed and unpaired marks
SOUP_RARE = ["_x", "²", "٣", "٠.٥", "0.5²", "\f", ":", "\\", "%"]


def soup_atom(rng: random.Random) -> list[str]:
    tokens = [rng.choice(SOUP_WORDS[:6]) if rng.random() < 0.95 else rng.choice(SOUP_WORDS)]
    if rng.random() < 0.4:
        terms = [rng.choice(SOUP_WORDS + SOUP_NUMBERS[:4]) for _ in range(rng.randint(1, 3))]
        tokens += ["(", *[t for term in terms for t in (",", term)][1:], ")"]
    return tokens


def soup_clause(rng: random.Random) -> list[str]:
    if rng.random() < 0.3:
        prob = rng.choice(SOUP_NUMBERS)
        if "/" in prob and rng.random() < 0.5:
            prob = prob.replace("/", " / ")
        return [*prob.split(), "::", *soup_atom(rng), "."]
    tokens = soup_atom(rng)
    for i in range(rng.choice([0, 0, 1, 2, 3])):
        tokens.append("," if i else ":-")
        if rng.random() < 0.3:
            tokens.append(rng.choice(["\\+", "not"]))
        tokens += soup_atom(rng)
    return tokens + ["."]


def soup_text(rng: random.Random, tokens: list[str]) -> str:
    """`tokens` after up to three random edits (an insertion, a deletion or
    a replacement from the whole soup), perhaps cut short, with layout
    between them."""
    everything = SOUP_WORDS + SOUP_NUMBERS + SOUP_MARKS + SOUP_LAYOUT + SOUP_RARE
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        at = rng.randint(0, len(tokens))
        edit = rng.randrange(3)
        if edit == 0 or not tokens[at:]:
            tokens.insert(at, rng.choice(everything))
        elif edit == 1:
            del tokens[at]
        else:
            tokens[at] = rng.choice(everything)
    if tokens and rng.random() < 0.15:
        tokens = tokens[: rng.randrange(len(tokens))]
    text = ""
    for token in tokens:
        gap = rng.random()
        text += rng.choice(SOUP_LAYOUT) if gap < 0.3 else " " if gap < 0.7 else ""
        text += token
    return text + rng.choice(["", "", "\n", "% the end", " "])


def soup_case(seed: int) -> tuple[str, str]:
    """A program text and a query text, drawn from `seed`."""
    rng = random.Random(seed)
    clauses = [t for _ in range(rng.randint(0, 4)) for t in soup_clause(rng)]
    query = soup_atom(rng) + (["."] if rng.random() < 0.3 else [])
    return soup_text(rng, clauses), soup_text(rng, query)


def outcome(parse, text: str) -> str:
    """What `parse` makes of `text`: the program's source or the atom, or
    the error it raises, named with its type."""
    try:
        result = parse(text)
    except ArglogError as exc:
        return f"{type(exc).__name__}: {exc}"
    return result.to_source() if isinstance(result, Program) else str(result)


def soup_record(seed: int) -> dict[str, str]:
    program, query = soup_case(seed)
    return {
        "seed": seed,
        "program": program,
        "parsed": outcome(parse_program, program),
        "query": query,
        "query_parsed": outcome(parse_query, query),
    }


SOUP_SEEDS = 2000


def test_seeded_token_soup_parses_as_its_golden_file_says():
    records = [json.loads(line) for line in SOUP.read_text(encoding="utf-8").splitlines()]
    assert [record["seed"] for record in records] == list(range(SOUP_SEEDS))
    for record in records:
        assert outcome(parse_program, record["program"]) == record["parsed"], record
        assert outcome(parse_query, record["query"]) == record["query_parsed"], record


if __name__ == "__main__":
    # rewrite the golden file: PYTHONPATH=src:tests python tests/test_parser.py
    SOUP.write_text(
        "".join(json.dumps(soup_record(seed)) + "\n" for seed in range(SOUP_SEEDS)),
        encoding="utf-8",
    )
