"""The CLI listings, byte for byte, against files kept under tests/golden/.

`show`, `worlds`, `query --trace` and `query` under each `--semantics`, in
human form and as JSON, for the five fixtures and the chain-1..3 ladder
rungs, and `check --seed-range 0..9`; and, under tests/golden/errors/, the
exit code and standard error of `arglog` on malformed input. When a change
of output is intended, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff like any other change.
"""

import os
import shlex
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

from arglog.cli import main

from conftest import FIXTURES, chain_source

GOLDEN = Path(__file__).parent / "golden"

# program name -> (source text, the atom its query listing asks for)
PROGRAMS = {
    "two_world": ((FIXTURES / "two_world.pl").read_text(encoding="utf-8"), "a"),
    "odd_loop_lp": ((FIXTURES / "odd_loop_lp.pl").read_text(encoding="utf-8"), "a"),
    "duplicate_support": ((FIXTURES / "duplicate_support.pl").read_text(encoding="utf-8"), "q"),
    "empty": ((FIXTURES / "empty.pl").read_text(encoding="utf-8"), "a"),
    "reach": ((FIXTURES / "reach.pl").read_text(encoding="utf-8"), "q(X)"),
} | {f"chain-{n}": (chain_source(n), f"a{n}") for n in (1, 2, 3)}

COMMANDS = {
    "show": lambda path, query: ["show", path],
    "worlds": lambda path, query: ["worlds", path],
    "query": lambda path, query: ["query", path, "--query", query, "--trace"],
} | {
    f"query-{semantics}": lambda path, query, semantics=semantics: [
        "query", path, "--query", query, "--semantics", semantics
    ]
    for semantics in ("dist", "arg", "both")
}

# the seeded cross-check reads no program file; its golden is `check.*`
CHECK = ["check", "--seed-range", "0..9"]

FORMS = ("human", "json")

CASES = [
    (program, command, form)
    for program in PROGRAMS
    for command in COMMANDS
    for form in FORMS
] + [(None, "check", form) for form in FORMS]


def golden_path(program: str | None, command: str, form: str) -> Path:
    stem = command if program is None else f"{program}.{command}"
    return GOLDEN / f"{stem}.{'json' if form == 'json' else 'txt'}"


def cli_output(program: str | None, command: str, form: str, directory: Path) -> str:
    """What the command writes to standard output for the program."""
    if program is None:
        argv = CHECK
    else:
        source, query = PROGRAMS[program]
        path = directory / f"{program}.pl"
        path.write_text(source, encoding="utf-8")
        argv = COMMANDS[command](str(path), query)
    out = StringIO()
    with warnings.catch_warnings(), redirect_stdout(out):
        # the empty program's framework is degenerate, and says so
        warnings.simplefilter("ignore")
        code = main(argv + ["--format", form])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("program, command, form", CASES)
def test_cli_output_matches_the_golden_file(program, command, form, tmp_path):
    expected = golden_path(program, command, form).read_bytes()
    assert cli_output(program, command, form, tmp_path).encode("utf-8") == expected


# --- malformed input: the exit code and standard error ---

ERRORS = GOLDEN / "errors"

# the program file every error case reads, in the working directory
BAD = "bad.pl"


def show(source: str | bytes) -> tuple[str | bytes, list[str]]:
    return source, ["show", BAD]


def query(text: str, source: str = "a.\n") -> tuple[str, list[str]]:
    return source, ["query", BAD, "--query", text]


# case name -> (the text of bad.pl, or None for no file; the arguments)
ERROR_CASES = {
    # parser.tokenize
    "unexpected-character": show("a :- b @ c.\n"),
    "reserved-identifier": show("a.\n_chi :- a.\n"),
    "reserved-identifier-in-body": show("x :- _y.\n"),
    # a digit that is not a decimal digit
    "non-decimal-digit-probability": show("²::a.\n"),
    "non-decimal-digit-after-a-decimal": show("0.5²::a.\n"),
    "non-decimal-digit-after-a-number": show("1²"),
    "non-decimal-digit-term": show("p(²).\n"),
    # parser._Parser.expect, one case per expected token
    "expected-predicate": show("a.\nb :- .\n"),
    "expected-predicate-not-keyword": show("not.\n"),
    "expected-rparen": show("p(a b).\n"),
    "expected-probsep": show("0.5 a.\n"),
    "expected-dot": show("a b.\n"),
    "expected-denominator": show("1/x::a.\n"),
    "expected-term": show("p(,).\n"),
    # the end of input, after a word and after one-character punctuation
    "end-of-input-after-word": show("a :- b"),
    "end-of-input-after-paren": show("p("),
    "end-of-input-after-comma": show("a :- b,"),
    "end-of-input-after-newline": show("a :-\n"),
    "end-of-input-after-comment": show("a :- % no body yet"),
    # parser._Parser.probability and clause
    "zero-denominator": show("1/0::a.\n"),
    "probability-above-one": show("3/2::a.\n"),
    "decimal-probability-above-one": show("1.5::a.\n"),
    "probabilistic-fact-with-body": show("0.5::a :- b.\n"),
    # a numeral longer than the interpreter converts to an int
    "digit-limit-decimal": show("0." + "1" * 5000 + "::a.\n"),
    "digit-limit-denominator": show("1/" + "1" * 5000 + "::a.\n"),
    "digit-limit-integer": show("1" * 5001 + "::a.\n"),
    # parser.parse_program
    "duplicate-probabilistic-fact": show("0.5::a.\n% again\n  0.5::a.\n"),
    # model.validate, through parse_program; each message names its clause's position
    "rule-not-range-restricted": show("r(a).\np(X) :- \\+ q(X), r(a).\n"),
    "fact-with-a-variable": show("q(a).\np(X).\n"),
    "rule-without-constants": show("p(X) :- q(X).\n"),
    "probabilistic-fact-not-ground": show("0.5::p(X).\nq(a).\n"),
    # a decimal of 14,000 digits, past the interpreter's limit for printing
    "probabilistic-fact-not-ground-huge-probability": show(f"1/{2**14000}::p(X).\nq(a).\n"),
    "probabilistic-fact-is-rule-head": show("0.5::b.\nb :- c.\n"),
    "probabilistic-fact-matches-a-head": show("q(a).\n0.5::p(a).\np(X) :- q(X).\n"),
    "non-ground-probabilistic-fact-and-head": show("0.5::p(X).\np(a).\n"),
    "several-violations": show("0.5::b.\nb.\np(X).\n0.5::c(Y).\n"),
    # parser.parse_query
    "query-negation": query("\\+ a"),
    "query-not-keyword": query("not a"),
    "query-trailing-input": query("a, b"),
    "query-variable-as-predicate": query("X"),
    "query-unexpected-character": query("a?"),
    "query-empty": query(""),
    # reading the file
    "not-utf8": show(b"a.\n\xff\xfe a.\n"),
    "missing-file": (None, ["show", "missing.pl"]),
    # usage errors and bad caps
    "usage-query-without-query": ("a.\n", ["query", BAD]),
    "usage-show-without-file": (None, ["show"]),
    "usage-unrecognized-argument": ("a.\n", ["show", BAD, "extra"]),
    "usage-bad-seed-range": (None, ["check", "--seed-range", "foo"]),
    "usage-descending-seed-range": (None, ["check", "--seed-range", "5..1"]),
    "usage-negative-seed-range": (None, ["check", "--seed-range=-3..3"]),
    "usage-negative-seed-range-spaced": (None, ["check", "--seed-range", "-3..3"]),
    "usage-trace-without-both": (
        "a.\n",
        ["query", BAD, "--query", "a", "--semantics", "dist", "--trace"],
    ),
    "bad-cap-flag": ("a.\n", ["show", BAD, "--args-cap", "-1"]),
    # cap refusals exit 2
    "worlds-cap": ("0.5::a.\n", ["query", BAD, "--query", "a", "--worlds-cap", "0"]),
    # each probability has 2,386 digits, the answer 1/3**10000 4,772
    "digit-limit-answer": (
        f"1/{3**5000}::f0.\n1/{3**5000}::f1.\nq :- f0, f1.\n",
        ["query", BAD, "--query", "q", "--semantics", "arg"],
    ),
    "arguments-cap": ("a :- \\+ b.\nb :- \\+ a.\n", ["show", BAD, "--args-cap", "3"]),
    # the join of h's body holds 10**3 unions before c is joined
    "arguments-cap-join": (
        "".join(f"b{i} :- \\+ n{j}.\n" for i in (1, 2, 3) for j in range(10))
        + "h :- b1, b2, b3, c.\nc.\n",
        ["show", BAD, "--args-cap", "500"],
    ),
    # 30 edges on a cycle of 30 constants and a four-variable join: 30 + 30**4
    # instances, refused by the default cap before any is made
    "ground-cap": show(
        "".join(f"e(c{i},c{(i + 1) % 30}).\n" for i in range(30))
        + "p(X,Y,Z,W) :- e(X,Y), e(Z,W).\n"
    ),
}


def error_path(case: str) -> Path:
    return ERRORS / f"{case}.txt"


def cli_failure(case: str, directory: Path) -> str:
    """The command line, the exit code and the standard error of the case;
    it must write nothing to standard output."""
    source, argv = ERROR_CASES[case]
    if source is not None:
        data = source if isinstance(source, bytes) else source.encode("utf-8")
        (directory / BAD).write_bytes(data)
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    # argparse wraps the usage to the terminal's width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        os.chdir(directory)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
    assert code != 0 and out.getvalue() == ""
    return f"$ arglog {shlex.join(argv)}\nexit {code}\n{err.getvalue()}"


@pytest.mark.parametrize("case", ERROR_CASES)
def test_malformed_input_fails_as_its_golden_file_says(case, tmp_path):
    expected = error_path(case).read_bytes()
    assert cli_failure(case, tmp_path).encode("utf-8") == expected


@pytest.mark.parametrize("flag", ["--seed", "--seed-r", "--s"])
def test_an_abbreviated_seed_range_flag_fails_as_the_spaced_one(flag, tmp_path, monkeypatch):
    case = "usage-negative-seed-range-spaced"
    monkeypatch.setitem(ERROR_CASES, case, (None, ["check", flag, "-3..3"]))
    _, rest = error_path(case).read_text(encoding="utf-8").split("\n", 1)
    assert cli_failure(case, tmp_path) == f"$ arglog check {flag} -3..3\n{rest}"


def regenerate() -> None:
    ERRORS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            text = cli_output(*case, Path(directory))
            golden_path(*case).write_bytes(text.encode("utf-8"))
        for case in ERROR_CASES:
            error_path(case).write_bytes(cli_failure(case, Path(directory)).encode("utf-8"))


if __name__ == "__main__":
    sys.exit(regenerate())
