"""Text front end for the probabilistic logic programming language.

Surface syntax, one clause per "."-terminated statement:

    0.3::b.            probabilistic fact (decimal or num/den probability)
    a :- b, \\+ c.      rule; "\\+" and the keyword "not" both mean
                       negation as failure
    d.                 fact
    % comment to end of line

An identifier is a letter or "_" followed by letters, digits or "_", and
digits are decimal digits. Identifiers starting with a lowercase letter are
predicate/constant symbols; an uppercase first letter makes a term a
variable. The "_" prefix is reserved (it names the built-in contrary of fact
assumptions) and "not" is a keyword, so neither can be used as a symbol.

One `findall` splits the text into token strings, each distinct one is
given its kind or refused, and then one loop reads the clauses. A position
is a token index, which becomes a line and a column only in an error message.
"""

from __future__ import annotations

import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice

from .errors import ParseError, SourceSpan, ValidationError
from .model import Atom, Literal, ProbFact, Program, Rule

# Layout (blanks, line breaks, comments) and then one token, the one group.
# Of the token alternatives, the first that matches wins: a word, tried
# first as the most common, takes any word character that is not a decimal
# digit first, so that a word starting with some other digit ("²") is
# reported; a decimal is tried before an integer, and a dot is part of a
# number only when a digit follows it. The end of input matches "" after the
# last layout: every character is a token or layout, so the layout is never
# given back to the last alternative, one other character.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*"
    r"([^\W\d]\w*|[.,()/]|:-|::|\d+\.\d+|\d+|\\\+|\Z|.)"
)

# a token is its text, from which its kind follows (`_kinds`)
Token = str

# the kinds of the tokens that are not words or numerals; "" is the end of input
_MARKS = {mark: mark for mark in (":-", "::", ".", ",", "(", ")", "/", "")}
_MARKS["\\+"] = _MARKS["not"] = "NOT"


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, the last of them "" at the end of input."""
    return _TOKEN.findall(text)


def _kinds(text: str, tokens: list[Token]) -> dict[Token, str]:
    """The kind of each distinct token: a mark, NOT, IDENT, VAR, NUMBER or
    DECIMAL. Refuses the first token, in text order, that has none: a
    reserved identifier or an unexpected character."""
    kinds = dict(_MARKS)
    bad: list[Token] = []
    for token in set(tokens).difference(_MARKS):
        first = token[0]
        if first.isdecimal():
            kinds[token] = "DECIMAL" if "." in token else "NUMBER"
        elif first.isalpha():
            kinds[token] = "VAR" if first.isupper() else "IDENT"
        else:  # "_" starting a word, another digit, or another character
            bad.append(token)
    if bad:
        index = min(map(tokens.index, bad))
        word = tokens[index]
        if word[0] == "_":
            message = f"identifier {word!r} is reserved (the '_' prefix is not available)"
        else:
            message = f"unexpected character {word[0]!r}"
        raise _error(text, index, message)
    return kinds


def _span(text: str, index: int) -> SourceSpan:
    """Where token `index` of `text` starts."""
    return SourceSpan.at(text, next(islice(_TOKEN.finditer(text), index, None)).start(1))


def _error(text: str, index: int, message: str) -> ParseError:
    return ParseError(message, _span(text, index))


def _found(text: str, tokens: list[Token], index: int, message: str) -> ParseError:
    """`message`, naming token `index`, at its position."""
    return _error(text, index, f"{message}, found {tokens[index] or 'end of input'!r}")


def _atom(
    text: str, tokens: list[Token], kinds: dict[Token, str], i: int, atoms: dict[Token, Atom]
) -> tuple[Atom, int]:
    """The atom at token `i`, and the index of the token after it; an atom
    without arguments is taken from `atoms`, or made and kept there."""
    name = tokens[i]
    if kinds[name] != "IDENT":
        raise _found(text, tokens, i, "expected a predicate symbol")
    if tokens[i + 1] != "(":
        return atoms.get(name) or atoms.setdefault(name, Atom(name)), i + 1
    args = []
    while True:
        i += 2
        if kinds[term := tokens[i]] not in ("IDENT", "VAR", "NUMBER"):
            raise _found(text, tokens, i, "expected a term")
        args.append(term)
        if tokens[i + 1] != ",":
            break
    if tokens[i + 1] != ")":
        raise _found(text, tokens, i + 1, "expected ')'")
    return Atom(name, tuple(args)), i + 2


def _integer(text: str, i: int, digits: str) -> int:
    """The decimal digits of the numeral at token `i` as an int."""
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        limit = f"the limit of {sys.get_int_max_str_digits()} digits for integer conversion"
        raise _error(text, i, f"numeral exceeds {limit}") from None


def _probability(
    text: str, tokens: list[Token], kinds: dict[Token, str], i: int
) -> tuple[Fraction, int]:
    """The probability whose numeral is token `i`, and the index of the token after it."""
    num = tokens[i]
    if kinds[num] == "DECIMAL":
        whole, digits = num.split(".")
        return Fraction(_integer(text, i, whole + digits), 10 ** len(digits)), i + 1
    if tokens[i + 1] != "/":
        return Fraction(_integer(text, i, num)), i + 1
    if kinds[den := tokens[i + 2]] != "NUMBER":
        raise _found(text, tokens, i + 2, "expected a denominator")
    if (denominator := _integer(text, i + 2, den)) == 0:
        raise _error(text, i + 2, "probability denominator is zero")
    return Fraction(_integer(text, i, num), denominator), i + 3


def parse_program(text: str) -> Program:
    """Parse program text and validate it; well-formed programs only.

    Raises ParseError for bad syntax and ValidationError (with the offending
    clause positions) when the parsed program breaks a program invariant.
    The program keeps its violations (`Program.violations`), so grounding it
    does not validate it again.
    """
    tokens = tokenize(text)
    kinds = _kinds(text, tokens)
    # the clauses in text order; a rule's first token index, a fact's under its atom
    rules: list[Rule] = []
    rule_starts: list[int] = []
    pfacts: list[ProbFact] = []
    pfact_atoms: dict[Atom, int] = {}
    atoms: dict[Token, Atom] = {}
    i = 0
    while tokens[i]:
        start = i
        prob = None
        if kinds[tokens[i]] in ("NUMBER", "DECIMAL"):
            prob, i = _probability(text, tokens, kinds, i)
            if tokens[i] != "::":
                raise _found(text, tokens, i, "expected '::'")
            i += 1
        head, i = _atom(text, tokens, kinds, i, atoms)
        body: tuple[Literal, ...] = ()
        if tokens[i] == ":-":
            if prob is not None:
                raise _error(text, i, "a probabilistic fact cannot have a body")
            literals = []
            while True:
                negated = kinds[tokens[i + 1]] == "NOT"
                atom, i = _atom(text, tokens, kinds, i + 1 + negated, atoms)
                literals.append(Literal(atom, negated))
                if tokens[i] != ",":
                    break
            body = tuple(literals)
        if tokens[i] != ".":
            raise _found(text, tokens, i, "expected '.'")
        i += 1
        if prob is None:
            rules.append(Rule(head, body))
            rule_starts.append(start)
            continue
        try:
            pfacts.append(ProbFact(prob, head))
        except ValueError as exc:
            raise _error(text, start, str(exc)) from None
        # textual duplicates on one atom are rejected even with equal
        # probabilities: the set model cannot carry two independent choices
        # for the same atom
        if head in pfact_atoms:
            given = f"was already given at {_span(text, pfact_atoms[head])}"
            raise _error(text, start, f"a probabilistic fact for {head} {given}")
        pfact_atoms[head] = start
    program = Program(frozenset(rules), frozenset(pfacts))
    if program.violations:
        # where each clause first starts
        starts = dict(zip(rules[::-1], rule_starts[::-1]))
        starts.update((pf, pfact_atoms[pf.atom]) for pf in pfacts)
        raise ValidationError(
            v
            if v.clause not in starts
            else replace(v, message=f"{_span(text, starts[v.clause])}: {v.message}")
            for v in program.violations
        )
    return program


def parse_query(text: str) -> Atom:
    """Parse a query: a single, possibly non-ground atom (no negation)."""
    tokens = tokenize(text)
    kinds = _kinds(text, tokens)
    if kinds[tokens[0]] == "NOT":
        raise _error(text, 0, "queries are atoms; negation is not allowed here")
    atom, i = _atom(text, tokens, kinds, 0, {})
    i += tokens[i] == "."
    if tokens[i]:
        raise _error(text, i, f"unexpected trailing input {tokens[i]!r}")
    return atom
