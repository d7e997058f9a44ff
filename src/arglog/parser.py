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
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from .errors import ParseError, SourceSpan, ValidationError
from .model import Atom, Literal, ProbFact, Program, Rule

# Layout (blanks, line breaks, comments) and then one token; of the token
# alternatives, the first that matches wins, so a decimal is tried before an
# integer, and "::" and ":-" before any one-character mark. A dot is part of
# a number only when a digit follows it. WORD takes any word character that
# is not a decimal digit first, so that a word starting with some other digit
# ("²") is reported. EOF matches after the last layout: every character is a
# token or layout, so the layout is never given back to OTHER.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*"
    r"(?:(?P<DECIMAL>\d+\.\d+)|(?P<NUMBER>\d+)|(?P<WORD>[^\W\d]\w*)"
    r"|(?P<IMPLIES>:-)|(?P<PROBSEP>::)|(?P<NAF>\\\+)|(?P<DOT>\.)|(?P<COMMA>,)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<SLASH>/)|(?P<EOF>\Z)|(?P<OTHER>.))"
)

# (kind, text, offset): a group name of _TOKEN, or IDENT, VAR or NOT for a
# WORD; the token's text; where it starts in the program text. A position
# becomes a line and a column only in an error message.
Token = tuple[str, str, int]


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, the last of them EOF at offset len(text)."""
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        offset = match.start(kind)
        word = text[offset : match.end()]
        if kind == "WORD":
            if word[0] == "_":
                raise ParseError(
                    f"identifier {word!r} is reserved (the '_' prefix is not available)",
                    SourceSpan.at(text, offset),
                )
            if not word[0].isalpha():
                kind, word = "OTHER", word[0]
            elif word == "not":
                kind = "NOT"
            else:
                kind = "VAR" if word[0].isupper() else "IDENT"
        if kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", SourceSpan.at(text, offset))
        tokens.append((kind, word, offset))
        if kind == "EOF":
            break
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.current = self.tokens[0]

    def error(self, message: str, offset: int) -> ParseError:
        return ParseError(message, SourceSpan.at(self.text, offset))

    def advance(self) -> Token:
        tok = self.current
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.current[0] != kind:
            raise self.found(f"expected {what}")
        return self.advance()

    def found(self, message: str) -> ParseError:
        """`message`, naming the current token, at its position."""
        _, word, offset = self.current
        return self.error(f"{message}, found {word or 'end of input'!r}", offset)

    # --- grammar ---

    def atom(self) -> Atom:
        name = self.expect("IDENT", "a predicate symbol")[1]
        if self.current[0] != "LPAREN":
            return Atom(name)
        self.advance()
        args = [self.term()]
        while self.current[0] == "COMMA":
            self.advance()
            args.append(self.term())
        self.expect("RPAREN", "')'")
        return Atom(name, tuple(args))

    def term(self) -> str:
        if self.current[0] in ("IDENT", "VAR", "NUMBER"):
            return self.advance()[1]
        raise self.found("expected a term")

    def literal(self) -> Literal:
        if self.current[0] in ("NAF", "NOT"):
            self.advance()
            return Literal(self.atom(), negated=True)
        return Literal(self.atom())

    def probability(self) -> Fraction:
        kind, num, _ = self.advance()  # a NUMBER or a DECIMAL
        if kind == "DECIMAL":
            whole, digits = num.split(".")
            return Fraction(int(whole + digits), 10 ** len(digits))
        if self.current[0] != "SLASH":
            return Fraction(int(num))
        self.advance()
        _, den, offset = self.expect("NUMBER", "a denominator")
        if int(den) == 0:
            raise self.error("probability denominator is zero", offset)
        return Fraction(int(num), int(den))

    def clause(self) -> Rule | ProbFact:
        if self.current[0] in ("NUMBER", "DECIMAL"):
            offset = self.current[2]
            prob = self.probability()
            self.expect("PROBSEP", "'::'")
            atom = self.atom()
            if self.current[0] == "IMPLIES":
                raise self.error("a probabilistic fact cannot have a body", self.current[2])
            self.expect("DOT", "'.'")
            try:
                return ProbFact(prob, atom)
            except ValueError as exc:
                raise self.error(str(exc), offset) from None
        head = self.atom()
        body: list[Literal] = []
        if self.current[0] == "IMPLIES":
            self.advance()
            body.append(self.literal())
            while self.current[0] == "COMMA":
                self.advance()
                body.append(self.literal())
        self.expect("DOT", "'.'")
        return Rule(head, tuple(body))


def parse_program(text: str) -> Program:
    """Parse program text and validate it; well-formed programs only.

    Raises ParseError for bad syntax and ValidationError (with the offending
    clause positions) when the parsed program breaks a program invariant.
    The program keeps its violations (`Program.violations`), so grounding it
    does not validate it again.
    """
    parser = _Parser(text)
    rules: list[Rule] = []
    pfacts: list[ProbFact] = []
    offsets: dict[object, int] = {}  # where each clause first starts
    pfact_atoms: dict[Atom, int] = {}
    while parser.current[0] != "EOF":
        offset = parser.current[2]
        clause = parser.clause()
        offsets.setdefault(clause, offset)
        if isinstance(clause, ProbFact):
            # textual duplicates on one atom are rejected even with equal
            # probabilities: the set model cannot carry two independent
            # choices for the same atom
            if clause.atom in pfact_atoms:
                raise parser.error(
                    f"a probabilistic fact for {clause.atom} was already given at "
                    f"{SourceSpan.at(text, pfact_atoms[clause.atom])}",
                    offset,
                )
            pfact_atoms[clause.atom] = offset
            pfacts.append(clause)
        else:
            rules.append(clause)
    program = Program(frozenset(rules), frozenset(pfacts))
    if program.violations:
        raise ValidationError(
            v
            if v.clause not in offsets
            else replace(v, message=f"{SourceSpan.at(text, offsets[v.clause])}: {v.message}")
            for v in program.violations
        )
    return program


def parse_query(text: str) -> Atom:
    """Parse a query: a single, possibly non-ground atom (no negation)."""
    parser = _Parser(text)
    if parser.current[0] in ("NAF", "NOT"):
        raise parser.error(
            "queries are atoms; negation is not allowed here", parser.current[2]
        )
    atom = parser.atom()
    if parser.current[0] == "DOT":
        parser.advance()
    if parser.current[0] != "EOF":
        raise parser.error(
            f"unexpected trailing input {parser.current[1]!r}", parser.current[2]
        )
    return atom
