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
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ParseError, SourceSpan, ValidationError
from .model import Atom, Literal, ProbFact, Program, Rule, validate

# One alternative per token kind; at each position the first that matches
# wins, so a decimal is tried before an integer, and "::" and ":-" before
# any one-character mark. A dot is part of a number only when a digit
# follows it. WORD takes any word character that is not a decimal digit
# first, so that a word starting with some other digit ("²") is reported.
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<SPACE>[ \t\r]+|%[^\n]*)"
    r"|(?P<DECIMAL>\d+\.\d+)|(?P<NUMBER>\d+)|(?P<WORD>[^\W\d]\w*)"
    r"|(?P<IMPLIES>:-)|(?P<PROBSEP>::)|(?P<NAF>\\\+)|(?P<DOT>\.)|(?P<COMMA>,)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<SLASH>/)|(?P<OTHER>.)"
)


@dataclass(frozen=True)
class Token:
    kind: str  # a group name of _TOKEN; IDENT, VAR or NOT for a WORD; or EOF
    text: str
    span: SourceSpan


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match.group()
        span = SourceSpan(line, match.start() - line_start + 1)
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
            continue
        if kind == "SPACE":
            continue
        if kind == "WORD":
            if word.startswith("_"):
                raise ParseError(
                    f"identifier {word!r} is reserved (the '_' prefix is not available)", span
                )
            if not word[0].isalpha():
                kind, word = "OTHER", word[0]
            elif word == "not":
                kind = "NOT"
            else:
                kind = "VAR" if word[0].isupper() else "IDENT"
        if kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", span)
        tokens.append(Token(kind, word, span))
    tokens.append(Token("EOF", "", SourceSpan(line, len(text) - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.current.kind != kind:
            raise ParseError(
                f"expected {what}, found {self.current.text or 'end of input'!r}",
                self.current.span,
            )
        return self.advance()

    # --- grammar ---

    def atom(self) -> Atom:
        name = self.expect("IDENT", "a predicate symbol")
        args: list[str] = []
        if self.current.kind == "LPAREN":
            self.advance()
            args.append(self.term())
            while self.current.kind == "COMMA":
                self.advance()
                args.append(self.term())
            self.expect("RPAREN", "')'")
        return Atom(name.text, tuple(args))

    def term(self) -> str:
        if self.current.kind in ("IDENT", "VAR", "NUMBER"):
            return self.advance().text
        raise ParseError(
            f"expected a term, found {self.current.text or 'end of input'!r}",
            self.current.span,
        )

    def literal(self) -> Literal:
        if self.current.kind in ("NAF", "NOT"):
            self.advance()
            return Literal(self.atom(), negated=True)
        return Literal(self.atom())

    def probability(self) -> tuple[Fraction, SourceSpan]:
        tok = self.advance()  # a NUMBER or a DECIMAL
        if self.current.kind != "SLASH" or tok.kind == "DECIMAL":
            return Fraction(tok.text), tok.span
        self.advance()
        den = self.expect("NUMBER", "a denominator")
        if int(den.text) == 0:
            raise ParseError("probability denominator is zero", den.span)
        return Fraction(int(tok.text), int(den.text)), tok.span

    def clause(self) -> tuple[Rule | ProbFact, SourceSpan]:
        start = self.current.span
        if self.current.kind in ("NUMBER", "DECIMAL"):
            prob, span = self.probability()
            self.expect("PROBSEP", "'::'")
            atom = self.atom()
            if self.current.kind == "IMPLIES":
                raise ParseError(
                    "a probabilistic fact cannot have a body", self.current.span
                )
            self.expect("DOT", "'.'")
            try:
                return ProbFact(prob, atom), span
            except ValueError as exc:
                raise ParseError(str(exc), span) from None
        head = self.atom()
        body: list[Literal] = []
        if self.current.kind == "IMPLIES":
            self.advance()
            body.append(self.literal())
            while self.current.kind == "COMMA":
                self.advance()
                body.append(self.literal())
        self.expect("DOT", "'.'")
        return Rule(head, tuple(body)), start


def parse_program(text: str) -> Program:
    """Parse program text and validate it; well-formed programs only.

    Raises ParseError for bad syntax and ValidationError (with the offending
    clause positions) when the parsed program breaks a program invariant.
    """
    parser = _Parser(tokenize(text))
    rules: list[Rule] = []
    pfacts: list[ProbFact] = []
    spans: dict[object, SourceSpan] = {}
    pfact_atoms: dict[Atom, SourceSpan] = {}
    while parser.current.kind != "EOF":
        clause, span = parser.clause()
        spans.setdefault(clause, span)
        if isinstance(clause, ProbFact):
            # textual duplicates on one atom are rejected even with equal
            # probabilities: the set model cannot carry two independent
            # choices for the same atom
            if clause.atom in pfact_atoms:
                raise ParseError(
                    f"a probabilistic fact for {clause.atom} was already given at "
                    f"{pfact_atoms[clause.atom]}",
                    span,
                )
            pfact_atoms[clause.atom] = span
            pfacts.append(clause)
        else:
            rules.append(clause)
    program = Program(frozenset(rules), frozenset(pfacts))
    violations = validate(program)
    if violations:
        raise ValidationError(
            v if v.clause not in spans else replace(v, message=f"{spans[v.clause]}: {v.message}")
            for v in violations
        )
    return program


def parse_query(text: str) -> Atom:
    """Parse a query: a single, possibly non-ground atom (no negation)."""
    parser = _Parser(tokenize(text))
    if parser.current.kind in ("NAF", "NOT"):
        raise ParseError(
            "queries are atoms; negation is not allowed here", parser.current.span
        )
    atom = parser.atom()
    if parser.current.kind == "DOT":
        parser.advance()
    if parser.current.kind != "EOF":
        raise ParseError(
            f"unexpected trailing input {parser.current.text!r}", parser.current.span
        )
    return atom
