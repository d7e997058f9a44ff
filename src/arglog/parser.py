"""Text front end for the probabilistic logic programming language.

Surface syntax, one clause per "."-terminated statement:

    0.3::b.            probabilistic fact (decimal or num/den probability)
    a :- b, \\+ c.      rule; "\\+" and the keyword "not" both mean
                       negation as failure
    d.                 fact
    % comment to end of line

Identifiers starting with a lowercase letter are predicate/constant symbols;
an uppercase first letter makes a term a variable. The "_" prefix is reserved
(it names the built-in contrary of fact assumptions) and "not" is a keyword,
so neither can be used as a symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ParseError, SourceSpan, ValidationError
from .model import Atom, Literal, ProbFact, Program, Rule, validate

_PUNCT = {
    ":-": "IMPLIES",
    "::": "PROBSEP",
    "\\+": "NAF",
    ".": "DOT",
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
    "/": "SLASH",
}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT VAR NUMBER DECIMAL NOT or a _PUNCT kind or EOF
    text: str
    span: SourceSpan


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, col)
        two = text[i : i + 2]
        if two in _PUNCT:
            tokens.append(Token(_PUNCT[two], two, SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            kind = "NUMBER"
            # a dot is part of the number only when a digit follows
            if j < n - 1 and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                kind = "DECIMAL"
            word = text[i:j]
            tokens.append(Token(kind, word, SourceSpan(line, col, len(word))))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.startswith("_"):
                raise ParseError(
                    f"identifier {word!r} is reserved (the '_' prefix is not available)",
                    SourceSpan(line, col, len(word)),
                )
            if word == "not":
                kind = "NOT"
            elif word[0].isupper():
                kind = "VAR"
            else:
                kind = "IDENT"
            tokens.append(Token(kind, word, SourceSpan(line, col, len(word))))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, SourceSpan(line, col, 1)))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(Token("EOF", "", SourceSpan(line, col)))
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
        tok = self.advance()
        if tok.kind == "DECIMAL":
            return Fraction(tok.text), tok.span
        if tok.kind == "NUMBER":
            if self.current.kind == "SLASH":
                self.advance()
                den = self.expect("NUMBER", "a denominator")
                if int(den.text) == 0:
                    raise ParseError("probability denominator is zero", den.span)
                return Fraction(int(tok.text), int(den.text)), tok.span
            return Fraction(int(tok.text)), tok.span
        raise ParseError(f"expected a probability, found {tok.text!r}", tok.span)

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
