"""Exception hierarchy and source positions for error reporting."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Position of a construct in program text (1-based line and column)."""

    line: int
    column: int

    @classmethod
    def at(cls, text: str, offset: int) -> "SourceSpan":
        """The position of `text[offset]`, or of the end of input at
        `len(text)`; only a line feed starts a line."""
        return cls(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ArglogError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ArglogError):
    """Malformed program or query text."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class ValidationError(ArglogError):
    """A parsed program breaks a well-formedness constraint."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class GroundingError(ArglogError):
    """The program cannot be finitely grounded as written."""


class CapExceeded(ArglogError):
    """A configured resource cap would be exceeded; the operation refuses to run.

    `cap` names the `Caps` field that refused, when the cap is one of them.
    """

    def __init__(self, message: str, cap: str | None = None):
        self.cap = cap
        super().__init__(message)
