"""Resource caps for the exhaustive-enumeration engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Guards against blow-ups; exceeding a cap raises CapExceeded, never truncates.

    max_pfacts bounds the number of probabilistic facts (the world space has
    size 2**n). max_arguments bounds argument saturation: the arguments
    found, and the partial unions that one rule's join holds.
    """

    max_pfacts: int = 24
    max_arguments: int = 100_000
