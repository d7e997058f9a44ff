"""Resource caps for grounding and the exhaustive-enumeration engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Guards against blow-ups; exceeding a cap raises CapExceeded, never truncates.

    max_pfacts bounds the number of probabilistic facts (the world space has
    size 2**n). max_arguments bounds argument saturation: the arguments
    found, and the partial unions that one rule's join holds. max_ground_rules
    bounds the rule instances that grounding makes, |constants|**|variables|
    per rule, counted before any is made.
    """

    max_pfacts: int = 24
    max_arguments: int = 100_000
    max_ground_rules: int = 100_000
