"""Extension semantics for finite abstract argumentation frameworks."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Sequence

from .aba import AaFramework
from .errors import CapExceeded


class Label(Enum):
    IN = "in"
    OUT = "out"
    UNDEC = "undec"


@dataclass(frozen=True)
class Labelling:
    """Index-aligned argument labels; IN iff all attackers OUT, OUT iff some attacker IN."""

    labels: tuple[Label, ...]

    def indices_with(self, label: Label) -> frozenset[int]:
        return frozenset(i for i, lab in enumerate(self.labels) if lab is label)


def attacker_map(aaf: AaFramework) -> dict[int, frozenset[int]]:
    attackers: dict[int, set[int]] = defaultdict(set)
    for source, target in aaf.attacks:
        attackers[target].add(source)
    return {i: frozenset(attackers.get(i, ())) for i in range(len(aaf.arguments))}


def grounded_block(
    active: Sequence[int],
    attackers: Sequence[Collection[int]],
    targets: Sequence[Collection[int]],
) -> list[int]:
    """Grounded labelling of many restrictions of one framework at once.

    Bit w of `active[i]` says whether argument i is in restriction w; the
    result's `[i]` has bit w set iff i is in that restriction's grounded
    extension. `targets` is the inverse of `attackers`, each attack once.

    IN and OUT are vectors per argument. Semi-naive rounds: an argument goes
    IN in the restrictions where it is active, undecided, and each attacker
    is inactive or OUT; the targets of arguments that newly went IN go OUT
    there; only the targets of arguments that newly went OUT are checked in
    the next round, since nothing else can newly go IN.
    """
    inside = [0] * len(active)
    out = [0] * len(active)
    check: Collection[int] = [i for i, vector in enumerate(active) if vector]
    while check:
        went_in = []
        for i in check:
            accept = active[i] & ~(inside[i] | out[i])
            for a in attackers[i]:
                if not accept:
                    break
                accept &= ~active[a] | out[a]
            if accept:
                inside[i] |= accept
                went_in.append((i, accept))
        went_out = set()
        for i, accept in went_in:
            for t in targets[i]:
                beaten = accept & active[t] & ~out[t]
                if beaten:
                    out[t] |= beaten
                    went_out.add(t)
        check = {t for i in went_out for t in targets[i]}
    return inside


def grounded_extension_of(
    active: Collection[int],
    attackers: Mapping[int, Collection[int]] | Sequence[Collection[int]],
    targets: Mapping[int, Collection[int]] | Sequence[Collection[int]] | None = None,
) -> frozenset[int]:
    """Grounded extension of the framework restricted to the active indices.

    The one-restriction case of `grounded_block`, over the active arguments
    renumbered 0..k-1. `targets`, the inverse of `attackers` over all indices
    with each attack listed once, may be passed instead of being derived
    from `attackers`.
    """
    order = sorted(frozenset(active))
    number = {i: n for n, i in enumerate(order)}
    inner_attackers: list[list[int]] = [[] for _ in order]
    inner_targets: list[list[int]] = [[] for _ in order]
    for i in order:
        if targets is None:
            for a in attackers[i]:
                if a in number:
                    inner_attackers[number[i]].append(number[a])
                    inner_targets[number[a]].append(number[i])
        else:
            for t in targets[i]:
                if t in number:
                    inner_targets[number[i]].append(number[t])
                    inner_attackers[number[t]].append(number[i])
    inside = grounded_block([1] * len(order), inner_attackers, inner_targets)
    return frozenset(i for i, vector in zip(order, inside) if vector)


def grounded_extension(aaf: AaFramework) -> frozenset[int]:
    """Indices of the grounded extension (unique, maximally skeptical)."""
    return grounded_extension_of(range(len(aaf.arguments)), attacker_map(aaf))


def grounded_labelling(aaf: AaFramework) -> Labelling:
    """Three-way labelling induced by the grounded extension."""
    inside = grounded_extension(aaf)
    attackers = attacker_map(aaf)
    labels = []
    for i in range(len(aaf.arguments)):
        if i in inside:
            labels.append(Label.IN)
        elif any(a in inside for a in attackers[i]):
            labels.append(Label.OUT)
        else:
            labels.append(Label.UNDEC)
    return Labelling(tuple(labels))


def stable_extensions(
    aaf: AaFramework, max_arguments: int = 25
) -> frozenset[frozenset[int]]:
    """All conflict-free sets attacking every outside argument.

    Exhaustive include/exclude search with conflict pruning; a cross-check
    tool only, guarded by `max_arguments`.
    """
    n = len(aaf.arguments)
    if n > max_arguments:
        raise CapExceeded(
            f"stable-extension search over {n} arguments exceeds the cap of {max_arguments}"
        )
    attacks = aaf.attacks
    results: set[frozenset[int]] = set()
    chosen: set[int] = set()

    def search(i: int) -> None:
        if i == n:
            if all(
                j in chosen or any((m, j) in attacks for m in chosen) for j in range(n)
            ):
                results.add(frozenset(chosen))
            return
        no_conflict = (i, i) not in attacks and all(
            (i, j) not in attacks and (j, i) not in attacks for j in chosen
        )
        if no_conflict:
            chosen.add(i)
            search(i + 1)
            chosen.remove(i)
        search(i + 1)

    search(0)
    return frozenset(results)
