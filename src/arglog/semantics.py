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


def grounded_extension_of(
    active: Collection[int],
    attackers: Mapping[int, Collection[int]] | Sequence[Collection[int]],
    targets: Mapping[int, Collection[int]] | Sequence[Collection[int]] | None = None,
) -> frozenset[int]:
    """Grounded extension of the framework restricted to the active indices.

    Linear-time labelling: each active argument counts its active attackers
    not yet defeated; an argument whose count is zero is accepted, and every
    argument it attacks is defeated, lowering the counts of that argument's
    targets in turn. `targets`, the inverse of `attackers` over all indices
    with each attack listed once, may be passed when many restrictions of
    one framework are labelled; otherwise it is derived from `attackers`
    over the active indices.
    """
    active = frozenset(active)
    undefeated = {i: len(active.intersection(attackers[i])) for i in active}
    if targets is None:
        inverse: dict[int, list[int]] = defaultdict(list)
        for i in active:
            for a in active.intersection(attackers[i]):
                inverse[a].append(i)
        targets = inverse
    todo = [i for i, count in undefeated.items() if not count]
    extension = set(todo)
    defeated: set[int] = set()
    while todo:
        for beaten in targets[todo.pop()]:
            if beaten not in active or beaten in defeated:
                continue
            defeated.add(beaten)
            for j in targets[beaten]:
                if j in active:
                    undefeated[j] -= 1
                    if not undefeated[j]:
                        extension.add(j)
                        todo.append(j)
    return frozenset(extension)


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
