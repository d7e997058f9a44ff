"""Extension semantics for finite abstract argumentation frameworks."""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import and_
from typing import Collection, Mapping, Sequence

from .aba import AaFramework
from .errors import CapExceeded


def attacker_map(aaf: AaFramework) -> dict[int, frozenset[int]]:
    attackers: dict[int, set[int]] = defaultdict(set)
    for source, target in aaf.attacks:
        attackers[target].add(source)
    return {i: frozenset(attackers.get(i, ())) for i in range(len(aaf.arguments))}


def grounded_block(
    active: Sequence[int],
    groups: Sequence[int],
    attacked_by: Sequence[Collection[int]],
) -> list[int]:
    """Grounded labelling of many restrictions of one framework at once.

    Bit w of `active[i]` says whether argument i is in restriction w; the
    result's `[i]` has bit w set iff i is in that restriction's grounded
    extension. Attacks come by group: argument i belongs to group
    `groups[i]`, and j is attacked by every member of each group in
    `attacked_by[j]`. In a flat ABA framework a group is the arguments
    claiming one sentence; in an abstract one, each argument is its own group.

    IN and OUT are vectors per argument. Semi-naive rounds: an argument goes
    IN in the restrictions where it is active, undecided, and every member of
    each attacking group is inactive or OUT; the targets of arguments that
    newly went IN go OUT there; only the targets of groups with a member that
    newly went OUT are checked in the next round, since nothing else can
    newly go IN.
    """
    members: dict[int, list[int]] = defaultdict(list)
    for i, group in enumerate(groups):
        members[group].append(i)
    targets: dict[int, list[int]] = defaultdict(list)
    for j, attacking in enumerate(attacked_by):
        for group in attacking:
            targets[group].append(j)
    inside = [0] * len(active)
    out = [0] * len(active)

    def defeat(group: int) -> int:
        """The restrictions where every member of the group is inactive or OUT."""
        return reduce(and_, [~active[m] | out[m] for m in members[group]], -1)

    defeated = {group: defeat(group) for group in targets}
    check: Collection[int] = [i for i, vector in enumerate(active) if vector]
    while check:
        went_in = []
        for i in check:
            accept = active[i] & ~(inside[i] | out[i])
            for group in attacked_by[i]:
                if not accept:
                    break
                accept &= defeated[group]
            if accept:
                inside[i] |= accept
                went_in.append((i, accept))
        hit = set()
        for i, accept in went_in:
            for t in targets[groups[i]]:
                beaten = accept & active[t] & ~out[t]
                if beaten:
                    out[t] |= beaten
                    hit.add(groups[t])
        for group in hit:
            defeated[group] = defeat(group)
        check = {t for group in hit for t in targets[group]}
    return inside


def grounded_extension_of(
    active: Collection[int],
    attackers: Mapping[int, Collection[int]] | Sequence[Collection[int]],
) -> frozenset[int]:
    """Grounded extension of the framework restricted to the active indices.

    The one-restriction case of `grounded_block`, over the active arguments
    renumbered 0..k-1, each its own group.
    """
    order = sorted(frozenset(active))
    number = {i: n for n, i in enumerate(order)}
    attacked_by = [[number[a] for a in attackers[i] if a in number] for i in order]
    inside = grounded_block([1] * len(order), range(len(order)), attacked_by)
    return frozenset(i for i, vector in zip(order, inside) if vector)


def grounded_extension(aaf: AaFramework) -> frozenset[int]:
    """Indices of the grounded extension (unique, maximally skeptical)."""
    return grounded_extension_of(range(len(aaf.arguments)), attacker_map(aaf))


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
