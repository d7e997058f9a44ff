"""Seeded program sets for the benchmark workloads.

Each generator turns the benchmark seed into a fixed list of cases. A case is
program text plus the queries to cross-check; the program under test receives
only the text. `expected` holds a closed-form answer where the program family
has one, so the gate can check the answer itself and not only the agreement
of the two back ends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import arglog


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    query: str | None  # None: query every Herbrand atom against one shared world pass
    expected: Fraction | None = None


def _tenth(rng: random.Random) -> Fraction:
    # 1..9 tenths: no world has probability 0, so every seed does the same work
    return Fraction(rng.randint(1, 9), 10)


def chain_cases(seed: int, n: int = 4) -> list[Case]:
    """The chain-n ladder rung: 2n probabilistic facts, query a<n>.

    The benchmark runs n = 4, the lowest rung of the ladder: one operation
    takes about 0.2 s, and the fastest of many short operations stays
    steady on a loaded shared host where that of 1.2 s chain-5 operations
    did not.

    a_i has a certain derivation through x_i and a second one through y_i
    guarded by an even loop (z_i, w_i) that the well-founded model leaves
    undefined, so a<n> is true exactly when every x_i is chosen.
    """
    rng = random.Random(seed)
    lines = ["a0."]
    px = []
    for i in range(1, n + 1):
        p, q = _tenth(rng), _tenth(rng)
        px.append(p)
        lines += [
            f"{arglog.format_probability(p)}::x{i}.",
            f"{arglog.format_probability(q)}::y{i}.",
            f"a{i} :- a{i - 1}, x{i}.",
            f"a{i} :- a{i - 1}, y{i}, \\+ z{i}.",
            f"z{i} :- \\+ w{i}.",
            f"w{i} :- \\+ z{i}.",
        ]
    return [Case(f"chain{n}", "\n".join(lines) + "\n", f"a{n}", prod(px))]


CORPUS_WINDOW = 200
CORPUS_OFFSETS = 10


def corpus_cases(seed: int) -> list[Case]:
    """The `check` corpus: random_program seeds o..o+199 with o = seed mod 10.

    The offset stays below 10 so that every window keeps the heavy tail the
    window 0..199 has (seed 19: 47 arguments, over a second of saturation)
    and so that no window reaches seed 209, which alone takes several
    seconds from text to engine and would dominate every metric of the window
    holding it.
    """
    offset = seed % CORPUS_OFFSETS
    return [
        Case(f"random{s}", arglog.random_program(s).to_source(), None)
        for s in range(offset, offset + CORPUS_WINDOW)
    ]


def join_cases(seed: int, k: int = 7, extra_edges: int = 8) -> list[Case]:
    """The grounding family: e/2 over k constants and one four-variable join.

    A planted path A->B->C->D has probabilistic first and last edges and no
    edge A->D, so the query p(A,B,C,D) holds exactly when both probabilistic
    edges are chosen. Further deterministic edges are drawn at random; the
    rule has k**4 ground instances, most with an unsatisfiable positive body.
    """
    rng = random.Random(seed)
    consts = [f"c{i}" for i in range(k)]
    a, b, c, d = rng.sample(consts, 4)
    p_ab, p_cd = _tenth(rng), _tenth(rng)
    planted = {(a, b), (b, c), (c, d), (a, d)}
    pairs = [(x, y) for x in consts for y in consts if (x, y) not in planted]
    # one edge at each constant off the path, so that grounding always
    # ranges over all k constants
    edges = [(b, c)]
    for x in consts:
        if x not in (a, b, c, d):
            edges.append(rng.choice([pair for pair in pairs if x in pair and pair not in edges]))
    rest = [pair for pair in pairs if pair not in edges]
    edges += rng.sample(rest, extra_edges + 1 - len(edges))
    lines = [f"e({x},{y})." for x, y in edges]
    lines += [
        f"{arglog.format_probability(p_ab)}::e({a},{b}).",
        f"{arglog.format_probability(p_cd)}::e({c},{d}).",
        "p(X,Y,Z,W) :- e(X,Y), e(Y,Z), e(Z,W), \\+ e(X,W).",
    ]
    return [Case(f"join{k}", "\n".join(lines) + "\n", f"p({a},{b},{c},{d})", p_ab * p_cd)]


WORKLOADS = {"chain": chain_cases, "corpus": corpus_cases, "join": join_cases}
