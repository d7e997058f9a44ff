from pathlib import Path

import pytest

from arglog import ground, parse_program

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def chain_source(n: int) -> str:
    """The chain-n ladder rung: 2n probabilistic facts; a<n> is true exactly
    when every x<i> is chosen, since the y<i> derivations hang on an even
    loop that the well-founded model leaves undefined."""
    lines = ["a0."]
    for i in range(1, n + 1):
        lines += [
            f"0.5::x{i}.",
            f"0.5::y{i}.",
            f"a{i} :- a{i - 1}, x{i}.",
            f"a{i} :- a{i - 1}, y{i}, \\+ z{i}.",
            f"z{i} :- \\+ w{i}.",
            f"w{i} :- \\+ z{i}.",
        ]
    return "\n".join(lines) + "\n"


def load_fixture(name: str):
    """Parse and ground a program fixture file."""
    return ground(parse_program(fixture_path(name).read_text(encoding="utf-8")))


@pytest.fixture
def two_world():
    return load_fixture("two_world.pl")


@pytest.fixture
def odd_loop_lp():
    return load_fixture("odd_loop_lp.pl")


@pytest.fixture
def duplicate_support():
    return load_fixture("duplicate_support.pl")
