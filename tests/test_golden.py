"""The CLI listings, byte for byte, against files kept under tests/golden/.

`show`, `worlds` and `query --trace`, in human form and as JSON, for the four
fixtures and the chain-1..3 ladder rungs. When a change of output is
intended, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff like any other change.
"""

import sys
import tempfile
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from arglog.cli import main

from conftest import FIXTURES, chain_source

GOLDEN = Path(__file__).parent / "golden"

# program name -> (source text, the atom its query listing asks for)
PROGRAMS = {
    "two_world": ((FIXTURES / "two_world.pl").read_text(encoding="utf-8"), "a"),
    "odd_loop_lp": ((FIXTURES / "odd_loop_lp.pl").read_text(encoding="utf-8"), "a"),
    "duplicate_support": ((FIXTURES / "duplicate_support.pl").read_text(encoding="utf-8"), "q"),
    "empty": ((FIXTURES / "empty.pl").read_text(encoding="utf-8"), "a"),
} | {f"chain-{n}": (chain_source(n), f"a{n}") for n in (1, 2, 3)}

COMMANDS = {
    "show": lambda path, query: ["show", path],
    "worlds": lambda path, query: ["worlds", path],
    "query": lambda path, query: ["query", path, "--query", query, "--trace"],
}

CASES = [
    (program, command, form)
    for program in PROGRAMS
    for command in COMMANDS
    for form in ("human", "json")
]


def golden_path(program: str, command: str, form: str) -> Path:
    return GOLDEN / f"{program}.{command}.{'json' if form == 'json' else 'txt'}"


def cli_output(program: str, command: str, form: str, directory: Path) -> str:
    """What the command writes to standard output for the program."""
    source, query = PROGRAMS[program]
    path = directory / f"{program}.pl"
    path.write_text(source, encoding="utf-8")
    out = StringIO()
    with warnings.catch_warnings(), redirect_stdout(out):
        # the empty program's framework is degenerate, and says so
        warnings.simplefilter("ignore")
        code = main(COMMANDS[command](str(path), query) + ["--format", form])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("program, command, form", CASES)
def test_cli_output_matches_the_golden_file(program, command, form, tmp_path):
    expected = golden_path(program, command, form).read_bytes()
    assert cli_output(program, command, form, tmp_path).encode("utf-8") == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            text = cli_output(*case, Path(directory))
            golden_path(*case).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    sys.exit(regenerate())
