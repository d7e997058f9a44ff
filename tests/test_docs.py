"""The README's examples run as shown, and its list of exported names is the
package's public surface."""

import re
from inspect import ismodule
from pathlib import Path

import arglog
from arglog.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_blocks(language=""):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.S | re.M)


def test_library_example_runs():
    (block,) = [b for b in readme_blocks("python") if "check_query" in b]
    exec(block, {})


def test_query_example_prints_what_the_readme_shows(capsys, monkeypatch):
    (block,) = [b for b in readme_blocks() if b.startswith("$ arglog query ")]
    command, *shown = block.splitlines()
    monkeypatch.chdir(ROOT)
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_exported_names_are_the_ones_the_readme_lists():
    (paragraph,) = re.findall(r"^`arglog` exports .*?\n\n", README, flags=re.S | re.M)
    listed = set(re.findall(r"`(\w+)`", paragraph)) - {"arglog"}
    public = {
        name
        for name, value in vars(arglog).items()
        if not name.startswith("_") and not ismodule(value)
    }
    assert public == listed == {
        "PaaEngine", "check_query", "ground", "parse_program", "parse_query",
        "Caps", "world_traces", "Atom", "matches", "format_probability", "random_program",
        "check_program", "EquivalenceReport", "WorldTrace", "success_probability",
        "Program", "GroundProgram",
        "ArglogError", "CapExceeded", "GroundingError", "ParseError", "ValidationError",
    }  # fmt: skip
