import json
import os
import subprocess
import sys

import pytest

import arglog.equivalence as equivalence_module
from arglog import PaaEngine, ground, random_program
from arglog.cli import main

from conftest import fixture_path

TWO_WORLD = str(fixture_path("two_world.pl"))
ODD_LOOP = str(fixture_path("odd_loop_lp.pl"))
DUPLICATE = str(fixture_path("duplicate_support.pl"))
EMPTY = str(fixture_path("empty.pl"))
REACH = str(fixture_path("reach.pl"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_both_backends(capsys):
    code, out, _ = run(capsys, "query", TWO_WORLD, "--query", "a")
    assert code == 0
    assert "3/10 (0.3)" in out
    assert "agree exactly: yes" in out


def test_query_single_backends(capsys):
    code, out, _ = run(capsys, "query", TWO_WORLD, "--query", "b", "--semantics", "dist")
    assert code == 0 and "3/10" in out and "argumentation" not in out
    code, out, _ = run(capsys, "query", TWO_WORLD, "--query", "b", "--semantics", "arg")
    assert code == 0 and "3/10" in out and "distribution" not in out


def test_query_on_empty_program_is_zero(capsys):
    code, out, _ = run(capsys, "query", EMPTY, "--query", "a", "--semantics", "dist")
    assert code == 0
    assert "0 (0)" in out


def test_query_json_document(capsys):
    code, out, _ = run(
        capsys, "query", TWO_WORLD, "--query", "a", "--format", "json", "--trace"
    )
    assert code == 0
    doc = json.loads(out)
    eq = doc["equivalence"]
    assert eq["success_probability"] == {"fraction": "3/10", "decimal": "0.3"}
    assert eq["grounded_query_probability"]["fraction"] == "3/10"
    assert eq["probabilities_equal"] is True
    assert eq["sum_bounds_success"] is True
    assert len(eq["worlds"]) == 2
    assert all(w["model_matches_claims"] for w in eq["worlds"])


def test_show_lists_framework_components(capsys):
    code, out, _ = run(capsys, "show", ODD_LOOP)
    assert code == 0
    assert "arguments (7):" in out
    assert "attacks (4):" in out
    code, out, _ = run(capsys, "show", TWO_WORLD)
    assert "b -> _chi" in out
    assert "fact assumptions: b" in out


@pytest.mark.filterwarnings("default:degenerate framework")
def test_show_empty_program(capsys):
    code, out, err = run(capsys, "show", EMPTY)
    assert code == 0
    assert "arguments (0):" in out
    assert "(none)" in out
    assert err == (
        "warning: degenerate framework: the program has an empty Herbrand base, "
        "so the assumption set is empty\n"
    )


def test_a_warning_names_no_python_internal_when_run_as_a_module():
    result = subprocess.run(
        [sys.executable, "-m", "arglog", "show", EMPTY],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "warning: degenerate framework: the program has an empty Herbrand base, "
        "so the assumption set is empty"
    ]


def test_check_prints_no_warning_for_empty_generated_programs():
    assert not ground(random_program(23)).herbrand_base
    result = subprocess.run(
        [sys.executable, "-m", "arglog", "check", "--seed-range", "22..24"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "UserWarning" not in result.stderr


@pytest.mark.parametrize("argv", [["worlds", REACH], ["query", TWO_WORLD, "--query", "a"]])
def test_a_reader_that_closes_early_gets_no_traceback(argv):
    """As in `arglog worlds reach.pl | head -1`, with the reader gone before
    the first write."""
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "arglog", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            check=False,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")


def test_worlds_table(capsys):
    code, out, _ = run(capsys, "worlds", TWO_WORLD)
    assert code == 0
    assert "{}  p=7/10 (0.7)" in out
    assert "{b}  p=3/10 (0.3)" in out
    assert "total probability: 1 (1)" in out


def test_worlds_enumerates_the_worlds_once(capsys, monkeypatch):
    """The listing renders the rows of one `world_traces` call and builds no
    world table of its own."""
    import arglog.cli as cli_module
    import arglog.paa as paa_module
    import arglog.worlds as worlds_module

    calls = []
    original = cli_module.world_traces

    def counting(*args):
        calls.append(args)
        return original(*args)

    def refuse(*args):
        raise AssertionError("a world table was built")

    monkeypatch.setattr(cli_module, "world_traces", counting)
    for module in (worlds_module, paa_module):
        monkeypatch.setattr(module, "world_table", refuse)
    code, _, _ = run(capsys, "worlds", TWO_WORLD)
    assert code == 0 and len(calls) == 1


def test_worlds_uniform_rows(capsys, tmp_path):
    path = tmp_path / "three.pl"
    path.write_text("0.5::x.\n0.5::y.\n0.5::z.\n", encoding="utf-8")
    code, out, _ = run(capsys, "worlds", str(path))
    assert code == 0
    assert out.count("p=1/8") == 8


def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.pl"
    path.write_text("1.5::b.\n", encoding="utf-8")
    code, _, err = run(capsys, "query", str(path), "--query", "a")
    assert code == 1
    assert "outside [0,1]" in err


@pytest.mark.parametrize(
    "source, message",
    [
        ("0.5::b(X).\n", "error: 1:1: probabilistic fact '0.5::b(X)' is not ground;"),
        ("q(a).\np(X,Y) :- q(X).\n", "error: 2:1: rule 'p(X,Y) :- q(X)' is not range-restricted"),
        ("p(X) :- q(X).\n", "error: 1:1: rule 'p(X) :- q(X)' contains variables but the program"),
    ],
)
def test_ungroundable_clauses_exit_one_at_their_position(capsys, tmp_path, source, message):
    path = tmp_path / "ungroundable.pl"
    path.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, "query", str(path), "--query", "p")
    assert code == 1 and not out
    assert err.startswith(message)


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "query", "no_such_file.pl", "--query", "a")
    assert code == 1
    assert "error" in err


def test_cap_refusal_exits_two(capsys):
    code, _, err = run(capsys, "worlds", TWO_WORLD, "--worlds-cap", "0")
    assert code == 2
    assert "cap" in err


def test_env_cap_is_used_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("ARGLOG_WORLDS_CAP", "0")
    code, _, _ = run(capsys, "worlds", TWO_WORLD)
    assert code == 2
    code, _, _ = run(capsys, "worlds", TWO_WORLD, "--worlds-cap", "4")
    assert code == 0


@pytest.mark.parametrize(
    "env, flags, source",
    [
        ({"ARGLOG_WORLDS_CAP": "abc"}, [], "ARGLOG_WORLDS_CAP"),
        ({"ARGLOG_ARGS_CAP": "-3"}, [], "ARGLOG_ARGS_CAP"),
        ({}, ["--worlds-cap", "-5"], "--worlds-cap"),
        ({}, ["--worlds-cap", "abc"], "--worlds-cap"),
        ({}, ["--args-cap", "-1"], "--args-cap"),
        ({"ARGLOG_WORLDS_CAP": "2.5"}, ["--worlds-cap", "4"], "ARGLOG_WORLDS_CAP"),
    ],
)
def test_bad_caps_exit_one_naming_their_source(capsys, monkeypatch, env, flags, source):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "query", TWO_WORLD, "--query", "b", *flags)
    assert code == 1 and not out
    assert err.startswith(f"error: {source} must be a non-negative integer")


def test_check_smoke_seed(capsys):
    code, out, _ = run(capsys, "check", "--seed-range", "0..0")
    assert code == 0
    assert "PASS" in out and "0 counterexamples" in out


def test_check_json_summary(capsys):
    code, out, _ = run(capsys, "check", "--seed-range", "0..2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["programs"] == 3
    assert doc["counterexamples"] == 0


def test_check_builds_one_engine_per_program(capsys, monkeypatch):
    # the shared reports and the lone success probability read one engine's
    # saturation, and the worlds are traced once per program
    built, traced = [], []
    original, original_traces = PaaEngine.__init__, equivalence_module.world_traces

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    def counted_traces(*args):
        traced.append(args)
        return original_traces(*args)

    monkeypatch.setattr(PaaEngine, "__init__", counted)
    monkeypatch.setattr(equivalence_module, "world_traces", counted_traces)
    code, out, _ = run(capsys, "check", "--seed-range", "0..9")
    assert code == 0 and "PASS" in out
    assert len(built) == len(traced) == 10


def forget_self_attacks(monkeypatch):
    """Mutation: a build that forgets self-attacks; an argument attacks itself
    when it assumes the contrary of its claim."""
    import dataclasses

    import arglog.paa as paa_module

    original = paa_module.argument_table

    def drop_self_attacks(framework, max_arguments):
        table = original(framework, max_arguments)
        contraries = tuple(
            tuple(c for c in attacking if c != claim)
            for claim, attacking in zip(table.claims, table.contraries)
        )
        return dataclasses.replace(table, contraries=contraries)

    monkeypatch.setattr(paa_module, "argument_table", drop_self_attacks)


def test_check_catches_a_corrupted_build(capsys, monkeypatch, tmp_path):
    # the mutated build must be caught with a trace
    forget_self_attacks(monkeypatch)
    dump = tmp_path / "counterexample.pl"
    code, _, err = run(
        capsys, "check", "--seed-range", "0..20", "--dump", str(dump)
    )
    assert code == 3
    assert "FAIL" in err
    assert dump.exists()
    assert "::" in dump.read_text(encoding="utf-8") or ":-" in dump.read_text(
        encoding="utf-8"
    )
    # the stderr rows are the `query --trace` rows of the dumped program and query
    headline, *rows = err.splitlines()
    query = headline.split(", query ")[1].split(";")[0]
    # that query fails too, with its listing and the failure on stderr
    code, out, err = run(capsys, "query", str(dump), "--query", query, "--trace")
    assert code == 3 and not out
    *listing, failure = err.split("worlds:\n")[1].splitlines()
    assert rows == listing
    assert any(row.endswith(" match=NO") for row in rows)
    assert failure.startswith("FAIL: ") and "does not match its accepted claims" in failure
    # both commands name the failure in the same words
    assert f"; {failure.removeprefix('FAIL: ')}; program written to" in headline


def swap_world_weights(monkeypatch):
    """Mutation: every fact's (absent, chosen) pair swapped. Both routes weigh
    worlds by `world_numerators`, so they still agree; a fact's declared
    probability does not."""
    import arglog.paa as paa_module
    import arglog.worlds as worlds_module

    original = worlds_module.world_numerators

    def swapped(*args):
        lows, highs, denominator = original(*args)
        # with every pair swapped, mask w weighs what its complement weighed
        return lows[::-1], highs[::-1], denominator

    for module in (worlds_module, paa_module):
        monkeypatch.setattr(module, "world_numerators", swapped)


def test_check_catches_world_weights_that_both_routes_share(capsys, monkeypatch, tmp_path):
    swap_world_weights(monkeypatch)
    dump = tmp_path / "counterexample.pl"
    code, _, err = run(capsys, "check", "--seed-range", "0..199", "--dump", str(dump))
    assert code == 3
    assert "the declared probability" in err.splitlines()[0]
    assert "did not match" in dump.read_text(encoding="utf-8").splitlines()[0]
    code, out, err = run(
        capsys, "check", "--seed-range", "0..199", "--dump", str(dump), "--format", "json"
    )
    assert code == 3 and not out
    assert json.loads(err)["failure"].startswith("the declared probability ")


def test_query_catches_world_weights_that_both_routes_share(capsys, monkeypatch, tmp_path):
    swap_world_weights(monkeypatch)
    program = tmp_path / "fact.pl"
    program.write_text("0.3::a. q :- a.\n", encoding="utf-8")
    code, out, err = run(capsys, "query", str(program), "--query", "q")
    assert code == 3 and not out
    # the routes agree on the swapped weights; only the declared probability sees them
    assert "back ends agree exactly: yes" in err
    assert err.splitlines()[-1] == (
        "FAIL: the declared probability 3/10 of a did not match its mass 7/10"
    )
    code, out, err = run(capsys, "query", str(program), "--query", "q", "--format", "json")
    assert code == 3 and not out
    assert json.loads(err)["failure"].startswith("the declared probability 3/10 of a")


def bump_the_first_world_weight(monkeypatch):
    """Mutation: the first world of every block weighs one numerator more.
    Both routes still agree. With at most `BLOCK_BITS` facts, every fact's
    vector lies inside one block and never holds its first world, so each
    fact still weighs its declared probability; only the total weight sees
    the bump."""
    import arglog.paa as paa_module
    import arglog.worlds as worlds_module

    original = worlds_module.world_numerators

    def bumped(*args):
        lows, highs, denominator = original(*args)
        return [lows[0] + 1, *lows[1:]], highs, denominator

    for module in (worlds_module, paa_module):
        monkeypatch.setattr(module, "world_numerators", bumped)


def test_check_and_query_catch_world_weights_that_do_not_sum_to_one(
    capsys, monkeypatch, tmp_path
):
    bump_the_first_world_weight(monkeypatch)
    dump = tmp_path / "counterexample.pl"
    code, _, err = run(capsys, "check", "--seed-range", "0..199", "--dump", str(dump))
    assert code == 3
    assert "in total, not 1" in err.splitlines()[0]
    program = tmp_path / "fact.pl"
    program.write_text("0.3::a. q :- \\+ a.\n", encoding="utf-8")
    code, out, err = run(capsys, "query", str(program), "--query", "q")
    assert code == 3 and not out
    # the routes agree on the bumped weight, 4/5 where 7/10 is right
    assert "success probability (distribution): 4/5 (0.8)" in err
    assert "back ends agree exactly: yes" in err
    assert err.splitlines()[-1] == "FAIL: the worlds weigh 11/10 in total, not 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "invalid choice: 'bogus'"),
        (["query", TWO_WORLD], "the following arguments are required: --query"),
        (["check", "--seed-range", "foo"], "bad seed range 'foo'; expected the form A..B"),
        (["check", "--seed-range", "5..1"], "bad seed range '5..1'; 5 is above 1"),
        (["query", TWO_WORLD, "--query", "a", "--semantics", "arg", "--trace"], "--semantics both"),
    ],
)
def test_usage_errors_exit_one_with_the_usage_on_stderr(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("usage: arglog") and message in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: arglog")


def test_non_utf8_program_exits_one_naming_the_file_and_offset(capsys, tmp_path):
    path = tmp_path / "bad.pl"
    path.write_bytes(b"a.\n\xff\xfe a.\n")
    code, out, err = run(capsys, "show", str(path))
    assert code == 1 and not out
    assert err == f"error: {path}: not UTF-8 text at byte offset 3\n"


@pytest.mark.parametrize(
    "argv, env, refusal, hint",
    [
        (
            ["query", TWO_WORLD, "--query", "a", "--worlds-cap", "0"],
            {},
            "1 probabilistic facts exceed the world-enumeration cap of 0 (2**1 worlds)",
            "--worlds-cap or ARGLOG_WORLDS_CAP",
        ),
        (
            ["query", ODD_LOOP, "--query", "a", "--args-cap", "2"],
            {},
            "argument saturation reached 5 arguments, past the cap of 2",
            "--args-cap or ARGLOG_ARGS_CAP",
        ),
        (
            ["show", ODD_LOOP],
            {"ARGLOG_ARGS_CAP": "2"},
            "argument saturation reached 5 arguments, past the cap of 2",
            "--args-cap or ARGLOG_ARGS_CAP",
        ),
        (
            ["query", TWO_WORLD, "--query", "a", "--semantics", "dist"],
            {"ARGLOG_WORLDS_CAP": "0"},
            "1 probabilistic facts exceed the world-enumeration cap of 0 (2**1 worlds)",
            "--worlds-cap or ARGLOG_WORLDS_CAP",
        ),
        # reach has 3 constants and rules with 2, 3 and 1 variables
        (
            ["query", REACH, "--query", "q(X)", "--ground-cap", "38"],
            {},
            "grounding would make 39 rule instances, past the cap of 38",
            "--ground-cap or ARGLOG_GROUND_CAP",
        ),
        # seed 0's program has four ground rules
        (
            ["check", "--seed-range", "0..0"],
            {"ARGLOG_GROUND_CAP": "3"},
            "grounding would make 4 rule instances, past the cap of 3",
            "--ground-cap or ARGLOG_GROUND_CAP",
        ),
    ],
)
def test_cap_refusals_name_the_setting_that_would_admit_the_run(
    capsys, monkeypatch, argv, env, refusal, hint
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {refusal}; raise it with {hint}\n"


def test_check_counterexample_as_json_goes_to_stderr(capsys, monkeypatch, tmp_path):
    forget_self_attacks(monkeypatch)
    dump = tmp_path / "counterexample.pl"
    code, out, err = run(
        capsys, "check", "--seed-range", "0..20", "--dump", str(dump), "--format", "json"
    )
    assert code == 3 and not out
    doc = json.loads(err)
    assert doc["pass"] is False and doc["counterexamples"] >= 1
    assert doc["dump"] == str(dump) and dump.exists()
    assert any(not row["model_matches_claims"] for row in doc["worlds"])


def run_in_128_mib(tmp_path, *argv):
    """Run arglog on 18 probabilistic facts in a child whose address space
    is capped at 128 MiB."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "facts.pl"
    path.write_text(
        "".join(f"0.3::f{i}.\n" for i in range(18)) + "q :- f0, \\+ f1.\n", encoding="utf-8"
    )

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    return subprocess.run(
        [sys.executable, "-m", "arglog", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        check=False,
        preexec_fn=limit_address_space,
    )


@pytest.mark.parametrize("semantics", ["arg", "both"])
def test_an_argumentation_query_on_18_facts_fits_in_128_mib(tmp_path, semantics):
    """`--semantics arg` holds the numerators and the IN vectors, not a row
    per world, and the rows of `--semantics both` keep no world set: 2**18
    worlds fit in an address space that a world table overflows."""
    result = run_in_128_mib(tmp_path, "query", "--query", "q", "--semantics", semantics)
    assert result.returncode == 0, result.stderr
    assert "21/100" in result.stdout


def test_a_listing_out_of_memory_exits_two_naming_the_worlds_cap(tmp_path):
    result = run_in_128_mib(tmp_path, "worlds")
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: out of memory; ")
    assert "--worlds-cap or ARGLOG_WORLDS_CAP" in result.stderr
