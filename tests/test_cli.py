import json

import pytest

from arglog.cli import main

from conftest import fixture_path

TWO_WORLD = str(fixture_path("two_world.pl"))
ODD_LOOP = str(fixture_path("odd_loop_lp.pl"))
DUPLICATE = str(fixture_path("duplicate_support.pl"))
EMPTY = str(fixture_path("empty.pl"))


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


def test_show_empty_program(capsys):
    with pytest.warns(UserWarning, match="degenerate"):
        code, out, _ = run(capsys, "show", EMPTY)
    assert code == 0
    assert "arguments (0):" in out
    assert "(none)" in out


def test_worlds_table(capsys):
    code, out, _ = run(capsys, "worlds", TWO_WORLD)
    assert code == 0
    assert "{}  p=7/10 (0.7)" in out
    assert "{b}  p=3/10 (0.3)" in out
    assert "total probability: 1 (1)" in out


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


def test_check_catches_a_corrupted_build(capsys, monkeypatch, tmp_path):
    # mutation: a build that forgets self-attacks must be caught with a trace
    import arglog.aba as aba_module

    original = aba_module.compute_attacks

    def drop_self_attacks(framework, arguments):
        return frozenset(
            (i, j) for i, j in original(framework, arguments) if i != j
        )

    monkeypatch.setattr(aba_module, "compute_attacks", drop_self_attacks)
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
