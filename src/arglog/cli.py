"""Command-line front end.

Commands: query (probability of an atom under either or both back ends),
show (the argumentation view of a program), worlds (the world table with
accepted claims), check (the seeded cross-check suite). Exit codes: 0 ok,
1 input error or a reader that closed standard output, 2 resource-cap
refusal or a run out of memory, 3 counterexample found by check, by a
cross-checked query or by the world listing.

All listings are canonically ordered so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

from .distribution import success_probability
from .equivalence import WorldTrace, check_program, check_query, random_program
from .equivalence import weight_failures, world_traces, world_weight
from .errors import ArglogError, CapExceeded
from .grounder import ground
from .limits import Caps
from .model import GroundProgram
from .paa import PaaEngine
from .parser import parse_program, parse_query

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_COUNTEREXAMPLE = 3

# each Caps field: its flag, its environment variable and the flag's help;
# the argument parser, `resolve_caps` and the refusal hint all read this table
CAP_SETTINGS = {
    "max_pfacts": (
        "--worlds-cap",
        "ARGLOG_WORLDS_CAP",
        "max probabilistic facts for world enumeration (2**N worlds)",
    ),
    "max_arguments": ("--args-cap", "ARGLOG_ARGS_CAP", "max arguments, and unions in one join"),
    "max_ground_rules": (
        "--ground-cap",
        "ARGLOG_GROUND_CAP",
        "max rule instances that grounding makes",
    ),
}


def probability_doc(value: Fraction) -> dict:
    """The exact fraction, and its decimal to 12 significant digits in no exponent form."""
    with localcontext() as ctx:
        ctx.prec = 12
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return {"fraction": str(value), "decimal": format(quotient.normalize(), "f")}


def _probability_text(doc: dict) -> str:
    return f"{doc['fraction']} ({doc['decimal']})"


def resolve_caps(args: argparse.Namespace) -> Caps:
    """Defaults, overridden by environment variables, overridden by flags.

    A value that is not a non-negative integer is an input error naming the
    variable or flag it came from. An empty environment variable is unset.
    """
    values = {}
    for field, (flag, env, _) in CAP_SETTINGS.items():
        for text, source in ((os.environ.get(env) or None, env), (getattr(args, field), flag)):
            if text is not None:
                if not text.strip().isdecimal():
                    raise ArglogError(f"{source} must be a non-negative integer, not {text!r}")
                values[field] = int(text)
    return Caps(**values)


def load_ground_program(path: str, caps: Caps) -> GroundProgram:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ArglogError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return ground(parse_program(text), caps)


# --- rendering helpers ---


def _argument_line(arg, rule_names: dict) -> str:
    support = ", ".join(_names(arg.assumptions))
    used = ",".join(rule_names[r] for r in sorted(arg.rules_used))
    return f"{{{support}}} ⊢[{used}] {arg.claim}"


def _names(items) -> list[str]:
    return [str(item) for item in sorted(items)]


def _braced(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _world_row(world, probability: Fraction, claims) -> dict:
    """One world, its probability and its accepted claims, as a JSON row."""
    return {
        "world": _names(world),
        "probability": probability_doc(probability),
        "accepted_claims": _names(claims),
    }


def _trace_row(t: WorldTrace) -> dict:
    """One world of a trace, as the JSON row that every rendering reads."""
    return _world_row(t.world, t.probability, t.accepted_claims) | {
        "true_atoms": _names(t.model.true_atoms),
        "false_atoms": _names(t.model.false_atoms),
        "undefined_atoms": _names(t.model.undefined_atoms),
        "model_matches_claims": t.model_matches_claims,
    }


def _trace_line(row: dict) -> str:
    """The human form of a `_trace_row`."""
    undefined = f" undefined={_braced(row['undefined_atoms'])}" if row["undefined_atoms"] else ""
    return (
        f"  {_braced(row['world'])} p={_probability_text(row['probability'])}"
        f" true={_braced(row['true_atoms'])}{undefined}"
        f" accepted={_braced(row['accepted_claims'])}"
        f" match={'yes' if row['model_matches_claims'] else 'NO'}"
    )


# --- commands ---
#
# Each command returns its exit code, its JSON document, and its human lines,
# which it renders from the document alone; `main` prints one of the two.


def _verdict(failures: list[str], doc: dict, lines: list[str]) -> tuple[int, dict, list[str]]:
    """Exit 0, or exit 3 naming the failures under `failure` and in a last line."""
    if not failures:
        return EXIT_OK, doc, lines
    doc["failure"] = "; ".join(failures)
    return EXIT_COUNTEREXAMPLE, doc, lines + [f"FAIL: {doc['failure']}"]


def cmd_query(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file, caps)
    query = parse_query(args.query)
    doc: dict = {"command": "query", "query": str(query), "semantics": args.semantics}
    if args.semantics == "dist":
        prob = success_probability(query, gp, caps.max_pfacts)
        doc["distribution"] = {"probability": probability_doc(prob)}
    elif args.semantics == "arg":
        prob = PaaEngine(gp, caps).grounded_prob_query(query)
        doc["argumentation"] = {"probability": probability_doc(prob)}
    else:
        engine = PaaEngine(gp, caps)
        report = check_query(query, gp, caps, engine=engine)
        doc["equivalence"] = {
            "query": str(report.query),
            "success_probability": probability_doc(report.success_probability),
            "grounded_query_probability": probability_doc(report.grounded_query_probability),
            "argument_probability_sum": probability_doc(report.argument_probability_sum),
            "probabilities_equal": report.probabilities_equal,
            "sum_bounds_success": report.sum_bounds_success,
        }
        if args.trace:
            doc["equivalence"]["worlds"] = [_trace_row(t) for t in report.world_traces]

    lines = [f"query: {doc['query']}"]
    for part, label in (
        ("distribution", "success probability (distribution)"),
        ("argumentation", "grounded probability (argumentation)"),
    ):
        if part in doc:
            lines.append(f"{label}: {_probability_text(doc[part]['probability'])}")
    if "equivalence" in doc:
        eq = doc["equivalence"]
        lines += [
            f"success probability (distribution): {_probability_text(eq['success_probability'])}",
            "grounded probability (argumentation): "
            + _probability_text(eq["grounded_query_probability"]),
            f"per-argument probability sum: {_probability_text(eq['argument_probability_sum'])}",
            f"back ends agree exactly: {'yes' if eq['probabilities_equal'] else 'NO'}",
            f"argument sum bounds success: {'yes' if eq['sum_bounds_success'] else 'NO'}",
        ]
        if "worlds" in eq:
            lines += ["worlds:"] + [_trace_line(row) for row in eq["worlds"]]
        return _verdict(report.failures + weight_failures(engine), doc, lines)
    return EXIT_OK, doc, lines


def cmd_show(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file, caps)
    engine = PaaEngine(gp, caps)
    framework, aaf = engine.framework, engine.aaf
    rule_names = {rule: f"r{i}" for i, rule in enumerate(sorted(gp.rules), start=1)}
    arg_names = [f"a{i + 1}" for i in range(len(aaf.arguments))]
    doc = {
        "command": "show",
        "rules": {name: str(rule) for rule, name in rule_names.items()},
        "fact_assumptions": _names(framework.fact_assumptions),
        "assumptions": _names(framework.assumptions),
        "contraries": {str(a): str(c) for a, c in framework.contraries()},
        "arguments": {
            name: _argument_line(arg, rule_names) for name, arg in zip(arg_names, aaf.arguments)
        },
        "attacks": [[arg_names[i], arg_names[j]] for i, j in sorted(aaf.attacks)],
    }

    def section(header: str, rows: list[str]) -> list[str]:
        return [header] + (rows if rows else ["  (none)"])

    lines = section("rules:", [f"  {name}: {rule}" for name, rule in doc["rules"].items()])
    lines.append(f"fact assumptions: {', '.join(doc['fact_assumptions']) or '(none)'}")
    lines += section(
        "assumptions and contraries:",
        [f"  {a} -> {c}" for a, c in doc["contraries"].items()],
    )
    lines += section(
        f"arguments ({len(doc['arguments'])}):",
        [f"  {name}: {line}" for name, line in doc["arguments"].items()],
    )
    lines += section(
        f"attacks ({len(doc['attacks'])}):", [f"  {i} -> {j}" for i, j in doc["attacks"]]
    )
    return EXIT_OK, doc, lines


def cmd_worlds(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    caps = resolve_caps(args)
    engine = PaaEngine(load_ground_program(args.file, caps), caps)
    traces = world_traces(engine.gp, engine)
    rows = [_world_row(t.world, t.probability, t.accepted_claims) for t in traces]
    failures = traces.failures + weight_failures(engine)
    del traces  # the rows hold all that is printed; free the block vectors before rendering
    total = world_weight(engine)
    doc = {"command": "worlds", "worlds": rows, "total_probability": probability_doc(total)}
    lines = [
        f"{_braced(row['world'])}  p={_probability_text(row['probability'])}  "
        f"accepted: {', '.join(row['accepted_claims']) or '(none)'}"
        for row in rows
    ]
    lines.append(f"total probability: {_probability_text(doc['total_probability'])}")
    return _verdict(failures, doc, lines)


def _parse_seed_range(text: str) -> tuple[int, int]:
    try:
        first, last = map(int, text.split("..", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed range {text!r}; expected the form A..B"
        ) from None
    if first > last:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}; {first} is above {last}")
    # random.Random seeds with the absolute value: -3..3 holds four programs
    if first < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}; seeds are non-negative")
    return first, last


def cmd_check(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    caps = resolve_caps(args)
    first, last = args.seed_range
    queries = 0
    counterexamples = []  # (seed, program, report, what failed)
    with warnings.catch_warnings():
        # generated programs are sometimes empty, and that is expected here
        warnings.filterwarnings("ignore", "degenerate framework", UserWarning)
        for seed in range(first, last + 1):
            program = random_program(seed)
            gp = ground(program, caps)
            engine = PaaEngine(gp, caps)
            reports = check_program(gp, caps, engine)
            queries += len(reports)
            if not reports:
                continue  # no atom, so no query to report a failure on
            # the seeded query carries what is checked once per program: the
            # world weights against the input, and its success probability
            # from the distribution route's own pass over the worlds, which
            # the shared reports never call
            seeded = reports[seed % len(reports)]
            program_failures = weight_failures(engine)
            lone = success_probability(seeded.query, gp, caps.max_pfacts)
            if lone != seeded.success_probability:
                program_failures.append(
                    f"alone it did not give the shared answers (success probability "
                    f"{lone}, not {seeded.success_probability})"
                )
            for report in reports:
                failures = report.failures + (program_failures if report is seeded else [])
                if failures:
                    counterexamples.append((seed, program, report, "; ".join(failures)))
    doc = {
        "command": "check",
        "seeds": f"{first}..{last}",
        "programs": last - first + 1,
        "queries": queries,
        "counterexamples": len(counterexamples),
        "pass": not counterexamples,
    }
    if not counterexamples:
        return EXIT_OK, doc, [
            f"PASS: seeds {doc['seeds']}, {doc['programs']} programs, "
            f"{doc['queries']} queries, 0 counterexamples"
        ]
    seed, program, report, failure = counterexamples[0]
    with open(args.dump, "w", encoding="utf-8") as handle:
        handle.write(f"% seed {seed}, query {report.query}; {failure}\n")
        handle.write(f"% success probability {report.success_probability}, ")
        handle.write(f"grounded {report.grounded_query_probability}\n")
        handle.write(program.to_source())
    doc |= {
        "seed": seed,
        "query": str(report.query),
        "failure": failure,
        "dump": args.dump,
        "worlds": [_trace_row(t) for t in report.world_traces],
    }
    return EXIT_COUNTEREXAMPLE, doc, [
        f"FAIL: {doc['counterexamples']} counterexample(s); first at seed {doc['seed']}, "
        f"query {doc['query']}; {failure}; program written to {doc['dump']}"
    ] + [_trace_line(row) for row in doc["worlds"]]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arglog",
        description="Exact query probabilities for probabilistic logic programs, "
        "computed by two independent back ends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, with_file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, usage_error=p.error)
        if with_file:
            p.add_argument("file", help="program file")
        p.add_argument(
            "--format", choices=("human", "json"), default="human", help="output format"
        )
        for field, (flag, _, help_text) in CAP_SETTINGS.items():
            p.add_argument(flag, dest=field, metavar="N", help=help_text)
        return p

    p_query = command("query", cmd_query, "probability of a query atom")
    p_query.add_argument("--query", required=True, help="query atom text")
    p_query.add_argument(
        "--semantics",
        choices=("dist", "arg", "both"),
        default="both",
        help="which back end(s) to run",
    )
    p_query.add_argument(
        "--trace", action="store_true", help="include the per-world breakdown (needs both)"
    )
    command("show", cmd_show, "argumentation view of the program")
    command("worlds", cmd_worlds, "world table with accepted claims")
    p_check = command("check", cmd_check, "seeded cross-check of both back ends", with_file=False)
    p_check.add_argument(
        "--seed-range",
        type=_parse_seed_range,
        default=(0, 99),
        metavar="A..B",
        help="inclusive seed range (default 0..99)",
    )
    p_check.add_argument(
        "--dump",
        default="counterexample.pl",
        metavar="PATH",
        help="where to write a counterexample program, if found",
    )
    return parser


def _join_dashed_seed_range(argv: list[str]) -> list[str]:
    """argparse takes `-3..3` in `--seed-range -3..3` for an option and
    reports a missing argument; join a value that starts with `-` and a
    digit to the flag, as `--seed-range=-3..3`, so the range's own parser
    refuses it. The flag may be abbreviated, as argparse allows (`--seed`);
    the joined form then resolves as the flag alone would. Arguments after
    `--` are left as they are."""
    out = []
    for arg in argv:
        dashed = arg[:1] == "-" and arg[1:2].isdigit()
        flag = out[-1] if out else ""
        if dashed and len(flag) > 2 and "--seed-range".startswith(flag) and "--" not in out:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(_join_dashed_seed_range(sys.argv[1:] if argv is None else argv))
        if getattr(args, "trace", False) and args.semantics != "both":
            args.usage_error("--trace lists both back ends per world; it needs --semantics both")
    except SystemExit as exc:
        # argparse has printed the help (exit 0) or the usage and the error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        with warnings.catch_warnings():
            # a library warning is one line of standard error, not a source location
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            code, doc, lines = args.func(args)
        if args.format == "json":
            del lines  # as large as the document, and not printed: freed before rendering
            text = json.dumps(doc, indent=2, sort_keys=True)
        else:
            text = "\n".join(lines)
    except CapExceeded as exc:
        setting = CAP_SETTINGS.get(exc.cap)
        hint = f"; raise it with {setting[0]} or {setting[1]}" if setting else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        hint = "a lower {} or {} refuses such a program".format(*CAP_SETTINGS["max_pfacts"])
        print(f"error: out of memory; {hint}", file=sys.stderr)
        return EXIT_CAP
    except (ArglogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        # a counterexample's listing goes to standard error, like the other failures
        print(text, file=sys.stdout if code == EXIT_OK else sys.stderr, flush=True)
    except BrokenPipeError:
        # the reader closed early, as `head` does; point stdout at the null
        # device so that the interpreter's last flush is silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
