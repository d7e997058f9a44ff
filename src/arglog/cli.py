"""Command-line front end.

Commands: query (probability of an atom under either or both back ends),
show (the argumentation view of a program), worlds (the world table with
accepted claims), check (the seeded cross-check suite). Exit codes: 0 ok,
1 input error, 2 resource-cap refusal, 3 counterexample found by check.

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


def load_ground_program(path: str) -> GroundProgram:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ArglogError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return ground(parse_program(text))


# --- rendering helpers ---


def _argument_line(arg, rule_names: dict) -> str:
    support = ", ".join(_names(arg.assumptions))
    used = ",".join(rule_names[r] for r in sorted(arg.rules_used))
    return f"{{{support}}} ⊢[{used}] {arg.claim}"


def _names(items) -> list[str]:
    return [str(item) for item in sorted(items)]


def _braced(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _trace_row(t: WorldTrace) -> dict:
    """One world of a trace, as the JSON row that every rendering reads."""
    return {
        "world": _names(t.world),
        "probability": probability_doc(t.probability),
        "true_atoms": _names(t.model.true_atoms),
        "false_atoms": _names(t.model.false_atoms),
        "undefined_atoms": _names(t.model.undefined_atoms),
        "accepted_claims": _names(t.accepted_claims),
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


def cmd_query(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file)
    query = parse_query(args.query)
    doc: dict = {"command": "query", "query": str(query), "semantics": args.semantics}
    if args.semantics == "dist":
        prob = success_probability(query, gp, caps.max_pfacts)
        doc["distribution"] = {"probability": probability_doc(prob)}
    elif args.semantics == "arg":
        prob = PaaEngine(gp, caps).grounded_prob_query(query)
        doc["argumentation"] = {"probability": probability_doc(prob)}
    else:
        report = check_query(query, gp, caps)
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
    return EXIT_OK, doc, lines


def cmd_show(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file)
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
    engine = PaaEngine(load_ground_program(args.file), caps)
    rows = []
    total = Fraction(0)
    for world, prob, accepted in engine.evaluations():
        total += prob
        claims = _names({engine.arguments[i].claim for i in accepted})
        rows.append(
            dict(world=_names(world), probability=probability_doc(prob), accepted_claims=claims)
        )
    if total != 1:
        raise RuntimeError(f"internal error: world probabilities sum to {total}, not exactly 1")
    doc = {"command": "worlds", "worlds": rows, "total_probability": probability_doc(total)}
    lines = [
        f"{_braced(row['world'])}  p={_probability_text(row['probability'])}  "
        f"accepted: {', '.join(row['accepted_claims']) or '(none)'}"
        for row in rows
    ]
    lines.append(f"total probability: {_probability_text(doc['total_probability'])}")
    return EXIT_OK, doc, lines


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
    counterexamples = []
    with warnings.catch_warnings():
        # generated programs are sometimes empty, and that is expected here
        warnings.filterwarnings("ignore", "degenerate framework", UserWarning)
        for seed in range(first, last + 1):
            program = random_program(seed)
            reports = check_program(ground(program), caps)
            queries += len(reports)
            counterexamples += [(seed, program, r) for r in reports if not r.holds]
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
    seed, program, report = counterexamples[0]
    with open(args.dump, "w", encoding="utf-8") as handle:
        handle.write(f"% seed {seed}, query {report.query}\n")
        handle.write(f"% success probability {report.success_probability}, ")
        handle.write(f"grounded {report.grounded_query_probability}\n")
        handle.write(program.to_source())
    doc |= {
        "seed": seed,
        "query": str(report.query),
        "dump": args.dump,
        "worlds": [_trace_row(t) for t in report.world_traces],
    }
    return EXIT_COUNTEREXAMPLE, doc, [
        f"FAIL: {doc['counterexamples']} counterexample(s); first at seed {doc['seed']}, "
        f"query {doc['query']}; program written to {doc['dump']}"
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
        p.set_defaults(func=func)
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
        "--trace", action="store_true", help="include the per-world breakdown"
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
    except SystemExit as exc:
        # argparse has printed the help (exit 0) or the usage and the error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        with warnings.catch_warnings():
            # a library warning is one line of standard error, not a source location
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            code, doc, lines = args.func(args)
    except CapExceeded as exc:
        setting = CAP_SETTINGS.get(exc.cap)
        hint = f"; raise it with {setting[0]} or {setting[1]}" if setting else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_CAP
    except (ArglogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = json.dumps(doc, indent=2, sort_keys=True) if args.format == "json" else "\n".join(lines)
    # a counterexample's listing goes to standard error, like the other failures
    print(text, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
