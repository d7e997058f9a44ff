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
from .equivalence import EquivalenceReport, WorldTrace, check_program, check_query, random_program
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

_ENV_CAPS = {
    "max_pfacts": "ARGLOG_WORLDS_CAP",
    "max_arguments": "ARGLOG_ARGS_CAP",
}


def decimal_repr(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering to `digits` significant digits, no exponent form."""
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    text = format(quotient, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def probability_doc(value: Fraction) -> dict:
    return {"fraction": str(value), "decimal": decimal_repr(value)}


def _probability_text(doc: dict) -> str:
    return f"{doc['fraction']} ({doc['decimal']})"


def render_probability(value: Fraction) -> str:
    return _probability_text(probability_doc(value))


_FLAG_CAPS = {"max_pfacts": "worlds_cap", "max_arguments": "args_cap"}


def _cap_value(text: str, source: str) -> int:
    if not text.strip().isdecimal():
        raise ArglogError(f"{source} must be a non-negative integer, not {text!r}")
    return int(text)


def resolve_caps(args: argparse.Namespace) -> Caps:
    """Defaults, overridden by environment variables, overridden by flags.

    A value that is not a non-negative integer is an input error naming the
    variable or flag it came from.
    """
    values = {}
    for field, env in _ENV_CAPS.items():
        if os.environ.get(env):
            values[field] = _cap_value(os.environ[env], env)
    for field, dest in _FLAG_CAPS.items():
        if getattr(args, dest, None) is not None:
            values[field] = _cap_value(getattr(args, dest), "--" + dest.replace("_", "-"))
    return Caps(**values)


def load_ground_program(path: str) -> GroundProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return ground(parse_program(handle.read()))


# --- rendering helpers ---


def _rule_index(gp: GroundProgram) -> dict:
    return {rule: f"r{i}" for i, rule in enumerate(sorted(gp.rules), start=1)}


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


def cmd_query(args: argparse.Namespace) -> int:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file)
    query = parse_query(args.query)
    doc: dict = {"command": "query", "query": str(query), "semantics": args.semantics}
    lines = [f"query: {query}"]
    if args.semantics == "dist":
        prob = success_probability(query, gp, caps.max_pfacts)
        doc["distribution"] = {"probability": probability_doc(prob)}
        lines.append(f"success probability (distribution): {render_probability(prob)}")
    elif args.semantics == "arg":
        engine = PaaEngine(gp, caps)
        prob = engine.grounded_prob_query(query)
        doc["argumentation"] = {"probability": probability_doc(prob)}
        lines.append(f"grounded probability (argumentation): {render_probability(prob)}")
    else:
        report = check_query(query, gp, caps)
        doc["equivalence"] = _report_doc(report, include_traces=args.trace)
        lines += _report_lines(report, include_traces=args.trace)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return EXIT_OK


def _report_doc(report: EquivalenceReport, include_traces: bool) -> dict:
    doc = {
        "query": str(report.query),
        "success_probability": probability_doc(report.success_probability),
        "grounded_query_probability": probability_doc(report.grounded_query_probability),
        "argument_probability_sum": probability_doc(report.argument_probability_sum),
        "probabilities_equal": report.probabilities_equal,
        "sum_bounds_success": report.sum_bounds_success,
    }
    if include_traces:
        doc["worlds"] = [_trace_row(t) for t in report.world_traces]
    return doc


def _report_lines(report: EquivalenceReport, include_traces: bool) -> list[str]:
    lines = [
        f"success probability (distribution): {render_probability(report.success_probability)}",
        f"grounded probability (argumentation): {render_probability(report.grounded_query_probability)}",
        f"per-argument probability sum: {render_probability(report.argument_probability_sum)}",
        f"back ends agree exactly: {'yes' if report.probabilities_equal else 'NO'}",
        f"argument sum bounds success: {'yes' if report.sum_bounds_success else 'NO'}",
    ]
    if include_traces:
        lines.append("worlds:")
        lines += [_trace_line(_trace_row(t)) for t in report.world_traces]
    return lines


def cmd_show(args: argparse.Namespace) -> int:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file)
    engine = PaaEngine(gp, caps)
    framework, aaf = engine.framework, engine.aaf
    rule_names = _rule_index(gp)
    arg_names = {i: f"a{i + 1}" for i in range(len(aaf.arguments))}
    if args.format == "json":
        doc = {
            "command": "show",
            "rules": {name: str(rule) for rule, name in rule_names.items()},
            "fact_assumptions": _names(framework.fact_assumptions),
            "assumptions": _names(framework.assumptions),
            "contraries": {str(a): str(c) for a, c in framework.contraries()},
            "arguments": {
                arg_names[i]: _argument_line(arg, rule_names)
                for i, arg in enumerate(aaf.arguments)
            },
            "attacks": [
                [arg_names[i], arg_names[j]] for i, j in sorted(aaf.attacks)
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK

    def section(header: str, rows: list[str]) -> list[str]:
        return [header] + (rows if rows else ["  (none)"])

    facts = ", ".join(_names(framework.fact_assumptions)) or "(none)"
    lines = section("rules:", [f"  {name}: {rule}" for rule, name in rule_names.items()])
    lines.append(f"fact assumptions: {facts}")
    lines += section(
        "assumptions and contraries:",
        [f"  {a} -> {c}" for a, c in framework.contraries()],
    )
    lines += section(
        f"arguments ({len(aaf.arguments)}):",
        [
            f"  {arg_names[i]}: {_argument_line(arg, rule_names)}"
            for i, arg in enumerate(aaf.arguments)
        ],
    )
    lines += section(
        f"attacks ({len(aaf.attacks)}):",
        [f"  {arg_names[i]} -> {arg_names[j]}" for i, j in sorted(aaf.attacks)],
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_worlds(args: argparse.Namespace) -> int:
    caps = resolve_caps(args)
    gp = load_ground_program(args.file)
    engine = PaaEngine(gp, caps)
    rows = []
    total = Fraction(0)
    for world, prob, _ in engine.evaluations():
        total += prob
        claims = _names(engine.accepted_claims(world))
        rows.append(
            dict(world=_names(world), probability=probability_doc(prob), accepted_claims=claims)
        )
    if total != 1:
        raise RuntimeError(f"internal error: world probabilities sum to {total}, not exactly 1")
    if args.format == "json":
        doc = {"command": "worlds", "worlds": rows, "total_probability": probability_doc(total)}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    lines = [
        f"{_braced(row['world'])}  p={_probability_text(row['probability'])}  "
        f"accepted: {', '.join(row['accepted_claims']) or '(none)'}"
        for row in rows
    ]
    lines.append(f"total probability: {render_probability(total)}")
    print("\n".join(lines))
    return EXIT_OK


def _parse_seed_range(text: str) -> tuple[int, int]:
    try:
        first, last = text.split("..", 1)
        return int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed range {text!r}; expected the form A..B"
        ) from None


def cmd_check(args: argparse.Namespace) -> int:
    caps = resolve_caps(args)
    first, last = args.seed_range
    programs = 0
    queries = 0
    counterexamples = []
    with warnings.catch_warnings():
        # generated programs are sometimes empty, and that is expected here
        warnings.filterwarnings("ignore", "degenerate framework", UserWarning)
        for seed in range(first, last + 1):
            program = random_program(seed)
            gp = ground(program)
            programs += 1
            for report in check_program(gp, caps):
                queries += 1
                if not report.holds:
                    counterexamples.append((seed, program, report))
    if counterexamples:
        seed, program, report = counterexamples[0]
        with open(args.dump, "w", encoding="utf-8") as handle:
            handle.write(f"% seed {seed}, query {report.query}\n")
            handle.write(f"% success probability {report.success_probability}, ")
            handle.write(f"grounded {report.grounded_query_probability}\n")
            handle.write(program.to_source())
        print(
            f"FAIL: {len(counterexamples)} counterexample(s); "
            f"first at seed {seed}, query {report.query}; program written to {args.dump}",
            file=sys.stderr,
        )
        for t in report.world_traces:
            print(_trace_line(_trace_row(t)), file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    if args.format == "json":
        doc = {
            "command": "check",
            "seeds": f"{first}..{last}",
            "programs": programs,
            "queries": queries,
            "counterexamples": 0,
            "pass": True,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"PASS: seeds {first}..{last}, {programs} programs, "
            f"{queries} queries, 0 counterexamples"
        )
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arglog",
        description="Exact query probabilities for probabilistic logic programs, "
        "computed by two independent back ends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_file: bool = True) -> None:
        if with_file:
            p.add_argument("file", help="program file")
        p.add_argument(
            "--format", choices=("human", "json"), default="human", help="output format"
        )
        p.add_argument(
            "--worlds-cap",
            metavar="N",
            help="max probabilistic facts for world enumeration (2**N worlds)",
        )
        p.add_argument(
            "--args-cap", metavar="N", help="max enumerated arguments"
        )

    p_query = sub.add_parser("query", help="probability of a query atom")
    add_common(p_query)
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
    p_query.set_defaults(func=cmd_query)

    p_show = sub.add_parser("show", help="argumentation view of the program")
    add_common(p_show)
    p_show.set_defaults(func=cmd_show)

    p_worlds = sub.add_parser("worlds", help="world table with accepted claims")
    add_common(p_worlds)
    p_worlds.set_defaults(func=cmd_worlds)

    p_check = sub.add_parser("check", help="seeded cross-check of both back ends")
    add_common(p_check, with_file=False)
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
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ArglogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
