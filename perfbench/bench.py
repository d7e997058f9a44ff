"""The benchmark's operation, its correctness gate, and the measuring loops.

One operation turns one program's text into verified exact answers:
parse_program -> ground -> PaaEngine, then check_query for the case's query,
or, when the case queries every atom, one shared world_traces pass followed
by check_query per Herbrand atom (what check_program does). Operations run
in a closed loop with one caller: the next starts when the previous returns.

The bounded timings are each program's fastest operation in the run, summed
over the program set, and scaled to a quiet host by the calibration kernel.
On a shared machine, other tenants' load can slow operations by half or
more, in phases of seconds to minutes. The fastest of repeated identical
operations is what the program costs with the least of that load, and the
kernel's fastest run, timed between the operations, says how much load was
left; together they vary far less from run to run than a median does.
"""

from __future__ import annotations

import resource
import statistics
import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import arglog

from calibration import REFERENCE_S, calibrate
from workloads import Case

# share of a run's busy time spent timing the calibration kernel
CALIBRATION_SHARE = 0.15


@dataclass(frozen=True)
class Outcome:
    case: str  # name of the case the operation ran
    queries: int  # cross-checked queries that passed the gate
    worlds: int  # worlds of the program, counted once for both routes
    error: str | None  # why the operation failed, None when it passed
    setup_s: float  # from text to a built PaaEngine


def gate(reports, expected: Fraction | None) -> str | None:
    """The reason the reports are wrong, or None when every answer is exact and agreed."""
    for report in reports:
        answers = (
            report.success_probability,
            report.grounded_query_probability,
            report.argument_probability_sum,
        )
        if not all(type(a) is Fraction for a in answers):
            return f"{report.query}: an answer is not an exact Fraction"
        if report.success_probability != report.grounded_query_probability:
            return (
                f"{report.query}: routes differ, {report.success_probability} "
                f"!= {report.grounded_query_probability}"
            )
        if not report.holds:
            return f"{report.query}: the equivalence report does not hold"
        if expected is not None and report.success_probability != expected:
            return (
                f"{report.query}: {report.success_probability} is not the "
                f"closed form {expected}"
            )
    return None


def run_case(case: Case, caps: arglog.Caps) -> Outcome:
    """One operation. Any exception, a cap refusal included, fails it."""
    start = perf_counter()
    setup_s = 0.0
    try:
        gp = arglog.ground(arglog.parse_program(case.text))
        engine = arglog.PaaEngine(gp, caps)
        setup_s = perf_counter() - start
        if case.query is None:
            traces = arglog.world_traces(gp, engine)
            reports = [
                arglog.check_query(atom, gp, caps, engine=engine, traces=traces)
                for atom in sorted(gp.herbrand_base)
            ]
        else:
            query = arglog.parse_query(case.query)
            reports = [arglog.check_query(query, gp, caps, engine=engine)]
        error = gate(reports, case.expected)
    except Exception as exc:  # the loop must go on and count the failure
        error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        return Outcome(case.name, 0, 0, f"{case.name}: {error}", setup_s)
    return Outcome(case.name, len(reports), 2 ** len(gp.pfacts), None, setup_s)


@dataclass(frozen=True)
class Built:
    case: Case
    gp: object | None
    engine: object | None


def build_all(cases: list[Case], caps: arglog.Caps) -> list[Built]:
    """Untimed: every case's ground program and engine, for `properties`."""
    built = []
    for case in cases:
        try:
            gp = arglog.ground(arglog.parse_program(case.text))
            built.append(Built(case, gp, arglog.PaaEngine(gp, caps)))
        except Exception:  # the operations on this case fail and are counted there
            built.append(Built(case, None, None))
    return built


def measure(cases: list[Case], seconds: float, run, min_passes: int = 3):
    """Whole passes over the cases until `seconds` have passed and at least
    `min_passes` passes ran, with the calibration kernel timed in between.
    Returns the (operation seconds, Outcome) pairs and the kernel's fastest
    time."""
    samples = []
    busy = calibrating = 0.0
    fastest_calibration = float("inf")
    start = perf_counter()
    passes = 0
    while perf_counter() - start < seconds or passes < min_passes:
        passes += 1
        for case in cases:
            t0 = perf_counter()
            outcome = run(case)
            elapsed = perf_counter() - t0
            samples.append((elapsed, outcome))
            busy += elapsed
            while calibrating < CALIBRATION_SHARE * busy:
                t0 = perf_counter()
                calibrate()
                elapsed = perf_counter() - t0
                calibrating += elapsed
                fastest_calibration = min(fastest_calibration, elapsed)
    return samples, fastest_calibration


def fastest_pass(values) -> float:
    """Each case's smallest value, summed over the cases: one pass over the
    program set at its fastest. `values` are (case name, seconds) pairs."""
    best: dict[str, float] = {}
    for case, seconds in values:
        best[case] = min(seconds, best.get(case, seconds))
    return sum(best.values())


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(times)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100 * (i + 1) / len(ordered), len(ordered) - i - 1


def end_to_end(samples, fastest_calibration: float) -> tuple[dict, str]:
    """The end-to-end metrics as {name: (value, unit)}, and a line giving the
    raw fastest pass, and the median and tail of single operations, which
    follow the host's load."""
    answer_s = fastest_pass((o.case, t) for t, o in samples)
    scale = REFERENCE_S / fastest_calibration
    last = {o.case: o for _, o in samples}  # the outcomes of one pass
    metrics = {
        "setup_s": (fastest_pass((o.case, o.setup_s) for _, o in samples) * scale, "s"),
        "answer_s_min": (answer_s * scale, "s"),
        "queries_per_s": (sum(o.queries for o in last.values()) / (answer_s * scale), "1/s"),
        "worlds_per_s": (sum(o.worlds for o in last.values()) / (answer_s * scale), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    times = [t for t, _ in samples]
    tail_s, percentile, beyond = tail(times)
    note = (
        f"unscaled: fastest pass {answer_s:.6g} s, calibration kernel {fastest_calibration:.6g} s "
        f"(reference {REFERENCE_S} s); unbounded: answer_s_p50 {statistics.median(times):.6g} s, "
        f"answer_s_tail {tail_s:.6g} s (p{percentile:.2f} of {len(times)} operations, "
        f"{beyond} beyond it)"
    )
    return metrics, note


class DegenerateWarnings:
    """Counts the `degenerate framework` UserWarning instead of printing it;
    every other warning is shown as usual."""

    def __init__(self):
        self.count = 0
        self._catch = warnings.catch_warnings()

    def __enter__(self):
        self._catch.__enter__()
        warnings.filterwarnings("always", "degenerate framework", UserWarning)
        self._show = warnings.showwarning
        warnings.showwarning = self._showwarning
        return self

    def __exit__(self, *exc):
        return self._catch.__exit__(*exc)

    def _showwarning(self, message, category, *args, **kwargs):
        if issubclass(category, UserWarning) and str(message).startswith(
            "degenerate framework"
        ):
            self.count += 1
        else:
            self._show(message, category, *args, **kwargs)


def _cone(gp, query: arglog.Atom) -> set:
    """Atoms the query's instances depend on, through positive and negative
    body literals, by reachability over the ground rules."""
    deps: dict = {}
    for rule in gp.rules:
        deps.setdefault(rule.head, set()).update(lit.atom for lit in rule.body)
    todo = deque(a for a in gp.herbrand_base if arglog.matches(query, a))
    seen = set(todo)
    while todo:
        for atom in deps.get(todo.popleft(), ()):
            if atom not in seen:
                seen.add(atom)
                todo.append(atom)
    return seen


def _live_rules(gp) -> int:
    """Ground rules whose positive body holds in the least model of the
    positive projection (negative literals dropped, every fact possible)."""
    model = set(gp.fact_atoms)
    pending = list(gp.rules)
    changed = True
    while changed:
        changed = False
        rest = []
        for rule in pending:
            if rule.positive_atoms() <= model:
                if rule.head not in model:
                    model.add(rule.head)
                    changed = True
            else:
                rest.append(rule)
        pending = rest
    return len(gp.rules) - len(pending)


PROPERTY_KEYS = (
    "pfacts",
    "worlds",
    "ground_rules",
    "atoms",
    "arguments",
    "attacks",
    "distinct_frameworks",
    "queries",
    "live_rules",
)


def properties(built: list[Built]) -> dict:
    """Size of the workload's program set, as totals and per-program maxima,
    plus the share of probabilistic facts outside each query's cone."""
    rows = []
    outside = []
    for b in built:
        if b.engine is None:
            continue
        gp, engine = b.gp, b.engine
        if b.case.query is None:
            queries = sorted(gp.herbrand_base)
        else:
            queries = [arglog.parse_query(b.case.query)]
        facts = gp.fact_atoms
        for query in queries:
            if facts:
                outside.append(len(facts - _cone(gp, query)) / len(facts))
        rows.append(
            {
                "pfacts": len(gp.pfacts),
                "worlds": 2 ** len(gp.pfacts),
                "ground_rules": len(gp.rules),
                "atoms": len(gp.herbrand_base),
                "arguments": len(engine.aaf.arguments),
                "attacks": len(engine.aaf.attacks),
                "distinct_frameworks": len(
                    {engine.applicable_indices(w) for w, _ in engine.worlds()}
                ),
                "queries": len(queries),
                "live_rules": _live_rules(gp),
            }
        )
    doc = {"programs": len(rows)}
    for key in PROPERTY_KEYS:
        values = [r[key] for r in rows]
        doc[key] = {"total": sum(values), "max": max(values, default=0)}
    doc["cone_outside_share_mean"] = statistics.fmean(outside) if outside else 0.0
    doc["queries_with_pfacts_outside_cone"] = sum(1 for s in outside if s > 0)
    return doc
