"""arglog benchmark: cross-checked exact answers on the chain, corpus and join workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chain --seed 0 --seconds 55 --trace 0

It imports arglog from the checkout's `src/` and nothing else, builds the
workload's cases from the seed, and runs operations in a closed loop with one
caller for `--seconds`. Every operation is gated on exact, agreeing answers.
Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`; with `--trace 1` the per-layer metrics
of a run whose first half is untraced, so that the tracing overhead shows.
With `--trace 1` the spans are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_checkout_arglog():
    """Import arglog from ROOT/src, refusing any other installed copy."""
    src = ROOT / "src"
    if not (src / "arglog" / "__init__.py").is_file():
        sys.exit(f"error: no arglog sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import arglog

    if Path(arglog.__file__).resolve().parent != (src / "arglog").resolve():
        sys.exit(f"error: imported arglog from {arglog.__file__}, not from {src}")
    return arglog


def traced_run(cases, seconds, run, degenerate, spans_path):
    """Per-layer metrics: half the time untraced, then half traced."""
    from bench import fastest_pass, measure
    from tracing import Tracer

    untraced, _ = measure(cases, seconds / 2, run)
    tracer = Tracer()
    warnings_before = degenerate.count
    tracer.install()
    try:
        traced, _ = measure(cases, seconds / 2, lambda case: tracer.operation(run, case))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics((degenerate.count - warnings_before) / len(traced))
    metrics["trace.overhead_ratio"] = (
        fastest_pass((o.case, t) for t, o in traced)
        / fastest_pass((o.case, t) for t, o in untraced),
        "ratio",
    )
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    notes = [f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append(f"not traced, absent from arglog: {', '.join(tracer.missing)}")
    return untraced + traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    arglog = import_checkout_arglog()
    # the benchmark's modules import arglog, so they load only from here on
    from bench import DegenerateWarnings, build_all, end_to_end, measure, properties, run_case
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cases = WORKLOADS[args.workload](args.seed)
    caps = arglog.Caps()

    def run(case):
        return run_case(case, caps)

    with DegenerateWarnings() as degenerate:
        if args.trace:
            spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
            samples, metrics, notes = traced_run(cases, args.seconds, run, degenerate, spans_path)
        else:
            samples, fastest_calibration = measure(cases, args.seconds, run)
            metrics, note = end_to_end(samples, fastest_calibration)
            notes = [note]
        degenerate_in_run = degenerate.count
        props = properties(build_all(cases, caps))
    if args.trace:
        rules, live = props["ground_rules"]["total"], props["live_rules"]["total"]
        metrics["grounder.live_rule_ratio"] = (live / rules if rules else 0.0, "ratio")

    errors = [o.error for _, o in samples if o.error is not None]
    attempted, failed = len(samples), len(errors)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} program(s)")
    print(f"properties {json.dumps(props, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(f"degenerate framework warnings: {degenerate_in_run} in {attempted} operations")
    for note in notes:
        print(note)
    for error in sorted(set(errors))[:10]:
        print(f"FAILED {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
