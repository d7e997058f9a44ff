"""Spans around calls into each arglog layer, recorded from benchmark code.

While installed, the tracer rebinds each traced public function (and method
of PaaEngine) everywhere arglog refers to it, to a wrapper that records a
span: name, start, end, parent span and operation id. Nothing in arglog is
edited; uninstalling restores the original bindings. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import arglog

# (module, attribute, span name); each module is where the function is defined
FUNCTIONS = [
    ("arglog.parser", "parse_program", "parser.parse_program"),
    ("arglog.grounder", "ground", "grounder.ground"),
    ("arglog.aba", "enumerate_arguments", "aba.enumerate_arguments"),
    ("arglog.aba", "compute_attacks", "aba.compute_attacks"),
    ("arglog.paa", "world_table", "paa.world_table"),
    ("arglog.semantics", "grounded_extension_of", "semantics.grounded_extension_of"),
    ("arglog.distribution", "induced_program", "distribution.induced_program"),
    ("arglog.distribution", "success_probability", "distribution.success_probability"),
    ("arglog.wfm", "well_founded_model", "wfm.well_founded_model"),
    ("arglog.equivalence", "world_traces", "equivalence.world_traces"),
    ("arglog.equivalence", "check_query", "equivalence.check_query"),
]
# total_choices is a generator: each step is its own span, so the consumer's
# work between steps is not charged to it
GENERATORS = [("arglog.distribution", "total_choices", "distribution.total_choices")]
METHODS = [
    ("__init__", "paa.PaaEngine"),
    ("applicable_indices", "paa.applicable_indices"),
    ("grounded_prob_query", "paa.grounded_prob_query"),
    ("argument_probability_sum", "paa.argument_probability_sum"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, span id, parent id, name, start, end]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.frameworks: dict[int, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---

    def _open(self, name: str) -> list:
        record = [self._op, len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[1])
        record[4] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[5] = perf_counter()
        self._stack.pop()

    def operation(self, run, case):
        """Run one operation under a root span; its spans share a fresh id."""
        self._op += 1
        record = self._open("operation")
        try:
            return run(case)
        finally:
            self._close(record)

    def _count(self, name: str, result) -> None:
        counts = self.counts[self._op]
        if name == "parser.parse_program":
            counts["clauses"] += len(result.rules) + len(result.pfacts)
        elif name == "grounder.ground":
            counts["ground_rules"] += len(result.rules)
            counts["herbrand_atoms"] += len(result.herbrand_base)
        elif name == "aba.enumerate_arguments":
            counts["arguments"] += len(result)
        elif name == "aba.compute_attacks":
            counts["attacks"] += len(result)
        elif name == "paa.world_table":
            counts["worlds"] += len(result)
        elif name == "paa.applicable_indices":
            self.frameworks[self._op].add(result)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            self._count(name, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                record = self._open(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._close(record)
                yield item

        return wrapper

    # --- installation ---

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "arglog" or module_name.startswith("arglog.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module_name, attr, name in FUNCTIONS + GENERATORS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_generator if (module_name, attr, name) in GENERATORS else self._wrap
            self._rebind(original, wrap(name, original))
        for attr, name in METHODS:
            original = arglog.PaaEngine.__dict__.get(attr)
            if original is None:
                self.missing.append(f"arglog.PaaEngine.{attr}")
                continue
            self._restore.append((arglog.PaaEngine, attr, original))
            setattr(arglog.PaaEngine, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- analysis ---

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it that child spans cover."""
        children: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[2] >= 0:
                children[span[2]].append(span)
        out = []
        for span in self.spans:
            covered = 0.0
            reach = span[4]
            for child in sorted(children.get(span[1], ()), key=lambda s: s[4]):
                start, end = max(child[4], reach), min(child[5], span[5])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[5] - span[4] - covered)
        return out

    def layer_metrics(self, degenerate_warnings_per_op: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times and counts are means per operation."""
        ops = sorted({span[0] for span in self.spans if span[3] == "operation"})
        n = len(ops) or 1
        busy: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, int] = defaultdict(int)
        wfm_durations = []
        equivalence_self = 0.0
        for span, self_time in zip(self.spans, self.self_times()):
            op, name, duration = span[0], span[3], span[5] - span[4]
            busy[name][op] += duration
            calls[name] += 1
            if name == "wfm.well_founded_model":
                wfm_durations.append(duration)
            if name.startswith("equivalence."):
                equivalence_self += self_time

        def per_op(name: str) -> float:
            return sum(busy[name].values()) / n

        def count(key: str) -> float:
            return sum(self.counts[op][key] for op in ops) / n

        return {
            "parser.parse_s": (per_op("parser.parse_program"), "s"),
            "parser.clauses": (count("clauses"), "count"),
            "grounder.ground_s": (per_op("grounder.ground"), "s"),
            "grounder.ground_rules": (count("ground_rules"), "count"),
            "grounder.herbrand_atoms": (count("herbrand_atoms"), "count"),
            "aba.saturate_s": (per_op("aba.enumerate_arguments"), "s"),
            "aba.saturate_s_max": (max(busy["aba.enumerate_arguments"].values(), default=0.0), "s"),
            "aba.arguments": (count("arguments"), "count"),
            "aba.attacks_s": (per_op("aba.compute_attacks"), "s"),
            "aba.attacks": (count("attacks"), "count"),
            "aba.degenerate_warnings": (degenerate_warnings_per_op, "count"),
            "paa.engine_s": (per_op("paa.PaaEngine"), "s"),
            "paa.worlds": (count("worlds"), "count"),
            "paa.world_table_s": (per_op("paa.world_table"), "s"),
            "paa.applicable_s": (per_op("paa.applicable_indices"), "s"),
            "paa.distinct_frameworks": (sum(len(self.frameworks[op]) for op in ops) / n, "count"),
            "paa.grounded_query_s": (per_op("paa.grounded_prob_query"), "s"),
            "paa.argument_sum_s": (per_op("paa.argument_probability_sum"), "s"),
            "semantics.grounded_s": (per_op("semantics.grounded_extension_of"), "s"),
            "semantics.grounded_calls": (calls["semantics.grounded_extension_of"] / n, "count"),
            "distribution.choices_s": (per_op("distribution.total_choices"), "s"),
            "distribution.induced_s": (per_op("distribution.induced_program"), "s"),
            "distribution.success_s": (per_op("distribution.success_probability"), "s"),
            "wfm.calls": (calls["wfm.well_founded_model"] / n, "count"),
            "wfm.wfm_s": (per_op("wfm.well_founded_model"), "s"),
            "wfm.call_us_p50": (
                statistics.median(wfm_durations) * 1e6 if wfm_durations else 0.0,
                "us",
            ),
            "equivalence.traces_s": (per_op("equivalence.world_traces"), "s"),
            "equivalence.check_s": (per_op("equivalence.check_query"), "s"),
            "equivalence.self_s": (equivalence_self / n, "s"),
        }

    def write(self, path) -> None:
        """All spans, one per line: op, id, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tid\tparent\tname\tstart\tend\n")
            for op, sid, parent, name, start, end in self.spans:
                out.write(f"{op}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
