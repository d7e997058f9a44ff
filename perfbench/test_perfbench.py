"""Tests of the benchmark itself: the correctness gate, the warning counter
and the tracer. Run with `python3 -m pytest perfbench`."""

import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import arglog  # noqa: E402
from bench import DegenerateWarnings, fastest_pass, gate, measure, run_case, tail  # noqa: E402
from calibration import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Case, chain_cases, corpus_cases, join_cases  # noqa: E402

CAPS = arglog.Caps()


def small_chain() -> Case:
    return chain_cases(seed=7, n=1)[0]


def test_correct_answer_passes_the_gate():
    case = small_chain()
    outcome = run_case(case, CAPS)
    assert outcome.error is None
    assert (outcome.queries, outcome.worlds) == (1, 4)


def test_planted_wrong_answer_counts_as_a_failure():
    case = small_chain()
    wrong = Case(case.name, case.text, case.query, case.expected + Fraction(1, 10))
    samples, _ = measure([case, wrong], seconds=0, run=lambda c: run_case(c, CAPS), min_passes=1)
    errors = [o.error for _, o in samples if o.error is not None]
    assert len(samples) == 2 and len(errors) == 1
    assert "closed form" in errors[0]
    assert samples[1][1].queries == 0


def test_cap_refusal_counts_as_a_failure():
    outcome = run_case(small_chain(), arglog.Caps(max_pfacts=1))
    assert outcome.error is not None and "CapExceeded" in outcome.error


def test_gate_rejects_disagreeing_routes_and_floats():
    report = SimpleNamespace(
        query="q",
        success_probability=Fraction(1, 2),
        grounded_query_probability=Fraction(1, 3),
        argument_probability_sum=Fraction(1, 2),
        holds=False,
    )
    assert "routes differ" in gate([report], None)
    report.grounded_query_probability = 0.5
    assert "not an exact Fraction" in gate([report], None)


def test_closed_forms_hold_for_chain_and_join():
    for case in chain_cases(seed=3, n=2) + join_cases(seed=3, k=5, extra_edges=4):
        assert run_case(case, CAPS).error is None


def test_corpus_window_is_fixed_per_seed_modulo_ten():
    assert corpus_cases(3) == corpus_cases(13)
    names = [c.name for c in corpus_cases(9)]
    assert names[0] == "random9" and names[-1] == "random208"


def test_fastest_pass_sums_each_cases_best():
    assert fastest_pass([("a", 2.0), ("b", 1.0), ("a", 1.5), ("b", 3.0)]) == 2.5


def test_calibration_kernel_does_fixed_work():
    # true: the 17 facts e_j, p_0 and the 509 p_i whose e_(i mod 50) holds;
    # the even loops leave every q_i, r_i and other p_i undefined
    assert calibrate() == (527, 4515)


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_degenerate_warning_is_counted_not_shown():
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        with DegenerateWarnings() as counter:
            outcome = run_case(Case("empty", "", None), CAPS)
    assert outcome.error is None and outcome.queries == 0
    assert counter.count == 1
    assert not shown


def test_tracer_spans_nest_and_uninstall_restores():
    original = arglog.wfm.well_founded_model
    tracer = Tracer()
    tracer.install()
    try:
        outcome = tracer.operation(lambda c: run_case(c, CAPS), small_chain())
    finally:
        tracer.uninstall()
    assert outcome.error is None
    assert arglog.wfm.well_founded_model is original
    assert arglog.distribution.well_founded_model is original
    assert not tracer.missing
    assert all(t >= 0 for t in tracer.self_times())
    by_id = {span[1]: span for span in tracer.spans}
    for span in tracer.spans:
        if span[2] >= 0:
            parent = by_id[span[2]]
            assert parent[4] <= span[4] <= span[5] <= parent[5]
    metrics = tracer.layer_metrics(0.0)
    # 4 worlds: one well-founded model each for success_probability and world_traces
    assert metrics["wfm.calls"][0] == 8
    assert metrics["paa.distinct_frameworks"][0] == 4
