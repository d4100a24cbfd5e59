"""Tests of the benchmark's own arithmetic and bookkeeping."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import stats  # noqa: E402
from perfbench.checks import labelling_problem  # noqa: E402
from perfbench.run import Tally, run_calls, run_passes  # noqa: E402
from perfbench.tracing import Span, layer_metrics, self_times  # noqa: E402
from perfbench.workloads import Call, Verdict, bad  # noqa: E402


# --- tail percentile ---------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(x) for x in range(1, 101)]
    t = stats.tail(samples)
    assert (t.value, t.percentile, t.beyond, t.samples) == (90.0, 90.0, 10, 100)
    assert sum(1 for x in samples if x > t.value) == 10


def test_tail_is_the_highest_such_percentile():
    samples = [float(x) for x in range(1, 38)]  # 37 samples, shuffled order
    samples.reverse()
    t = stats.tail(samples)
    assert t.value == 27.0
    assert t.percentile == pytest.approx(100 * 27 / 37)
    # one rank higher would leave only nine samples beyond
    assert sum(1 for x in samples if x > 28.0) == 9


def test_tail_with_too_few_samples_reports_the_maximum():
    t = stats.tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 100.0, 0, 3)
    t = stats.tail([float(x) for x in range(11)])
    assert (t.value, t.beyond) == (0.0, 10)


# --- self time ---------------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("harness.run_property_suite", 1.0, 4.0, parent=0),
        Span("labelling.is_valid", 2.0, 3.0, parent=1),
        Span("harness.Report.to_json_text", 5.0, 6.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("solvers.find_bad_assignment", 0.0, 10.0),
        Span("solvers.solve_list", 1.0, 4.0, parent=0),
        Span("solvers.solve_list", 3.0, 5.0, parent=0),
        Span("graphs.emit_graph6", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_on_nested_spans():
    spans = [
        Span("constructive.label_tree_dfs", 0.0, 4.0),
        Span("labelling.check_lists", 0.5, 1.0, parent=0),
        Span("labelling.is_valid", 3.0, 3.75, parent=0),
        Span("solvers.solve_span", 5.0, 7.0),
        Span("solvers.solve_list", 5.5, 7.0, parent=3, attrs={"nodes": 30, "labelled": False}),
        Span("solvers.solve_list", 8.0, 8.5, attrs={"nodes": 10, "labelled": True}),
    ]
    m = {name: value for name, (value, unit) in layer_metrics(spans).items()}
    assert m["constructive.label_self_s"] == pytest.approx(2.75)
    assert m["constructive.labellings"] == 1
    assert m["labelling.is_valid_s"] == pytest.approx(0.75)
    assert m["labelling.list_checks_s"] == pytest.approx(0.5)
    assert m["solvers.solve_calls"] == 2
    assert m["solvers.nodes"] == 40
    assert m["solvers.nodes_per_solve"] == 20
    assert m["solvers.refutations"] == 1
    assert m["solvers.refute_s"] == pytest.approx(1.5)
    assert m["solvers.nodes_per_s"] == pytest.approx(40 / 2.0)
    assert m["solvers.self_s"] == pytest.approx(0.5 + 1.5 + 0.5)


# --- failure accounting ------------------------------------------------------------


def _call(label, fn, judge=lambda r: Verdict(items=1, summary=r), limit=None):
    return Call(label, fn, judge, limit)


def test_wrong_output_counts_as_failed_and_incorrect():
    calls = [
        _call("good", lambda: 1),
        _call("wrong", lambda: 2, judge=lambda r: bad("2 is not the answer")),
    ]
    tally = Tally()
    run_calls(calls, tally, expected={})
    assert (tally.attempted, tally.failed, tally.wrong, tally.items) == (2, 1, 1, 1)
    assert tally.failed / tally.attempted == 0.5
    assert "0:wrong" in tally.problems


def test_output_differing_from_the_recorded_value_is_wrong():
    tally = Tally()
    run_calls([_call("a", lambda: 7)], tally, expected={"0:a": 8})
    assert (tally.failed, tally.wrong) == (1, 1)


def test_raise_fails_without_being_wrong():
    def crash():
        raise ValueError("bad input")

    tally = Tally()
    run_calls([_call("crash", crash)], tally, expected={})
    assert (tally.attempted, tally.failed, tally.wrong, tally.unsolved) == (1, 1, 0, 0)
    assert "ValueError" in tally.problems["0:crash"]


def test_timeout_and_recursion_limit_are_unsolved_not_failed():
    def spin():
        while True:
            pass

    def deep():
        raise RecursionError("deep")

    tally = Tally()
    run_calls([_call("deep", deep), _call("stall", spin, limit=0.05), _call("ok", lambda: 1)],
              tally, expected={})
    assert (tally.attempted, tally.failed, tally.wrong, tally.unsolved) == (3, 0, 0, 2)
    assert "timed out" in tally.gave_up["0:stall"]
    assert "RecursionError" in tally.gave_up["0:deep"]
    assert tally.latencies[1] >= 0.05
    from perfbench.run import end_to_end

    metrics, _ = end_to_end(tally, 1.0, [0.1])
    assert metrics["solved_frac"][0] == pytest.approx(1 / 3)


def test_follow_up_calls_run_right_after_their_call():
    order = []

    def judge(r):
        follow = [_call("recheck", lambda: order.append("recheck"))] if r == "first" else []
        return Verdict(items=1, follow=follow)

    calls = [_call("first", lambda: order.append("first") or "first", judge),
             _call("second", lambda: order.append("second") or "second", judge)]
    tally = Tally()
    run_calls(calls, tally, expected={})
    assert order == ["first", "recheck", "second"]
    assert tally.attempted == 3


def test_runs_are_whole_passes():
    def make_pass(i):
        return [_call(f"a{i}", lambda: time.sleep(0.01)), _call(f"b{i}", lambda: 1)]

    tally = Tally()
    passes = run_passes(make_pass, make_pass(0), tally, expected={}, seconds=0.05)
    assert passes >= 1
    assert tally.attempted == 2 * passes
    tally = Tally()
    assert run_passes(make_pass, make_pass(0), tally, expected={}, seconds=1e-9) == 1
    assert tally.attempted == 2


# --- metric names ------------------------------------------------------------------


def test_printed_metrics_match_the_benchmark_definition():
    import json

    from perfbench.run import end_to_end
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tally = Tally()
    run_calls([_call(str(i), lambda: 1) for i in range(12)], tally, expected={})
    metrics, _ = end_to_end(tally, 1.0, [0.1])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (value, unit) in metrics.items()]
    traced = {**layer_metrics([]), "trace.overhead_frac": (0.0, "1")}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (value, unit) in traced.items()]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


# --- independent predicate ---------------------------------------------------------


def test_independent_predicate_agrees_with_the_package():
    import plabel as pl

    g = pl.make_random_maximal_outerplanar(7, seed=3)
    result = pl.solve_span(g, 2, pl.min_span(g, 2))
    assert labelling_problem(g.n, g.edges, 2, result.labelling) is None
    broken = dict(result.labelling)
    e = pl.Edge(*min(g.edges))
    broken[e] = broken[pl.Vertex(e.u)]
    assert not pl.is_valid(g, 2, broken, total=True).ok
    assert labelling_problem(g.n, g.edges, 2, broken) is not None
