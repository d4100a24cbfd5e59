import json
import random

import pytest

from plabel.graphs import (
    Graph,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
)
from plabel.harness import (
    ExperimentSpec,
    emit_dot,
    hunt_counterexamples,
    make_instance,
    mop_with_degree,
    random_k_assignment,
    required_list_size,
    run_oracle_suite,
    run_property_suite,
    small_connected_graphs,
)
from plabel.labelling import Edge, Vertex, elements_of


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(family="path", sizes=(), p_values=(1,))
    with pytest.raises(ValueError):
        ExperimentSpec(family="path", sizes=(3,), p_values=(1,), trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(family="path", sizes=(3,), p_values=(1,), policy="nope")


def test_oracle_suite_passes_where_formulas_hold():
    report = run_oracle_suite(p_values=(2, 3), sizes=tuple(range(1, 7)))
    assert report.ok
    claims = {v["claim"] for v in report.verdicts}
    assert claims == {
        "path-color-count",
        "star-color-count",
        "star-bipartite-band",
        "vertex-path-color-count",
    }


def test_oracle_suite_reports_the_p1_path_discrepancy():
    # the tabulated p+3 value overshoots at p=1, where ordinary total
    # coloring needs only three colors on every path; the suite must
    # surface that honestly instead of agreeing with the table
    report = run_oracle_suite(p_values=(1,), sizes=(2, 3, 5))
    failing = [v for v in report.verdicts if not v["pass"]]
    assert failing
    assert all(v["actual"] == 3 and v["expected"] == 4 for v in failing)
    assert {v["claim"] for v in failing} <= {
        "path-color-count",
        "vertex-path-color-count",
    }


def test_property_suite_runs_and_reproduces():
    spec = ExperimentSpec(family="star", sizes=(3, 4), p_values=(2,), trials=25, seed=3)
    r1 = run_property_suite(spec)
    r2 = run_property_suite(spec)
    assert r1.ok
    assert r1.to_json_text() == r2.to_json_text()
    assert r1.to_csv_text() == r2.to_csv_text()
    assert len(r1.rows) == 25


def test_property_suite_rejects_unsupported_parameters():
    with pytest.raises(ValueError):
        run_property_suite(
            ExperimentSpec(family="star", sizes=(3,), p_values=(1,), trials=1)
        )
    with pytest.raises(ValueError):
        run_property_suite(
            ExperimentSpec(family="star", sizes=(2,), p_values=(2,), trials=1)
        )


def test_property_suite_adversarial_policy():
    spec = ExperimentSpec(
        family="path", sizes=(3, 4), p_values=(2,), trials=4, seed=0,
        policy="adversarial-search", budget=25,
    )
    report = run_property_suite(spec)
    assert report.ok
    assert all(row["outcome"] == "exhausted" for row in report.rows)
    claims = {v["claim"] for v in report.verdicts}
    assert claims == {"path-zero-witnesses-p2"}


def test_property_suite_full_range_policy():
    spec = ExperimentSpec(
        family="outerplanar", sizes=(6, 8), p_values=(2,), trials=10,
        seed=5, policy="full-range",
    )
    report = run_property_suite(spec)
    assert report.ok
    for row in report.rows:
        assert row["outcome"] == "labelled"
        assert row["span"] <= row["k"] - 1


def test_hunt_exhausts_and_control_finds_witness():
    spec = ExperimentSpec(
        family="hunt", sizes=(3, 4), p_values=(2,), trials=4, seed=1, budget=20
    )
    report = hunt_counterexamples("general", spec)
    assert report.ok
    control = [v for v in report.verdicts if v["claim"] == "witness-machinery-control"]
    assert control and control[0]["pass"]
    kinds = {row["outcome"] for row in report.rows}
    assert kinds == {"exhausted", "lower-witness"}


def test_hunt_outerplanar_low_degree_regime():
    spec = ExperimentSpec(
        family="hunt", sizes=(4, 5), p_values=(2,), trials=4, seed=2, budget=15
    )
    report = hunt_counterexamples("outerplanar", spec)
    # every sampled graph sits in the open low-degree regime
    for row in report.rows:
        if row["instance"].startswith("hunt-outerplanar"):
            assert row["k"] == 3 + 2 * 2 - 1 or row["k"] <= 4 + 3
    with pytest.raises(ValueError):
        hunt_counterexamples("someday", spec)


def test_required_list_size():
    assert required_list_size("path", make_path(4), 2) == 5
    assert required_list_size("tree", make_path(2), 2) == 5
    assert required_list_size("star", make_star(4), 2) == 7
    g = mop_with_degree(8, 0, min_delta=5)
    assert required_list_size("outerplanar", g, 2) == g.max_degree + 3


def test_make_instance_deterministic():
    a = make_instance("tree", 12, 2, 7, 3)
    b = make_instance("tree", 12, 2, 7, 3)
    assert a == b
    g = make_instance("outerplanar", 8, 2, 7, 3)
    assert g.max_degree >= 5


def test_family_labellers_are_looked_up_at_call_time(monkeypatch):
    # tracers and capture hooks rebind module attributes; the table must reach
    # the rebound labeller, not a reference it stored at import
    import plabel.harness as harness

    calls = []
    original = harness.label_tree_dfs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "label_tree_dfs", counting)
    spec = ExperimentSpec(family="tree", sizes=(4, 6), p_values=(1, 2), trials=3, seed=5)
    report = run_property_suite(spec)
    assert report.ok
    assert len(calls) == len(report.rows) == 6


def test_random_k_assignment_shape():
    g = make_path(3)
    lists = random_k_assignment(g, 3, 6, random.Random(0))
    assert set(lists) == {Vertex(0), Vertex(1), Vertex(2), Edge(0, 1), Edge(1, 2)}
    assert all(len(v) == 3 and max(v) <= 6 for v in lists.values())


@pytest.mark.parametrize(
    "g", [make_path(4), make_random_tree(5, 1), make_random_maximal_outerplanar(5, 2)],
    ids=["path", "tree", "outerplanar"],
)
def test_random_k_assignment_matches_random_sample(g):
    # random.sample switches from its pool branch to its set branch above
    # 21 colors for k <= 5, and above 85 colors for 6 <= k <= 21; cover
    # universes from the least one, k-1, to one past each side of the switch
    for k in range(1, 13):
        top = 22 if k <= 5 else 86
        for universe in range(k - 1, top):
            for seed in (0, 1):
                ours, theirs = random.Random(seed), random.Random(seed)
                drawn = random_k_assignment(g, k, universe, ours)
                sampled = {x: set(theirs.sample(range(universe + 1), k))
                           for x in elements_of(g)}
                assert drawn == sampled, (k, universe, seed)
                assert ours.random() == theirs.random(), (k, universe, seed)


def test_small_connected_graphs_counts():
    # 1, 1, 2, 6, 21 connected graphs on 1..5 vertices up to isomorphism
    graphs = small_connected_graphs(5)
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    assert all(g.is_connected() for g in graphs)


def test_emit_dot():
    g = make_path(2)
    text = emit_dot(g, {Vertex(0): 1, Edge(0, 1): 4})
    assert 'label="0:1"' in text
    assert '0 -- 1 [label="4"]' in text
    assert text.startswith("graph G {")


def test_report_json_is_canonical():
    report = run_oracle_suite(p_values=(2,), sizes=(2, 3))
    text = report.to_json_text()
    assert json.loads(text)["ok"] is True
    assert text == run_oracle_suite(p_values=(2,), sizes=(2, 3)).to_json_text()
