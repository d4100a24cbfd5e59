import json
import random
from dataclasses import asdict, replace

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
from plabel.labelling import Edge, Vertex, _elements, elements_of
from plabel.solvers import SolveResult, element_automorphisms


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


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_mop_with_max_degree_is_built_for_every_size(cap):
    nx = pytest.importorskip("networkx")
    # a maximal outerplanar graph on n >= 5 vertices has maximum degree at least 4
    for n in range(3, 25):
        for seed in range(6):
            if cap < 4 and n > cap + 1:
                with pytest.raises(ValueError, match=f"on {n} vertices with degree in"):
                    mop_with_degree(n, seed, max_delta=cap)
                continue
            g = mop_with_degree(n, seed, max_delta=cap)
            assert g.m == 2 * n - 3 and g.max_degree <= cap, (n, seed)
            # outerplanar: still planar with one more vertex joined to all
            apex = nx.Graph(list(g.edges) + [(n, v) for v in range(n)])
            assert nx.check_planarity(apex)[0], (n, seed)


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
    for k in range(13):
        top = 22 if k <= 5 else 86
        for universe in range(k - 1, top):
            for seed in (0, 1):
                ours, theirs = random.Random(seed), random.Random(seed)
                drawn = random_k_assignment(g, k, universe, ours)
                sampled = {x: set(theirs.sample(range(universe + 1), k))
                           for x in elements_of(g)}
                assert drawn == sampled, (k, universe, seed)
                assert list(drawn) == elements_of(g), (k, universe, seed)
                assert all(type(v) is set for v in drawn.values()), (k, universe, seed)
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


def _forced_failures(monkeypatch, suite=run_property_suite):
    # at p=1 the path labeller fails every trial (a violation on even n, an
    # assertion on odd n), and the solver disagrees with every cross-check
    import plabel.harness as harness
    from plabel.constructive import TheoremViolation

    original = harness.label_path_greedy

    def failing(g, p, lists):
        if p > 1:
            return original(g, p, lists)
        if g.n % 2 == 0:
            raise TheoremViolation(f"forced on n={g.n}")
        raise AssertionError(f"forced on n={g.n}")

    monkeypatch.setattr(harness, "label_path_greedy", failing)
    monkeypatch.setattr(harness, "solve_list", lambda g, p, lists: SolveResult(None, 0))
    return suite(ExperimentSpec(family="path", sizes=(3, 4), p_values=(1, 2), trials=51, seed=3))


def _forced_witnesses(monkeypatch, run):
    # every witness hunt runs at list size 2, where witnesses are found at once
    import plabel.harness as harness

    original = harness.find_bad_assignment
    monkeypatch.setattr(harness, "find_bad_assignment",
                        lambda g, p, k, **kwargs: original(g, p, 2, **kwargs))
    return run()


_PINNED_SPECS = {
    "path": ((3, 4), (1, 2)),
    "tree": ((4, 6), (1, 2)),
    "star": ((3, 4), (2, 3)),
    "outerplanar": ((6, 7), (1, 2)),
}
_GENERAL_HUNT = ExperimentSpec(family="hunt", sizes=(3, 4), p_values=(1, 2), trials=4, seed=1,
                               budget=10)
_OUTERPLANAR_HUNT = ExperimentSpec(family="hunt", sizes=(3, 4, 5), p_values=(2,), trials=4,
                                   seed=2, budget=10)
_PINNED_RUNS = {
    "oracle": lambda mp: run_oracle_suite(p_values=(1, 2, 3, 4), sizes=(1, 2, 3, 4, 5)),
    **{
        f"props-{family}-{policy}": (
            lambda mp, family=family, policy=policy: run_property_suite(ExperimentSpec(
                family=family, sizes=_PINNED_SPECS[family][0], p_values=_PINNED_SPECS[family][1],
                policy=policy, trials=6, seed=3, budget=8,
            ))
        )
        for family in _PINNED_SPECS
        for policy in ("random-k", "full-range", "adversarial-search")
    },
    "hunt-general": lambda mp: hunt_counterexamples("general", _GENERAL_HUNT),
    "hunt-outerplanar": lambda mp: hunt_counterexamples("outerplanar", _OUTERPLANAR_HUNT),
    "props-forced-failures": _forced_failures,
    "props-forced-witnesses": lambda mp: _forced_witnesses(mp, lambda: run_property_suite(
        ExperimentSpec(family="tree", sizes=(3, 4), p_values=(1, 2), trials=4, seed=3,
                       policy="adversarial-search", budget=8))),
    "hunt-forced-witnesses": lambda mp: _forced_witnesses(
        mp, lambda: hunt_counterexamples("general", _GENERAL_HUNT)),
    "hunt-general-p212": lambda mp: hunt_counterexamples(
        "general", replace(_GENERAL_HUNT, p_values=(2, 1, 2))),
    "props-tree-adversarial-search-p21": lambda mp: run_property_suite(ExperimentSpec(
        family="tree", sizes=(4, 6), p_values=(2, 1), policy="adversarial-search", trials=6,
        seed=3, budget=8)),
}
_PINNED_DIGESTS = {
    "hunt-forced-witnesses":
        "0af6aa330fea47c1a5ebec07d3630fd9ad889d6c6d29f693c91d590c05ad22b6",
    "hunt-general":
        "8426c46f53b6175027cc6413bd15837b5424cecbe8d6c093c5658792d1d9a7a9",
    "hunt-general-p212":
        "5e74de4d4af10b63932f948f791ba023d51277ad76ab3938439b2bca96065f99",
    "hunt-outerplanar":
        "1ba8ba13659029d55dc7e48a85e1838666c389a4a16ae1169b9d4f7804cc7591",
    "oracle":
        "6074853b1c0ad9462574f60b833ae0ac9b3eddf26ef67ed34aeb3942a02794fe",
    "props-forced-failures":
        "38beafda7785528c7c609b84911c60e5ebaac976434572248588f950e7d0049d",
    "props-forced-witnesses":
        "484d714dff2014ea3cc1f7a52caf31b188c88e4d163f0cb5373777792294213b",
    "props-outerplanar-adversarial-search":
        "a94789ce10439345c0e1900f0a52cdf4eac120a49a5b8217e5b894ad8cb24869",
    "props-outerplanar-full-range":
        "f05ab297518bc5a8cf8d073f3fd0ae49e6fcfab0ef06c016bf2037b49c71b055",
    "props-outerplanar-random-k":
        "1a5d81b8ef421d434bf3056294f79495df7c0b8a8cc499a576516e4f17c1600a",
    "props-path-adversarial-search":
        "5cff102b3a3dd4149b3f679de93b332327d52366ae3a6ff0cb69f5921a2df300",
    "props-path-full-range":
        "8936407df99f7e6d4238018919528268fe52c407f7d71f2a1117a6f798eb7190",
    "props-path-random-k":
        "3e5c0503b2bf408b6d387ff3fba0761c64e3efd84d4529aad12ebe15842dda88",
    "props-star-adversarial-search":
        "724f1e657b2bf2c2a9f26a9d9c6bb68cc14335d2f1f5b17fba087a31187a7baf",
    "props-star-full-range":
        "9d52a376fa1649ea61b5887fe6ab4c95363fcef01ac19a07cf1dcf3aba439347",
    "props-star-random-k":
        "7bceb78dcbebece700c29e7dbae88040ab46e8c1f8750462e360ca85efb27093",
    "props-tree-adversarial-search":
        "8c1560a3348a165e6d51ba05a759460ab59530b081d2504ead6861c1565177c8",
    "props-tree-adversarial-search-p21":
        "cd8f1067f7d83aaa3c463c87adb3f56350802f347c9b5beb1cc363cd42ac38a0",
    "props-tree-full-range":
        "470fbe04c396127cdcd89c7492bb70a78a5dd82168eebe0f6358925082c496c8",
    "props-tree-random-k":
        "8445da5b219825a2e9a63021d7d876d12aba929410823470da600d9fc815f166",
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_reports_are_pinned(name, monkeypatch):
    # sha256 of the JSON and CSV report texts; any change to how rows,
    # verdicts or run parameters are built shows here
    import hashlib

    report = _PINNED_RUNS[name](monkeypatch)
    text = report.to_json_text() + report.to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_DIGESTS.get(name), name


def _p_major_property_suite(spec):
    # the random-k and full-range property suite with the loop over p
    # outermost; the trial-major suite must give its report bytes
    import plabel.harness as h

    family = h._family(spec.family)
    report = h.Report(meta={"suite": "props", **asdict(spec)})
    for p in spec.p_values:
        failures = violations = full_resolves = 0
        for trial in range(spec.trials):
            size, inst, g, k = h._instance(spec, p, trial)
            rng = h._rng(spec.seed, spec.family, size, p, trial)
            if spec.policy == "full-range":
                lists = h.full_lists(g, range(k))
            else:
                universe = spec.universe if spec.universe is not None else k + 2 * p
                lists = h.random_k_assignment(g, k, universe, rng)
            audit = h.OuterplanarAudit()
            try:
                labelling = family.label(g, p, lists, audit)
            except (AssertionError, h.TheoremViolation) as exc:
                failures += 1
                violations += isinstance(exc, h.TheoremViolation)
                report.add_row(inst, spec.family, g.n, p, k, "failed", fallbacks=audit.full_resolves)
                report.check(f"{spec.family}-labelling", inst, "labelled",
                             f"{type(exc).__name__}: {exc}",
                             certificate=h._counterexample(g, p, lists))
                continue
            full_resolves += audit.full_resolves
            colors = labelling.values()
            report.add_row(inst, spec.family, g.n, p, k, "labelled", max(colors) - min(colors),
                           fallbacks=audit.full_resolves)
            if trial % h._CROSS_CHECK_EVERY == 0 and g.n + g.m <= 12:
                if not h.solve_list(g, p, lists).labelled:
                    report.check(f"{spec.family}-solver-agreement", inst, "labelable",
                                 "solver-infeasible", certificate=h._counterexample(g, p, lists))
        summary = f"props-{spec.family}-p{p}"
        report.check(f"{spec.family}-zero-failures-p{p}", summary, 0, failures)
        report.check(f"{spec.family}-zero-research-events-p{p}", summary, 0,
                     violations + full_resolves)
    return report


def _p_major_adversarial_suite(spec):
    # the adversarial-search property suite with the loop over p outermost
    import plabel.harness as h

    report = h.Report(meta={"suite": "props", **asdict(spec)})
    for p in spec.p_values:
        witnesses = 0
        for trial in range(spec.trials):
            _, inst, g, k = h._instance(spec, p, trial)
            kind, witness = h._hunt(report, inst, spec.family, g, p, k, spec.universe, spec.budget)
            if witness is not None:
                witnesses += 1
                report.check(f"{spec.family}-guarantee-adversarial", inst, "exhausted", kind,
                             certificate=witness)
        report.check(f"{spec.family}-zero-witnesses-p{p}", f"props-{spec.family}-p{p}", 0,
                     witnesses)
    return report


def _p_major_hunt_graphs(conjecture, spec, p):
    # each hunt trial at p, with the graphs made directly rather than from FAMILIES
    for trial in range(spec.trials):
        size = spec.sizes[trial % len(spec.sizes)]
        if conjecture == "outerplanar":
            if size < 3 or (p == 1 and size > 4):
                continue
            g = mop_with_degree(size, spec.seed * 1000003 + trial, max_delta=p + 2)
            yield trial, g, g.max_degree + 2 * p - 1
        else:
            kind = trial % 3
            if kind == 0:
                g = make_random_tree(size, spec.seed * 1000003 + trial)
            elif kind == 1:
                g = make_star(max(1, size - 1))
            else:
                g = make_path(size)
            yield trial, g, g.max_degree + 2 * p


def _p_major_hunt(conjecture, spec):
    # the witness hunt with the loop over p outermost and the control last
    import plabel.harness as h

    report = h.Report(meta={"suite": "hunt", "conjecture": conjecture, **asdict(spec)})
    for p in spec.p_values:
        for trial, g, k in _p_major_hunt_graphs(conjecture, spec, p):
            inst = f"hunt-{conjecture}-n{g.n:02d}-p{p}-t{trial:04d}"
            kind, witness = h._hunt(report, inst, "hunt", g, p, k, spec.universe, spec.budget)
            report.check(f"conjecture-{conjecture}-survives", inst, "exhausted", kind,
                         certificate=witness)
    kind, _ = h._hunt(report, "hunt-control-star", "hunt", make_star(3), 2, 4, None, spec.budget)
    report.check("witness-machinery-control", "hunt-control-star", "lower-witness", kind)
    return report


def _report_text(report):
    return report.to_json_text() + report.to_csv_text()


# per family: sizes, then p values sorted, repeated and unsorted (stars need p >= 2)
_ORDER_SPECS = {
    "path": ((3, 5), ((1, 2, 3), (2, 2), (3, 1))),
    "tree": ((4, 7), ((1, 2, 3), (2, 2), (3, 1))),
    "star": ((3, 4), ((2, 3), (2, 2), (3, 2))),
    "outerplanar": ((7, 8), ((1, 2, 3), (2, 2), (3, 1))),
}


@pytest.mark.parametrize("policy", ["random-k", "full-range"])
@pytest.mark.parametrize("family", sorted(_ORDER_SPECS))
def test_trial_major_suite_matches_the_p_major_loop(family, policy):
    sizes, orders = _ORDER_SPECS[family]
    for p_values in orders:
        spec = ExperimentSpec(family=family, sizes=sizes, p_values=p_values, policy=policy,
                              trials=8, seed=11)
        assert _report_text(run_property_suite(spec)) == \
            _report_text(_p_major_property_suite(spec)), p_values


def test_forced_failures_match_the_p_major_loop(monkeypatch):
    report = _forced_failures(monkeypatch)
    failed = {(v["claim"], v["certificate"]["p"]) for v in report.verdicts if "certificate" in v}
    assert failed == {("path-labelling", 1), ("path-solver-agreement", 2)}
    monkeypatch.undo()
    reference = _forced_failures(monkeypatch, _p_major_property_suite)
    assert _report_text(report) == _report_text(reference)


def test_every_p_of_a_trial_reuses_its_graph():
    make_random_tree.cache_clear()
    _elements.cache_clear()
    run_property_suite(ExperimentSpec(family="tree", sizes=(5, 8), p_values=(1, 2, 3),
                                      trials=6, seed=4))
    info = make_random_tree.cache_info()
    assert (info.misses, info.hits) == (6, 12)
    assert _elements.cache_info().misses == 6


@pytest.mark.parametrize("family", sorted(_ORDER_SPECS))
def test_trial_major_adversarial_suite_matches_the_p_major_loop(family):
    sizes, orders = _ORDER_SPECS[family]
    for p_values in orders:
        spec = ExperimentSpec(family=family, sizes=sizes, p_values=p_values,
                              policy="adversarial-search", trials=4, seed=11, budget=8)
        assert _report_text(run_property_suite(spec)) == \
            _report_text(_p_major_adversarial_suite(spec)), p_values


# per conjecture: sizes, then p values sorted, repeated and unsorted; at p=1 the
# outerplanar hunt skips its sizes above 4
_HUNT_ORDER_SPECS = {
    "general": ((3, 4, 5), ((1, 2, 3), (2, 2), (3, 1), (2,))),
    "outerplanar": ((3, 5, 4, 6), ((1,), (2,), (1, 2), (2, 1, 2), (3, 1))),
}


@pytest.mark.parametrize("conjecture", sorted(_HUNT_ORDER_SPECS))
def test_trial_major_hunt_matches_the_p_major_loop(conjecture):
    sizes, orders = _HUNT_ORDER_SPECS[conjecture]
    for p_values in orders:
        spec = ExperimentSpec(family="hunt", sizes=sizes, p_values=p_values, trials=6, seed=7,
                              budget=10)
        assert _report_text(hunt_counterexamples(conjecture, spec)) == \
            _report_text(_p_major_hunt(conjecture, spec)), p_values


_WITNESS_SPEC = ExperimentSpec(family="tree", sizes=(3, 4), p_values=(2, 1, 2), trials=4, seed=3,
                               policy="adversarial-search", budget=8)


@pytest.mark.parametrize("run, reference", [
    (lambda: run_property_suite(_WITNESS_SPEC), lambda: _p_major_adversarial_suite(_WITNESS_SPEC)),
    (lambda: hunt_counterexamples("general", replace(_GENERAL_HUNT, p_values=(2, 1))),
     lambda: _p_major_hunt("general", replace(_GENERAL_HUNT, p_values=(2, 1)))),
], ids=["props", "hunt"])
def test_forced_witnesses_match_the_p_major_loop(monkeypatch, run, reference):
    report = _forced_witnesses(monkeypatch, run)
    assert not report.ok
    assert any("certificate" in v for v in report.verdicts)
    assert _report_text(report) == _report_text(_forced_witnesses(monkeypatch, reference))


_SIX_TRIALS = {"sizes": (5, 6, 7), "p_values": (1, 2, 3), "trials": 6, "seed": 0}


@pytest.mark.parametrize("run, misses", [
    (lambda: hunt_counterexamples("general", ExperimentSpec(family="hunt", **_SIX_TRIALS)), 5),
    (lambda: run_property_suite(ExperimentSpec(family="tree", policy="adversarial-search",
                                               **_SIX_TRIALS)), 6),
], ids=["hunt", "props"])
def test_every_p_of_a_trial_shares_its_automorphisms(run, misses):
    # 18 hunts (and the hunt's control) on one group per trial; the hunt's
    # trials cycle tree, star and path, and trials 4 and 5 hunt the star and
    # path of trials 1 and 2, whose groups are still kept
    element_automorphisms.cache_clear()
    run()
    assert element_automorphisms.cache_info().misses == misses
    perms = element_automorphisms(make_path(3))
    assert type(perms) is tuple and all(type(pm) is tuple for pm in perms)
