import argparse
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plabel.cli import build_parser, main
from plabel.graphs import emit_edge_list, emit_graph6, make_path, make_star, parse_graph6
from plabel.harness import FAMILIES, make_instance
from plabel.labelling import (
    full_lists,
    is_valid,
    labelling_from_json,
    labelling_to_json,
    lists_to_json,
)
from plabel.solvers import Certificate, find_bad_assignment


@pytest.fixture
def star3_file(tmp_path):
    path = tmp_path / "star3.txt"
    path.write_text(emit_edge_list(make_star(3)))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(emit_edge_list(make_path(4)))
    return str(path)


def test_solve_minimizes(p4_file, capsys, tmp_path):
    out = tmp_path / "lab.json"
    code = main(["solve", "--graph", p4_file, "--p", "2", "--out", str(out)])
    assert code == 0
    assert "lambda=4 chi=5" in capsys.readouterr().out
    p, lab = labelling_from_json(out.read_text())
    assert p == 2 and len(lab) == 7


def test_solve_fixed_k(p4_file, capsys):
    assert main(["solve", "--graph", p4_file, "--p", "2", "--k", "3"]) == 0
    assert "infeasible" in capsys.readouterr().out


def test_solve_without_k_solves_each_span_once(tmp_path, capsys, monkeypatch):
    import plabel.solvers as solvers

    verdicts = []
    solve_list = solvers.solve_list

    def counted(g, p, lists):
        result = solve_list(g, p, lists)
        verdicts.append(result.labelled)
        return result

    monkeypatch.setattr(solvers, "solve_list", counted)
    gfile = tmp_path / "p3.txt"
    gfile.write_text(emit_edge_list(make_path(3)))
    out = tmp_path / "lab.json"
    assert main(["solve", "--graph", str(gfile), "--p", "2", "--out", str(out)]) == 0
    assert verdicts == [False, True]  # span 3 is infeasible, span 4 labels
    assert capsys.readouterr().out == "lambda=4 chi=5\n"
    assert out.read_text() == labelling_to_json(2, solvers.solve_span(make_path(3), 2, 4).labelling)


def test_list_solve(star3_file, tmp_path, capsys):
    lists = tmp_path / "lists.json"
    lists.write_text(lists_to_json(2, full_lists(make_star(3), range(6))))
    code = main(["list-solve", "--graph", star3_file, "--lists", str(lists)])
    assert code == 0
    assert "labelled" in capsys.readouterr().out


def test_choosability_witness_and_recheck(star3_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main([
        "choosability", "--graph", star3_file, "--p", "2", "--k", "4",
        "--budget", "50", "--out", str(cert_path),
    ])
    assert code == 0
    cert = Certificate.from_json(cert_path.read_text())
    assert cert.kind == "lower-witness"
    assert main(["recheck", str(cert_path)]) == 0
    # tampered certificate must fail the recheck
    broken = json.loads(cert_path.read_text())
    broken["k"] = 3
    cert_path.write_text(json.dumps(broken))
    assert main(["recheck", str(cert_path)]) == 1


def test_recheck_rejects_foreign_elements(tmp_path, capsys):
    cert = find_bad_assignment(make_star(3), 2, 4, budget=50)
    assert cert.kind == "lower-witness"
    obj = json.loads(cert.to_json())
    obj["assignment"]["e:0-9"] = [0, 1, 2, 3]
    obj["assignment"]["v:77"] = [0, 1, 2, 3]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(obj))
    assert main(["recheck", str(cert_path)]) == 1
    assert "not in the graph" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["lex", "random"])
def test_recheck_rejects_a_forged_complete_flag(tmp_path, capsys, mode):
    gfile = tmp_path / "p3.txt"
    gfile.write_text(emit_edge_list(make_path(3)))
    cert_path = tmp_path / "cert.json"
    assert main([
        "choosability", "--graph", str(gfile), "--p", "2", "--k", "5", "--budget", "3",
        "--mode", mode, "--out", str(cert_path),
    ]) == 0
    obj = json.loads(cert_path.read_text())
    assert (obj["kind"], obj["checked"], obj["complete"]) == ("exhausted", 3, False)
    assert main(["recheck", str(cert_path)]) == 0
    obj["complete"] = True
    cert_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["recheck", str(cert_path)]) == 1
    assert capsys.readouterr().out == "FAILED: replay gives complete=False, the record True\n"


_CERTIFY_P2 = ("--p", "1", "--k", "3", "--universe", "5", "--exhaustive")
_NORMALIZATION = "('shift-min-0', 'automorphism-canonical')"


@pytest.mark.parametrize("n, args, forged, message", [
    (2, _CERTIFY_P2, {"complete": False}, "complete=True, the record False"),
    (2, _CERTIFY_P2, {"normalization": []}, f"normalization={_NORMALIZATION}, the record ()"),
    (2, _CERTIFY_P2, {"complete": False, "normalization": []},
     "complete=True, the record False"),
    (3, ("--p", "2", "--k", "5", "--budget", "3"), {"normalization": ["shift-min-0"]},
     f"normalization={_NORMALIZATION}, the record ('shift-min-0',)"),
], ids=["certified-complete", "certified-normalization", "certified-both",
        "exhausted-normalization"])
def test_recheck_rejects_a_forged_record(tmp_path, capsys, n, args, forged, message):
    # the replay must reproduce the record's complete flag and normalization
    # rules, on an upper certification as on an exhaustion record
    gfile = tmp_path / "path.txt"
    gfile.write_text(emit_edge_list(make_path(n)))
    cert_path = tmp_path / "cert.json"
    assert main(["choosability", "--graph", str(gfile), *args, "--out", str(cert_path)]) == 0
    cert_path.write_text(json.dumps({**json.loads(cert_path.read_text()), **forged}))
    capsys.readouterr()
    assert main(["recheck", str(cert_path)]) == 1
    assert capsys.readouterr().out == f"FAILED: replay gives {message}\n"


def test_choosability_exhaustive(tmp_path, capsys):
    edge = tmp_path / "p2.txt"
    edge.write_text(emit_edge_list(make_path(2)))
    cert_path = tmp_path / "cert.json"
    code = main([
        "choosability", "--graph", str(edge), "--p", "1", "--k", "3",
        "--universe", "5", "--exhaustive", "--out", str(cert_path),
    ])
    assert code == 0
    assert Certificate.from_json(cert_path.read_text()).kind == "upper-certified"


def test_choosability_exhaustive_refusal_names_its_cause(p4_file, tmp_path, capsys):
    # P4 has 7 elements; 6 lists per element would be only 6**7 raw assignments
    assert main(["choosability", "--graph", p4_file, "--p", "1", "--k", "2",
                 "--universe", "3", "--exhaustive"]) == 2
    assert capsys.readouterr().err == (
        "error: refusing exhaustive certification: 7 elements, more than the 6 it sweeps\n")
    edge = tmp_path / "p2.txt"
    edge.write_text(emit_edge_list(make_path(2)))
    assert main(["choosability", "--graph", str(edge), "--p", "1", "--k", "5",
                 "--universe", "20", "--exhaustive"]) == 2
    assert capsys.readouterr().err == (
        "error: refusing exhaustive certification: 3 elements with 20349 candidate lists "
        "each, more than the 5000000 raw assignments it sweeps\n")
    # far too many assignments to write as a float
    assert main(["choosability", "--graph", str(edge), "--p", "1", "--k", "10",
                 "--universe", str(10**21), "--exhaustive"]) == 2


def test_construct_star_with_audit(star3_file, tmp_path):
    out = tmp_path / "lab.json"
    code = main([
        "construct", "--family", "star", "--graph", star3_file, "--p", "2",
        "--out", str(out),
    ])
    assert code == 0
    p, lab = labelling_from_json(out.read_text())
    assert len(lab) == 7


def test_construct_star_span(tmp_path):
    out = tmp_path / "lab.json"
    dot = tmp_path / "lab.dot"
    code = main([
        "construct", "--family", "star-span", "--n", "3", "--p", "2",
        "--out", str(out), "--dot", str(dot),
    ])
    assert code == 0
    _, lab = labelling_from_json(out.read_text())
    assert max(lab.values()) == 5
    assert "--" in dot.read_text()


def test_construct_outerplanar_audit_trail(tmp_path):
    from plabel.harness import mop_with_degree

    g = mop_with_degree(8, 1, min_delta=5)
    gfile = tmp_path / "g.txt"
    gfile.write_text(emit_edge_list(g))
    audit = tmp_path / "audit.json"
    code = main([
        "construct", "--family", "outerplanar", "--graph", str(gfile), "--p", "2",
        "--audit", str(audit), "--out", str(tmp_path / "lab.json"),
    ])
    assert code == 0
    trail = json.loads(audit.read_text())
    assert trail["full_resolves"] == 0
    assert trail["configurations"]


def test_incidence_graph6_output(tmp_path, capsys):
    gfile = tmp_path / "p3.txt"
    gfile.write_text(emit_edge_list(make_path(3)))
    mapfile = tmp_path / "map.json"
    code = main([
        "incidence", "--graph", str(gfile), "--format", "edge-list",
        "--map", str(mapfile),
    ])
    assert code == 0
    mapping = json.loads(mapfile.read_text())
    assert mapping["edge_image"] == {"0-1": 3, "1-2": 4}


def test_oracle_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "oracle", "--p-min", "2", "--p-max", "2", "--size-min", "2",
        "--size-max", "4", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True


def test_oracle_rejects_p_below_1(capsys):
    assert main(["oracle", "--p-min", "0", "--p-max", "1", "--size-max", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("bounds", [("--p-min", "4", "--p-max", "2"),
                                    ("--size-min", "5", "--size-max", "2")])
def test_oracle_rejects_an_empty_range(bounds, capsys):
    assert main(["oracle", *bounds]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("bounds", [("--size-min", "0", "--size-max", "0"),
                                    ("--size-min", "-3", "--size-max", "1")])
def test_oracle_rejects_sizes_below_1(bounds, capsys):
    # a size below 1 gives no path or star to check; it was skipped silently
    assert main(["oracle", *bounds]) == 2
    assert capsys.readouterr().err == "error: the closed forms need sizes >= 1\n"


def test_outerplanar_least_size_grows_with_p(tmp_path, capsys):
    # Delta >= p+3 needs p+4 vertices, so 7 at p = 3
    assert main(["props", "--family", "outerplanar", "--p-values", "3",
                 "--size-min", "5"]) == 2
    assert capsys.readouterr().err == "error: family 'outerplanar' needs size >= 7\n"
    report = tmp_path / "report.json"
    assert main(["props", "--family", "outerplanar", "--trials", "2",
                 "--out", str(report)]) == 0
    assert json.loads(report.read_text())["meta"]["sizes"] == list(range(7, 13))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_family_constructs_and_runs_props(family, tmp_path):
    min_p = FAMILIES[family].min_p
    g = make_instance(family, 7, min_p, 0, 0)
    gfile = tmp_path / "g.txt"
    gfile.write_text(emit_edge_list(g))
    out = tmp_path / "lab.json"
    assert main(["construct", "--family", family, "--graph", str(gfile),
                 "--p", str(min_p), "--out", str(out)]) == 0
    p, lab = labelling_from_json(out.read_text())
    assert is_valid(g, p, lab, total=True).ok
    report = tmp_path / "report.json"
    assert main(["props", "--family", family, "--size-min", "7", "--size-max", "8",
                 "--trials", "4", "--out", str(report)]) == 0
    assert json.loads(report.read_text())["meta"]["p_values"] == list(range(min_p, 4))


def test_family_choices_come_from_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command):
        action = next(a for a in sub.choices[command]._actions if a.dest == "family")
        return list(action.choices)

    assert choices("props") == list(FAMILIES)
    assert choices("construct") == [*FAMILIES, "star-span"]


def test_props_command_exit_codes(tmp_path):
    code = main([
        "props", "--family", "path", "--p-values", "2", "--size-min", "3",
        "--size-max", "4", "--trials", "6", "--csv", str(tmp_path / "r.csv"),
    ])
    assert code == 0
    csv_text = (tmp_path / "r.csv").read_text()
    assert csv_text.splitlines()[0] == "instance,family,n,p,k,outcome,span,fallbacks,nodes"


def test_hunt_command(tmp_path):
    code = main([
        "hunt", "--conjecture", "general", "--p-values", "2", "--size-min", "3",
        "--size-max", "3", "--trials", "2", "--budget", "10",
        "--out", str(tmp_path / "hunt.json"),
    ])
    assert code == 0


def test_outerplanar_hunt_at_p1_skips_sizes_outside_its_regime(tmp_path, capsys):
    # the default sizes 3..6 hunt 3 and 4 only; 5 and 6 have no maximal
    # outerplanar graph of maximum degree 3
    out = tmp_path / "hunt.json"
    assert main(["hunt", "--conjecture", "outerplanar", "--p-values", "1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "5/5 checks passed\n"
    rows = json.loads(out.read_text())["rows"]
    assert [(r["instance"], r["k"]) for r in rows] == [
        ("hunt-control-star", 4),
        ("hunt-outerplanar-n03-p1-t0000", 3),
        ("hunt-outerplanar-n03-p1-t0004", 3),
        ("hunt-outerplanar-n04-p1-t0001", 4),
        ("hunt-outerplanar-n04-p1-t0005", 4),
    ]


def test_outerplanar_hunt_reaches_sizes_where_few_graphs_meet_the_degree_cap(tmp_path, capsys):
    # at p=2 the cap is maximum degree 4, which few random maximal
    # outerplanar graphs on 12 or more vertices meet
    assert main(["hunt", "--conjecture", "outerplanar", "--size-max", "14", "--trials", "12",
                 "--out", str(tmp_path / "hunt.json")]) == 0
    assert capsys.readouterr().out == "13/13 checks passed\n"


@pytest.mark.parametrize("args, message", [
    (("--conjecture", "general", "--p-values", "0"), "the conjectured bounds need p >= 1"),
    (("--conjecture", "general", "--p-values", "-1"), "the conjectured bounds need p >= 1"),
    (("--conjecture", "outerplanar", "--size-min", "1", "--size-max", "2"),
     "an outerplanar hunt needs a size >= 3 among its trials"),
    # trials 0 and 1 run sizes 1 and 2; size 3 would come third
    (("--conjecture", "outerplanar", "--size-min", "1", "--size-max", "3", "--trials", "2"),
     "an outerplanar hunt needs a size >= 3 among its trials"),
    # at p=1 the open regime (maximum degree 3) holds no maximal outerplanar
    # graph on more than 4 vertices
    (("--conjecture", "outerplanar", "--p-values", "1", "--size-min", "5", "--size-max", "6"),
     "an outerplanar hunt at p=1 needs a size of 3 or 4 among its trials"),
    (("--conjecture", "outerplanar", "--p-values", "2", "1", "--size-min", "5",
      "--size-max", "6"),
     "an outerplanar hunt at p=1 needs a size of 3 or 4 among its trials"),
])
def test_hunt_rejects_specs_without_a_hunt(args, message, capsys):
    assert main(["hunt", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["solve", "--graph", missing, "--p", "2"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("0 zero")
    assert main(["solve", "--graph", str(bad), "--p", "2"]) == 2


def test_theorem_violation_exit_code(tmp_path):
    # K5 is not outerplanar: the labeller reports a research event, exit 3
    from plabel.graphs import Graph

    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    gfile = tmp_path / "k5.txt"
    gfile.write_text(emit_edge_list(k5))
    code = main(["construct", "--family", "outerplanar", "--graph", str(gfile), "--p", "1"])
    assert code == 3


def test_graph6_input_support(tmp_path, capsys):
    gfile = tmp_path / "tri.g6"
    gfile.write_text(emit_graph6(parse_graph6("Bw")) + "\n")
    assert main(["solve", "--graph", str(gfile), "--format", "graph6", "--p", "1"]) == 0
    assert "lambda=" in capsys.readouterr().out


_BAD_LISTS = [
    "[1, 2]",
    '"x"',
    '{"p": 1, "lists": {"v:0": 5}}',
    # a list for every element of star3, and then edge 0-1 named a second time
    json.dumps({"p": 2, "lists": {
        name: list(range(6))
        for name in ("v:0", "v:1", "v:2", "v:3", "e:0-1", "e:0-2", "e:0-3", "e:1-0")
    }}),
    # the same key twice: the first list must not be silently replaced
    '{"p": 2, "lists": {"v:0": [0,1,2,3,4,5], "v:1": [0,1,2,3,4,5], "v:2": [0,1,2,3,4,5],'
    ' "v:3": [0,1,2,3,4,5], "e:0-1": [0], "e:0-1": [0,1,2,3,4,5], "e:0-2": [0,1,2,3,4,5],'
    ' "e:0-3": [0,1,2,3,4,5]}}',
    # a list for every element of star3, and one for a vertex it does not have
    json.dumps({"p": 2, "lists": {
        **{name: list(range(6))
           for name in ("v:0", "v:1", "v:2", "v:3", "e:0-1", "e:0-2", "e:0-3")},
        "v:7": [5],
    }}),
    # a negative color
    json.dumps({"p": 2, "lists": {
        name: [-5, *range(6)] if name == "v:0" else list(range(6))
        for name in ("v:0", "v:1", "v:2", "v:3", "e:0-1", "e:0-2", "e:0-3")
    }}),
]
_BAD_CERTIFICATES = [
    "[1]",
    json.dumps({"kind": "lower-witness", "p": 1, "k": 2, "U": 3, "graph": "A_", "checked": 1,
                "assignment": [1, 2]}),
    '{"kind": "exhausted", "p": 1, "k": 3, "k": 2, "U": 3, "graph": "A_", "checked": 1}',
    json.dumps({"kind": "lower-witness", "p": 1, "k": 2, "U": 3, "graph": "A_", "checked": 1,
                "assignment": {"v:0": [-1, 0], "v:1": [0, 1], "e:0-1": [0, 1]}}),
]


@pytest.mark.parametrize("text", _BAD_LISTS)
def test_malformed_lists_exit_2(star3_file, tmp_path, capsys, text):
    lists = tmp_path / "lists.json"
    lists.write_text(text)
    assert main(["list-solve", "--graph", star3_file, "--lists", str(lists)]) == 2
    assert main(["construct", "--family", "star", "--graph", star3_file, "--p", "2",
                 "--lists", str(lists)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("text", _BAD_CERTIFICATES)
def test_malformed_certificate_exits_2(tmp_path, capsys, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    assert main(["recheck", str(cert)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# Arbitrary JSON, plus well-typed files with small numbers, so that every
# well-formed draw stays a desk-sized search.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=10,
)
_small = st.integers(-1, 4)
_colors = st.lists(st.integers(-1, 5), max_size=3)
_odd_names = {"v:7": _colors, "e:1-1": _colors, "x": _colors}
_lists_files = st.fixed_dictionaries({
    "p": _small,
    "lists": st.fixed_dictionaries(
        {name: st.lists(st.integers(-1, 5), min_size=1, max_size=3)
         for name in ("v:0", "v:1", "v:2", "v:3", "e:0-1", "e:0-2", "e:0-3")},
        optional=_odd_names,
    ),
})
_certificates = st.fixed_dictionaries({
    "kind": st.sampled_from(["lower-witness", "upper-certified", "exhausted", "other"]),
    "p": _small,
    "k": _small,
    "U": _small,
    "graph": st.sampled_from(["?", "@", "A?", "A_", "A"]),
    "checked": _small,
}, optional={
    "assignment": st.fixed_dictionaries(
        {}, optional={name: _colors for name in ("v:0", "v:1", "e:0-1")} | _odd_names),
    "budget": _small,
    "mode": st.sampled_from(["lex", "random", "other"]),
    "seed": _small,
    "complete": st.booleans(),
    "normalization": st.lists(st.text(max_size=4), max_size=2),
})


@given(
    command=st.sampled_from(["list-solve", "recheck"]),
    value=_json | _lists_files | _certificates,
)
def test_json_readers_never_raise(tmp_path_factory, command, value):
    folder = tmp_path_factory.mktemp("fuzz")
    graph = folder / "star3.txt"
    graph.write_text(emit_edge_list(make_star(3)))
    data = folder / "input.json"
    data.write_text(json.dumps(value))
    if command == "list-solve":
        code = main(["list-solve", "--graph", str(graph), "--lists", str(data)])
    else:
        code = main(["recheck", str(data)])
    assert code in (0, 1, 2)
    if not isinstance(value, dict):
        assert code == 2


_PARSER_CALLS = [
    ["props", "--family", "path", "--p-values", "1", "--size-max", "4", "--trials", "3"],
    ["hunt", "--conjecture", "general", "--p-values", "x"],  # malformed: exit 2
    ["hunt", "--conjecture", "general", "--size-max", "3", "--trials", "2", "--budget", "10"],
    ["props", "--family", "tree", "--size-max", "4", "--trials", "3"],
    ["hunt", "--conjecture", "general", "--p-values", "1", "3", "--size-max", "3",
     "--trials", "2", "--budget", "10"],
    ["hunt", "--conjecture", "general", "--size-max", "3", "--trials", "2", "--budget", "10"],
]


def test_shared_parser_answers_as_a_fresh_one(tmp_path, capsys):
    out = tmp_path / "report.json"

    def run(argv):
        out.unlink(missing_ok=True)
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_text() if out.exists() else None

    build_parser.cache_clear()
    shared = [run(argv) for argv in _PARSER_CALLS]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in _PARSER_CALLS:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 2, 0, 0, 0, 0]
    # the default p of a hunt stays 2 after a call that named other values
    assert shared[2] == shared[5]
