import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plabel.constructive import label_tree_dfs
from plabel.graphs import Graph, incidence_graph, make_path, make_random_tree, make_star
from plabel.labelling import (
    Edge,
    ValidationReport,
    Vertex,
    Violation,
    _color_masks,
    _edge_positions,
    _shared,
    check_lists,
    element_from_name,
    element_key,
    element_name,
    elements_of,
    full_lists,
    is_valid,
    labelling_from_json,
    labelling_to_json,
    lists_from_json,
    lists_to_json,
    lp1_is_valid,
    p_ball,
    pull_back_labelling,
    respects_lists,
    transport_labelling,
)


def test_edge_normalizes():
    assert Edge(3, 1) == Edge(1, 3)
    with pytest.raises(ValueError):
        Edge(2, 2)


def test_element_order_vertices_before_edges():
    g = Graph(3, [(1, 2), (0, 1)])
    assert elements_of(g) == [Vertex(0), Vertex(1), Vertex(2), Edge(0, 1), Edge(1, 2)]


def test_element_names_round_trip():
    for x in (Vertex(7), Edge(2, 9)):
        assert element_from_name(element_name(x)) == x
    with pytest.raises(ValueError):
        element_from_name("w:3")


def test_p_ball_examples():
    assert p_ball(5, 2) == {4, 5, 6}
    assert p_ball(7, 1) == {7}
    assert p_ball(0, 3) == {-2, -1, 0, 1, 2}
    assert p_ball(4, 0) == set()
    with pytest.raises(ValueError):
        p_ball(1, -1)


@given(st.integers(-5, 20), st.integers(1, 6))
def test_p_ball_size_and_membership(x, p):
    ball = p_ball(x, p)
    assert len(ball) == 2 * p - 1
    assert ball == {c for c in range(x - p, x + p + 1) if abs(c - x) < p}


def test_is_valid_single_edge():
    g = make_path(2)
    good = {Vertex(0): 0, Edge(0, 1): 2, Vertex(1): 4}
    assert is_valid(g, 2, good, total=True).ok
    bad = {Vertex(0): 0, Edge(0, 1): 1, Vertex(1): 3}
    report = is_valid(g, 2, bad)
    assert not report.ok
    assert [v.family for v in report.violations] == ["vertex-edge"]


def test_is_valid_empty_and_total_flag():
    g = make_path(3)
    assert is_valid(g, 2, {}).ok
    report = is_valid(g, 2, {}, total=True)
    assert not report.ok
    assert all(v.family == "unlabelled" for v in report.violations)
    assert len(report.violations) == 5


def test_is_valid_reports_all_violation_families():
    g = make_star(2)  # path 1-0-2
    c = {Vertex(1): 3, Vertex(2): 3, Edge(0, 1): 5, Edge(0, 2): 5, Vertex(0): 5}
    report = is_valid(g, 1, c)
    fams = sorted(v.family for v in report.violations)
    # leaves are non-adjacent so equal vertex colors are fine; the edges clash
    # at the center, and the center sits on both its edges
    assert fams == ["edge-edge", "vertex-edge", "vertex-edge"]


def test_is_valid_p0_degenerates_to_proper_colorings():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c = {
        Vertex(0): 0, Vertex(1): 1, Vertex(2): 2,
        Edge(0, 1): 0, Edge(1, 2): 1, Edge(0, 2): 2,
    }
    # vertex color equals incident edge color: fine at p=0
    assert is_valid(tri, 0, c, total=True).ok


def _former_is_valid(g, p, labelling, total=False):
    """is_valid as it was before its clash scan skipped repeat-free vertices."""
    if p < 0:
        raise ValueError("separation p must be non-negative")
    if isinstance(labelling, list):
        colors = labelling
    else:
        colors = [None] * (g.n + g.m)
        edge_at = _edge_positions(g)
        for x, color in labelling.items():
            if isinstance(x, Vertex) and 0 <= x.v < g.n:
                colors[x.v] = color
            elif isinstance(x, Edge) and (x.u, x.v) in edge_at:
                colors[edge_at[x.u, x.v]] = color
            else:
                raise ValueError(f"{x!r} is not an element of the graph with n={g.n}")
    if len(colors) != g.n + g.m:
        raise ValueError(f"labelling has {len(colors)} positions for {g.n + g.m} elements")
    n, edges = g.n, g.sorted_edges()
    def element(i):
        return Vertex(i) if i < n else Edge(*edges[i - n])
    same, close = [], []
    incident = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges, n):
        cu, cv, ce = colors[u], colors[v], colors[j]
        if cu is not None and cu == cv:
            same.append(Violation("vertex-vertex", Vertex(u), Vertex(v)))
        if ce is None:
            continue
        incident[u].append(j)
        incident[v].append(j)
        close += [Violation("vertex-edge", Vertex(w), Edge(u, v))
                  for w, cw in ((u, cu), (v, cv)) if cw is not None and abs(cw - ce) < p]
    clash = [Violation("edge-edge", element(a), element(b))
             for labelled in incident for a, b in combinations(labelled, 2)
             if colors[a] == colors[b]]
    violations = same + clash + close
    if total:
        violations += [Violation("unlabelled", element(i))
                       for i, color in enumerate(colors) if color is None]
    return ValidationReport(ok=not violations, violations=tuple(violations))


def test_is_valid_matches_the_former_scan():
    rng = random.Random(14)
    valid = 0
    for trial in range(400):
        p = trial % 4
        if trial // 4 % 2 and p:
            # a valid tree labelling, then partly erased or corrupted
            g = make_random_tree(rng.randint(1, 12), trial)
            k = max(g.max_degree, 2) + 2 * p - 1
            colors = list(label_tree_dfs(g, p, full_lists(g, range(k))).values())
            for _ in range(rng.choice((0, 0, 1, 2))):
                i = rng.randrange(len(colors))
                colors[i] = rng.choice((None, rng.randrange(k), colors[rng.randrange(len(colors))]))
        else:
            n = rng.randint(1, 8)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
            colors = [None if rng.random() < 0.2 else rng.randrange(6) for _ in range(n + g.m)]
        as_dict = {x: c for x, c in zip(elements_of(g), colors) if c is not None}
        for labelling in (colors, as_dict):
            for total in (False, True):
                report = is_valid(g, p, labelling, total=total)
                assert report == _former_is_valid(g, p, labelling, total=total)
                valid += report.ok
    assert valid > 200


def test_color_masks_encode_by_rank():
    values, near, masks = _color_masks([{10**9, 7}, [7, 7, 12], range(5, 8)], 3)
    assert values == [5, 6, 7, 12, 10**9]
    # a repeated color is one bit, not a carry into the next
    assert masks == [0b10100, 0b01100, 0b00111]
    # distance < 3: 5..7 are mutually near; 12 and 10**9 are near only themselves
    assert near == [0b00111, 0b00111, 0b00111, 0b01000, 0b10000]
    assert _color_masks([{3, 4}, {9}], 0) == ([3, 4, 9], [0, 0, 0], [0b011, 0b100])
    assert _color_masks([{3}, {4}], 1)[1] == [0b01, 0b10]
    assert _color_masks([], 2) == ([], [], [])
    # one object repeated reuses its mask; equal copies build the same masks
    span = range(3, 6)
    assert _color_masks([span, span, {9}, span], 2) == _color_masks(
        [range(3, 6), range(3, 6), {9}, range(3, 6)], 2)
    assert _color_masks([span, span, {9}, span], 2)[2] == [0b0111, 0b0111, 0b1000, 0b0111]
    # one object shared by every domain, repeated colors included, encodes
    # as its equal but distinct copies do
    for shared in (span, [7, 7, 12, 10**9], frozenset({0})):
        assert _color_masks([shared] * 3, 3) == _color_masks([list(shared) for _ in range(3)], 3)
    assert _color_masks([[7, 7, 12]] * 2, 0) == ([7, 12], [0, 0], [0b11, 0b11])


def test_shared_is_an_identity_test():
    # equal but distinct lists are not shared: they take the general encoding
    # and the solver's per-group root check
    span = range(3)
    assert _shared([span] * 4) and _shared((span,))
    assert not _shared([]) and not _shared([range(3) for _ in range(4)])
    assert not _shared([span] * 3 + [range(3)]) and not _shared([{1}, span, span])
    # a caller that has tested the domains passes the answer along
    for shared in (True, False):
        assert _color_masks([span] * 3, 2, shared) == _color_masks([span] * 3, 2)


def test_is_valid_domain_error():
    g = make_path(2)
    with pytest.raises(ValueError):
        is_valid(g, 1, {Vertex(9): 0})
    with pytest.raises(ValueError):
        is_valid(g, 1, {Edge(0, 9): 0})


def test_p1_matches_total_coloring_predicate():
    # adjacent/incident elements must simply be distinct
    g = make_path(3)
    c = {Vertex(0): 2, Edge(0, 1): 1, Vertex(1): 0, Edge(1, 2): 2, Vertex(2): 1}
    assert is_valid(g, 1, c, total=True).ok
    c[Edge(1, 2)] = 1
    assert not is_valid(g, 1, c).ok


def test_respects_lists():
    lists = {Vertex(0): {0, 1}, Vertex(1): {2}}
    assert respects_lists({Vertex(0): 0}, lists)
    assert not respects_lists({Vertex(0): 2}, lists)
    with pytest.raises(ValueError):
        respects_lists({Vertex(9): 0}, lists)


def test_full_list_assignment_always_respected():
    g = make_star(3)
    lists = full_lists(g, range(5))
    c = {x: 4 for x in elements_of(g)}
    assert respects_lists(c, lists)


def test_lp1_validity():
    p3 = make_path(3)
    assert lp1_is_valid(p3, 2, {0: 0, 1: 2, 2: 4}).ok
    report = lp1_is_valid(p3, 2, {0: 0, 1: 2, 2: 0})
    assert not report.ok and report.violations[0].family == "distance-2"
    assert lp1_is_valid(Graph(1), 5, {0: 0}).ok
    # adjacent separation
    assert not lp1_is_valid(p3, 3, {0: 0, 1: 2}).ok
    with pytest.raises(ValueError):
        lp1_is_valid(p3, 1, {9: 0})


def test_lp1_distance_two_means_exactly_two():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    # in a triangle every pair is adjacent, never at distance two
    assert lp1_is_valid(tri, 1, {0: 0, 1: 1, 2: 2}).ok
    assert not lp1_is_valid(tri, 2, {0: 0, 1: 1}).ok


def test_transport_round_trip_and_example():
    g = make_path(2)
    im = incidence_graph(g)
    c = {Vertex(0): 0, Edge(0, 1): 2, Vertex(1): 4}
    labels = transport_labelling(im, c)
    assert labels == {0: 0, 1: 4, 2: 2}
    assert lp1_is_valid(im.derived, 2, labels).ok
    assert pull_back_labelling(im, labels) == c
    assert transport_labelling(im, {}) == {}


def _all_labellings(elems, colors):
    for combo in product(colors, repeat=len(elems)):
        yield dict(zip(elems, combo))


@pytest.mark.parametrize(
    "g", [make_path(2), make_path(3), Graph(3, [(0, 1), (1, 2), (0, 2)])]
)
@pytest.mark.parametrize("p", [0, 1, 2])
def test_incidence_equivalence_exhaustive(g, p):
    # total labellings of g correspond to vertex labellings of the
    # subdivision: same verdict, element by element
    im = incidence_graph(g)
    elems = elements_of(g)
    colors = range(2 * p + 2)
    for c in _all_labellings(elems, colors):
        direct = is_valid(g, p, c, total=True).ok
        bridged = lp1_is_valid(im.derived, p, transport_labelling(im, c)).ok
        assert direct == bridged


@given(st.integers(0, 2**30), st.integers(2, 8), st.integers(0, 3), st.integers(0, 6))
def test_incidence_equivalence_random(seed, n, p, extra):
    import random

    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph(n, edges)
    if g.n + g.m > 8:
        return
    im = incidence_graph(g)
    elems = elements_of(g)
    c = {x: rng.randrange(0, 2 * p + 2 + extra) for x in elems if rng.random() < 0.8}
    direct = is_valid(g, p, c).ok
    bridged = lp1_is_valid(im.derived, p, transport_labelling(im, c)).ok
    assert direct == bridged


@given(st.integers(0, 2**30), st.integers(0, 3), st.integers(0, 5))
def test_shift_invariance(seed, p, t):
    import random

    rng = random.Random(seed)
    g = make_star(3)
    c = {x: rng.randrange(0, 8) for x in elements_of(g) if rng.random() < 0.8}
    shifted = {x: color + t for x, color in c.items()}
    assert is_valid(g, p, c).ok == is_valid(g, p, shifted).ok


@given(st.integers(0, 2**30), st.integers(0, 3))
def test_restriction_monotonicity(seed, p):
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph(n, edges)
    c = {x: rng.randrange(0, 2 * p + 3) for x in elements_of(g)}
    if not is_valid(g, p, c).ok:
        return
    sub_edges = [e for e in g.sorted_edges() if rng.random() < 0.6]
    sub = Graph(n, sub_edges)
    restricted = {x: c[x] for x in elements_of(sub)}
    assert is_valid(sub, p, restricted).ok


def test_labelling_json_round_trip_and_key_order():
    g = make_star(2)
    c = {Edge(0, 2): 5, Vertex(1): 1, Vertex(0): 3, Edge(0, 1): 7}
    text = labelling_to_json(2, c)
    keys = list(json.loads(text)["labels"])
    assert keys == ["v:0", "v:1", "e:0-1", "e:0-2"]
    p, back = labelling_from_json(text)
    assert p == 2 and back == c


def test_lists_json_round_trip():
    lists = {Vertex(0): {3, 1}, Edge(0, 1): {0, 9, 4}}
    text = lists_to_json(1, lists)
    obj = json.loads(text)
    assert obj["lists"]["e:0-1"] == [0, 4, 9]
    p, back = lists_from_json(text)
    assert p == 1 and back == {Vertex(0): {1, 3}, Edge(0, 1): {0, 4, 9}}


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '"x"',
    "null",
    '{"p": "2", "labels": {}, "lists": {}}',
    '{"p": true, "labels": {}, "lists": {}}',
    '{"p": 1, "labels": [], "lists": []}',
    '{"p": 1, "labels": {"v:0": [5]}, "lists": {"v:0": 5}}',
    '{"p": 1, "labels": {"v:0": 1.5}, "lists": {"v:0": [1.5]}}',
    # a second name for an element already read must not replace its entry
    '{"p": 1, "labels": {"e:0-1": 0, "e:1-0": 2}, "lists": {"e:0-1": [0], "e:1-0": [0, 1, 2]}}',
    '{"p": 1, "labels": {"v:1": 0, "v:01": 2}, "lists": {"v:1": [0], "v:01": [0, 1, 2]}}',
    "[" * 100000,
    # the same key twice, at the top and inside the labels and lists
    '{"p": 1, "p": 1, "labels": {}, "lists": {}}',
    '{"p": 1, "labels": {"v:0": 0, "v:0": 1}, "lists": {"v:0": [0], "v:0": [0, 1]}}',
    # colors are non-negative integers
    '{"p": 1, "labels": {"v:0": -5}, "lists": {"v:0": [-5, 1000000000]}}',
])
def test_json_readers_reject_malformed_shapes(text):
    with pytest.raises(ValueError):
        labelling_from_json(text)
    with pytest.raises(ValueError):
        lists_from_json(text)


def test_element_key_orders_mixed_sets():
    xs = [Edge(0, 1), Vertex(2), Edge(0, 2), Vertex(0)]
    assert sorted(xs, key=element_key) == [Vertex(0), Vertex(2), Edge(0, 1), Edge(0, 2)]


def test_check_lists_returns_the_callers_lists_by_position():
    g = make_star(2)  # elements v:0 v:1 v:2 e:0-1 e:0-2
    lists = {x: {i, i + 1, i + 2} for i, x in enumerate(elements_of(g))}
    got = check_lists(g, lists, minimum=3)
    assert got == [lists[x] for x in elements_of(g)]
    assert all(a is lists[x] for a, x in zip(got, elements_of(g)))
    assert check_lists(g, got, minimum=3) == got  # a list by position reads the same
    lists[Vertex(9)] = {0}
    with pytest.raises(ValueError, match="list for v:9, which is not an element"):
        check_lists(g, lists)


@pytest.mark.parametrize("bad, message", [
    ({Vertex(1): "drop", Edge(0, 2): "drop"}, "missing list for element v:1"),
    ({Edge(0, 1): "drop", Edge(0, 2): set()}, "missing list for element e:0-1"),
    ({Edge(0, 1): "drop", Vertex(2): set()}, "empty list for element v:2"),
    ({Vertex(2): set(), Edge(0, 1): set()}, "empty list for element v:2"),
    ({Edge(0, 2): None}, "empty list for element e:0-2"),
    ({Vertex(0): {1}, Edge(0, 1): set()}, "list for v:0 has 1 colors; need at least 2"),
    ({Edge(0, 2): {5}, Vertex(1): {4}}, "list for v:1 has 1 colors; need at least 2"),
])
def test_check_lists_names_the_first_bad_element(bad, message):
    g = make_star(2)
    lists = {x: {0, 1, 2} for x in elements_of(g)}
    for x, colors in bad.items():
        if colors == "drop":
            del lists[x]
        else:
            lists[x] = colors
    with pytest.raises(ValueError) as info:
        check_lists(g, lists, minimum=2)
    assert str(info.value) == message


def _expected_elements(g):
    return [*map(Vertex, range(g.n)), *(Edge(u, v) for u, v in sorted(g.edges))]


@pytest.mark.parametrize("changes, foreign", [
    ({}, False), ({2: None}, False), ({2: set()}, False), ({4: {7}}, False),
    ({1: {7}, 3: set()}, False), ({}, True), ({0: set()}, True),
])
def test_check_lists_reads_every_key_order_alike(changes, foreign):
    # keys in element order take the path without lookups; reversed keys
    # and fresh, equal elements take the lookups, with the same outcome
    g = make_star(2)
    colors = [{i, i + 1, i + 2} for i in range(g.n + g.m)]
    for i, changed in changes.items():
        colors[i] = changed
    by_element = dict(zip(elements_of(g), colors))
    outcomes = []
    for keys in (elements_of(g), _expected_elements(g), elements_of(g)[::-1]):
        lists = {x: by_element[x] for x in keys}
        if foreign:
            lists[Vertex(9)] = {0}
        try:
            got = check_lists(g, lists, minimum=2)
            assert all(a is b for a, b in zip(got, colors))
            outcomes.append(got)
        except ValueError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert (outcomes[0] == colors) == (not changes and not foreign)


def test_elements_of_returns_a_fresh_list_each_call():
    g = make_star(3)
    first = elements_of(g)
    first.append(Vertex(99))
    first[0] = Edge(5, 6)
    assert elements_of(g) == _expected_elements(g)
    assert elements_of(g) is not elements_of(g)


def test_elements_of_follows_the_graph_it_is_given():
    g, h = make_star(3), make_path(4)  # same n and m, different edges
    twin = Graph(4, [(0, 3), (0, 1), (2, 0)])  # equal to g, built apart
    assert twin == g and twin is not g
    for graph in (g, h, g, twin, h, Graph(0), twin, make_path(1), g):
        assert elements_of(graph) == _expected_elements(graph)


def test_check_lists_names_missing_and_foreign_keys_after_another_graph():
    g, h = make_star(2), make_path(4)  # e:1-2 is an element of h, not of g
    lists = {x: {0, 1} for x in elements_of(g)}
    del lists[Edge(0, 2)]
    check_lists(h, {x: {0} for x in elements_of(h)})
    with pytest.raises(ValueError, match="missing list for element e:0-2"):
        check_lists(g, lists)
    lists[Edge(0, 2)] = lists[Edge(1, 2)] = {0, 1}
    check_lists(h, {x: {0} for x in elements_of(h)})
    with pytest.raises(ValueError, match="list for e:1-2, which is not an element"):
        check_lists(g, lists)


@pytest.mark.parametrize("lists, minimum, message", [
    ([range(1)] * 5, 2, "list for v:0 has 1 colors; need at least 2"),
    ([range(0)] * 5, None, "empty list for element v:0"),
    ([range(3)] * 4 + [range(1)], 2, "list for e:0-2 has 1 colors; need at least 2"),
    ([range(3)] * 3 + [set()] + [range(3)], None, "empty list for element e:0-1"),
])
def test_check_lists_names_the_first_bad_list_by_position(lists, minimum, message):
    # lists by position, one object shared by all or by the good ones
    with pytest.raises(ValueError) as info:
        check_lists(make_star(2), lists, minimum)
    assert str(info.value) == message
    assert check_lists(make_star(2), [range(3)] * 5, 3) == [range(3)] * 5
