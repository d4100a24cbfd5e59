import heapq
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plabel import solvers
from plabel.graphs import (
    Graph,
    incidence_graph,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
)
from plabel.harness import small_connected_graphs
from plabel.labelling import Edge, Vertex, _color_masks, elements_of, full_lists, respects_lists
from plabel.solvers import (
    Certificate,
    InstanceTooLarge,
    _group_test,
    _lex_product,
    _lp1_model,
    _search,
    _solve,
    _total_model,
    certify_choosable,
    element_automorphisms,
    find_bad_assignment,
    lp1_min_span,
    lp1_solve_span,
    min_colors,
    min_span,
    recheck_certificate,
    solve_list,
    solve_span,
)

from .frozen_search import tuple_keyed_search
from .oracle import naive_solve, to_naive_lists


def test_solve_span_single_edge():
    g = make_path(2)
    assert solve_span(g, 2, 3).labelled
    assert not solve_span(g, 2, 2).labelled


def test_solve_span_trivial():
    assert solve_span(Graph(1), 5, 0).labelled
    assert min_span(Graph(4), 3) == 0  # no edges: everyone takes color 0


def test_star_spans():
    g = make_star(3)
    assert solve_span(g, 2, 4).labelled
    assert not solve_span(g, 2, 3).labelled
    assert min_colors(g, 2) == 5


def test_min_span_paths():
    for p in (2, 3, 4):
        assert min_span(make_path(2), p) == p + 1
        for k in (3, 5):
            assert min_span(make_path(k), p) == p + 2


def test_min_colors_paths_at_p1_pins_total_coloring():
    # (1,1) is ordinary total coloring; paths need exactly three colors,
    # which is p+2 for the single edge but NOT p+3 for longer paths
    assert min_colors(make_path(2), 1) == 3
    for k in (3, 5, 8):
        assert min_colors(make_path(k), 1) == 3


def test_solve_list_respects_and_infeasible():
    g = make_path(2)
    lists = {Vertex(0): {0}, Vertex(1): {0}, Edge(0, 1): {2}}
    assert not solve_list(g, 2, lists).labelled
    lists = {Vertex(0): {0}, Vertex(1): {4}, Edge(0, 1): {2}}
    result = solve_list(g, 2, lists)
    assert result.labelled and respects_lists(result.labelling, lists)


def test_solve_list_full_lists_match_lambda():
    rng = random.Random(2)
    for trial in range(25):
        n = rng.randrange(2, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = Graph(n, edges)
        if g.n + g.m > 10:
            continue
        p = rng.randrange(0, 3)
        lam = min_span(g, p)
        assert solve_list(g, p, full_lists(g, range(lam + 1))).labelled
        if lam > 0:
            assert not solve_list(g, p, full_lists(g, range(lam))).labelled


def _random_instance(rng):
    shape = rng.randrange(4)
    if shape == 0:
        g = make_path(rng.randrange(2, 5))
    elif shape == 1:
        g = make_star(rng.randrange(1, 4))
    elif shape == 2:
        n = rng.randrange(3, 5)
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    else:
        n = rng.randrange(2, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
    return g


def test_solver_agrees_with_naive_enumeration():
    rng = random.Random(99)
    done = 0
    while done < 80:
        g = _random_instance(rng)
        if g.n + g.m > 9:
            continue
        p = rng.randrange(0, 4)
        size = rng.randrange(1, 5)
        lists = {
            x: set(rng.sample(range(7), size)) for x in elements_of(g)
        }
        mine = solve_list(g, p, lists)
        theirs = naive_solve(g.n, g.edges, p, to_naive_lists(lists))
        assert mine.labelled == (theirs is not None), (g.edges, p, lists)
        done += 1


@given(st.integers(0, 2**30), st.integers(0, 3), st.integers(0, 4))
def test_solve_list_shift_equivariance(seed, p, t):
    rng = random.Random(seed)
    g = make_star(2)
    lists = {x: set(rng.sample(range(6), 2)) for x in elements_of(g)}
    shifted = {x: {c + t for c in v} for x, v in lists.items()}
    assert solve_list(g, p, lists).labelled == solve_list(g, p, shifted).labelled


@given(st.integers(0, 2**30), st.integers(0, 3))
def test_solve_list_monotone_in_lists(seed, p):
    rng = random.Random(seed)
    g = make_path(3)
    lists = {x: set(rng.sample(range(8), 2)) for x in elements_of(g)}
    if not solve_list(g, p, lists).labelled:
        return
    bigger = {x: v | {rng.randrange(0, 10)} for x, v in lists.items()}
    assert solve_list(g, p, bigger).labelled


def test_lambda_monotone_under_subgraphs():
    rng = random.Random(17)
    for trial in range(15):
        n = rng.randrange(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        sub = Graph(n, [e for e in g.sorted_edges() if rng.random() < 0.7])
        p = rng.randrange(0, 3)
        assert min_span(sub, p) <= min_span(g, p)


def test_star_band_and_equality_at_large_p():
    # bipartite band: Delta+p-1 <= span <= Delta+p, equality when p >= Delta
    for n in (1, 2, 3, 4):
        for p in (1, 2, 3, 4, 5):
            lam = min_span(make_star(n), p)
            assert n + p - 1 <= lam <= n + p
            if p >= n:
                assert lam == n + p


def test_lp1_span_small_paths():
    for p in (2, 3):
        assert lp1_min_span(make_path(2), p) == p
        assert lp1_min_span(make_path(3), p) == p + 1
        assert lp1_min_span(make_path(5), p) == p + 2


def test_element_automorphisms_path():
    g = make_path(3)
    perms = element_automorphisms(g)
    assert len(perms) == 2  # identity and the end-to-end flip
    g2 = make_star(3)
    assert len(element_automorphisms(g2)) == 6


def test_certify_single_edge_total_choosability():
    cert3 = certify_choosable(make_path(2), 1, 3, universe=5)
    assert cert3.kind == "upper-certified"
    cert2 = certify_choosable(make_path(2), 1, 2, universe=5)
    assert cert2.kind == "lower-witness"
    ok, _ = recheck_certificate(cert3)
    assert ok
    ok, _ = recheck_certificate(cert2)
    assert ok


def test_certify_single_vertex():
    cert = certify_choosable(Graph(1), 3, 1, universe=2)
    assert cert.kind == "upper-certified"


def test_certify_refuses_large_instances():
    with pytest.raises(InstanceTooLarge):
        certify_choosable(make_star(4), 2, 5, universe=10)


def test_find_bad_assignment_single_edge_total():
    cert = find_bad_assignment(make_path(2), 1, 2, universe=3, budget=100)
    assert cert.kind == "lower-witness"
    assert all(len(v) == 2 for v in cert.assignment.values())
    assert not solve_list(make_path(2), 1, cert.assignment).labelled


def test_find_bad_assignment_negative_is_exhausted():
    cert = find_bad_assignment(make_path(2), 1, 3, universe=4, budget=40)
    assert cert.kind == "exhausted"
    assert cert.checked == 40


def test_find_bad_assignment_random_mode_deterministic():
    g = make_star(3)
    a = find_bad_assignment(g, 2, 4, budget=30, mode="random", seed=5)
    b = find_bad_assignment(g, 2, 4, budget=30, mode="random", seed=5)
    assert a.kind == b.kind and a.checked == b.checked


def test_find_bad_assignment_validates_arguments():
    g = make_path(2)
    with pytest.raises(ValueError):
        find_bad_assignment(g, 1, 0)
    with pytest.raises(ValueError):
        find_bad_assignment(g, 1, 2, budget=0)
    with pytest.raises(ValueError):
        find_bad_assignment(g, 1, 3, universe=1)


def test_certificate_json_round_trip():
    cert = find_bad_assignment(make_star(3), 2, 4, budget=10)
    back = Certificate.from_json(cert.to_json())
    assert back == cert
    ok, detail = recheck_certificate(back)
    assert ok, detail


@pytest.mark.parametrize("change", [
    {"assignment": [1, 2]},
    {"assignment": {"v:0": 3}},
    {"graph": 5},
    {"k": "4"},
    {"budget": 1.0},
    {"complete": "yes"},
    {"normalization": "shift-min-0"},
    {"assignment": {"v:0": [0, 1, 2, 3], "v:00": [0, 1, 2, 3]}},
])
def test_certificate_from_json_rejects_malformed_fields(change):
    obj = json.loads(find_bad_assignment(make_star(3), 2, 4, budget=10).to_json())
    with pytest.raises(ValueError):
        Certificate.from_json(json.dumps({**obj, **change}))
    with pytest.raises(ValueError):
        Certificate.from_json(json.dumps([obj]))


def test_exhausted_certificate_replays():
    cert = find_bad_assignment(make_path(2), 2, 3, universe=4, budget=25)
    ok, detail = recheck_certificate(Certificate.from_json(cert.to_json()))
    assert ok, detail


def test_solver_counts_nodes():
    result = solve_span(make_star(3), 2, 4)
    assert result.nodes > 0


_MOP10_DELTA6 = Graph(10, [  # mop_with_degree(10, 0, min_delta=5)
    (0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4),
    (3, 8), (4, 5), (4, 8), (4, 9), (5, 6), (5, 7), (6, 7), (8, 9),
])
_C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])


def _drawn(g, colors, size, seed):
    rng = random.Random(seed)
    return {x: set(rng.sample(colors, size)) for x in elements_of(g)}


_PINNED = [
    (solve_span, make_star(3), 2, 4, 7, "0411234"),
    (solve_span, make_path(50), 2, 4, 99,
     "1" + "042" * 16 + "0" + "3" + "204" * 16),  # 50 vertices, then 49 edges
    (solve_span, _MOP10_DELTA6, 2, 6, 0, None),
    (solve_span, _MOP10_DELTA6, 0, 5, 27, "120212100213051024233140120"),
    # the neighbourhood check cuts this search from 44 nodes to 29
    (solve_span, _MOP10_DELTA6, 3, 8, 29, "120478135854887356011244070"),
    (lp1_solve_span, make_path(6), 2, 4, 6, "130240"),
    (solve_list, _C5, 1, full_lists(_C5, (0, 1, 3)), 45, None),
    # far-apart colors, every color at least 100, and p = 0
    (solve_list, _C5, 2, full_lists(_C5, (0, 3, 10**9)), 45, None),
    (solve_list, _C5, 3, full_lists(_C5, (0, 3, 10**9, 10**9 + 2)), 11,
     "0303100000000010000000003100000000210000000000"),
    (solve_list, make_star(3), 3, _drawn(make_star(3), range(100, 107), 5, 0), 23,
     "106103105100100102103"),
    (solve_list, _C5, 0, _drawn(_C5, range(4), 2, 3), 14, "2120121310"),
]


def test_pinned_search_nodes_and_answers():
    """Fixed calls keep the node count and the answer the search gives them.

    The answer is the colors in element order (vertices by index for the
    vertex solver), or None when the call is infeasible. A change that alters
    the search on purpose (its variable or value order, its pruning or
    propagation) re-records these values and says so in CHANGES.md.
    """
    for solve, g, p, arg, nodes, colors in _PINNED:
        result = solve(g, p, arg)
        if result.labelling is None:
            got = None
        elif solve is lp1_solve_span:
            got = "".join(str(result.labelling[v]) for v in range(g.n))
        else:
            got = "".join(str(result.labelling[x]) for x in elements_of(g))
        assert (result.nodes, got) == (nodes, colors), (solve.__name__, g, p)


def test_path3_choosability_settled_by_witness_search():
    # the witness search settles the three-vertex path at p=2: the very first
    # normalized 4-assignment (identical lists 0..3) is infeasible because the
    # minimum span is 4, so the choosability exceeds 4; the sequential greedy
    # guarantee of 2p+1 = 5 then pins it at exactly 5
    g = make_path(3)
    cert = find_bad_assignment(g, 2, 4, budget=50)
    assert cert.kind == "lower-witness" and cert.checked == 1
    assert all(v == {0, 1, 2, 3} for v in cert.assignment.values())
    ok, _ = recheck_certificate(cert)
    assert ok
    assert min_span(g, 2) == 4


def _root_first(domains, neqs, seps, p):
    """The solvers' root-first entry on a prebuilt model: (assignment | None, nodes)."""
    largest = max(map(len, seps), default=0)
    return _solve(domains, p, largest, lambda: (neqs, seps))


def _groups(seps):
    """The (center, members) groups of a model: each element with its separation partners."""
    return [(c, members) for c, members in enumerate(seps) if members]


def _pairs(neqs, seps):
    """The (partner, needs_separation) lists of a model's partner lists."""
    return [[(j, False) for j in a] + [(j, True) for j in b] for a, b in zip(neqs, seps)]


def _rescanning_search(domains, cons, p, groups):
    """Reference for the search order: recursive, rescanning every element
    for the smallest (domain size, -unassigned partners, index) at each node.
    After forward checking, every group that holds the placed element is
    tested on color sets: its members' colors must outnumber them, and some
    color of the center must leave enough of them at least p away."""
    assigned = [None] * len(domains)
    nodes = 0
    holding = [[] for _ in domains]
    for center, members in groups:
        for x in {center, *members}:
            holding[x].append((center, members))

    def colors_of(x):
        return domains[x] if assigned[x] is None else {assigned[x]}

    def group_fails(center, members):
        colors = set().union(*map(colors_of, members))
        spare = len(colors) - len(members)
        return spare < 0 or all(
            sum(abs(c - a) < p for c in colors) > spare for a in colors_of(center))

    def extend():
        nonlocal nodes
        free = [i for i in range(len(domains)) if assigned[i] is None]
        if not free:
            return True
        best = min(free, key=lambda i: (
            len(domains[i]), -sum(assigned[j] is None for j, _ in cons[i]), i))
        for color in sorted(domains[best]):
            nodes += 1
            assigned[best] = color
            removed = []
            for j, sep in cons[best]:
                if assigned[j] is None and (p or not sep):
                    gone = {c for c in domains[j] if (abs(c - color) < p if sep else c == color)}
                    domains[j] -= gone
                    removed.append((j, gone))
                    if not domains[j]:
                        break
            else:
                if not any(group_fails(*group) for group in holding[best]) and extend():
                    return True
            for j, gone in removed:
                domains[j] |= gone
            assigned[best] = None
        return False

    return (list(assigned) if extend() else None), nodes


_MOP7_DELTA6 = Graph(7, [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (4, 5), (5, 6),
])


@pytest.mark.parametrize("g,p,k", [
    (_MOP10_DELTA6, 2, 6), (_MOP10_DELTA6, 3, 8), (_MOP7_DELTA6, 2, 6), (_C5, 1, 2),
])
def test_search_order_matches_rescanning_reference(g, p, k):
    # the heap-kept order and the group checks must visit exactly the
    # reference's nodes, backtracking included, and return the same answer
    derived = incidence_graph(g).derived
    neqs, seps = _lp1_model(derived)
    mine = _search(*_color_masks([set(range(k + 1)) for _ in range(derived.n)], p),
                   neqs, seps, p)
    assert mine == _rescanning_search(
        [set(range(k + 1)) for _ in range(derived.n)], _pairs(neqs, seps), p, _groups(seps))


def test_search_order_matches_rescanning_reference_on_random_lists():
    # shifted, sparse and huge colors and p = 0..3: the bitmask domains must
    # give the reference's answer and node count on every instance
    rng = random.Random(10)
    outcomes = {"labelled": 0, "refuted": 0}
    for _ in range(200):
        g = _random_instance(rng)
        p = rng.randrange(4)
        width = max(1, g.max_degree + p + rng.randrange(-1, 3))
        low = rng.choice([0, 3, 100, 10**9])
        pool = sorted(rng.sample(range(low, low + 3 * width), width))
        lists = [set(rng.sample(pool, rng.randrange(1, width + 1))) for _ in range(g.n + g.m)]
        derived = incidence_graph(g).derived
        neqs, seps = _lp1_model(derived)
        mine = _search(*_color_masks([set(colors) for colors in lists], p), neqs, seps, p)
        assert mine == _rescanning_search(
            [set(colors) for colors in lists], _pairs(neqs, seps), p, _groups(seps)), (g, p, lists)
        outcomes["refuted" if mine[0] is None else "labelled"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_solve_list_takes_lists_by_position():
    g = make_star(2)  # elements v:0 v:1 v:2 e:0-1 e:0-2
    lists = [{0}, {3, 4}, {4}, {2, 3}, {1, 2}]
    by_element = solve_list(g, 1, dict(zip(elements_of(g), lists)))
    by_position = solve_list(g, 1, lists)
    assert by_position.labelling == by_element.labelling
    assert by_position.nodes == by_element.nodes
    with pytest.raises(ValueError, match="4 lists for the 5 elements"):
        solve_list(g, 1, lists[:4])
    with pytest.raises(ValueError, match="empty list for element v:2"):
        solve_list(g, 1, [{0}, {3, 4}, set(), {2, 3}, {1, 2}])


def test_total_model_matches_the_subdivided_graph():
    graphs = small_connected_graphs(5) + [Graph(0), Graph(1), Graph(4)]
    graphs += [make_random_tree(n, seed) for n in (2, 7, 15) for seed in range(3)]
    graphs += [make_random_maximal_outerplanar(n, seed) for n in (3, 6, 12) for seed in range(3)]
    for g in graphs:
        assert _pairs(*_total_model(g)) == _pairs(*_lp1_model(incidence_graph(g).derived)), g


def test_lp1_model_links_adjacent_and_distance_two_pairs():
    # brute force: partners are the neighbours (separation) and the vertices
    # at distance exactly two (inequality), once each, inequalities first; a
    # group is a neighbourhood whose members must all take distinct colors
    rng = random.Random(13)
    fan = Graph(6, [(0, i) for i in range(1, 6)] + [(i, i + 1) for i in range(1, 5)])
    graphs = [Graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
              Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
              Graph(4, list(itertools.combinations(range(4), 2))), fan, Graph(0)]
    for _ in range(60):
        n = rng.randrange(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1))))
    for g in graphs:
        neqs, seps = _lp1_model(g)
        cons = _pairs(neqs, seps)
        for v in range(g.n):
            near = set(g.adj[v])
            far = {w for u in near for w in g.adj[u]} - near - {v}
            expected = {(w, True) for w in near} | {(w, False) for w in far}
            assert len(cons[v]) == len(expected) and set(cons[v]) == expected, (g, v)
            kinds = [sep for _, sep in cons[v]]
            assert kinds == sorted(kinds), (g, v)
        kept = [w for w in range(g.n) if g.adj[w] and all(
            (b, False) in cons[a] or (b, True) in cons[a]
            for a, b in itertools.combinations(g.adj[w], 2))]
        assert _groups(seps) == [(w, g.adj[w]) for w in kept], g


def test_separation_partners_are_groups_of_pairwise_partners():
    # the contract of the search model: when c has separation partners, they
    # must take pairwise distinct colors, so each two of them are inequality
    # partners, or separation partners at p >= 1; and separation is
    # symmetric, so the groups that hold an element are its own and those
    # of its separation partners. The total model serves every p, the vertex
    # model p >= 1.
    def check(neqs, seps, p, label):
        for c, members in enumerate(seps):
            assert all(c in seps[x] for x in members), label
            for a, b in itertools.combinations(members, 2):
                assert b in neqs[a] or (p and b in seps[a]), (label, c, a, b)

    for g in small_connected_graphs(5):
        check(*_total_model(g), 0, g)
        for h in (g, incidence_graph(g).derived):
            check(*_lp1_model(h), 1, h)


def _clear_models():
    for memo in (_total_model, _lp1_model):
        memo.cache_clear()


def test_reused_model_gives_fresh_answers():
    star, path, mop = make_star(3), make_path(4), _MOP10_DELTA6
    # repeats of one object and of an equal but distinct graph, switches
    # between graphs, and between two graphs of one vertex count; the vertex
    # solver's calls switch p on one graph and interleave with total solves
    calls = [(solve_span, star, 2, 4), (solve_span, star, 2, 3), (solve_span, mop, 2, 6),
             (lp1_solve_span, mop, 2, 6), (lp1_solve_span, mop, 2, 7),
             (solve_span, star, 2, 4), (solve_span, mop, 3, 8),
             (lp1_solve_span, Graph(mop.n, mop.edges), 1, 5), (lp1_solve_span, mop, 2, 7),
             (solve_span, Graph(mop.n, mop.edges), 0, 5), (solve_span, mop, 2, 7),
             (lp1_solve_span, star, 2, 3), (solve_span, Graph(4, star.edges), 2, 3),
             (lp1_solve_span, path, 1, 2), (lp1_solve_span, path, 1, 2),
             (solve_span, path, 2, 4), (solve_span, star, 2, 4)]
    fresh = []
    for solve, g, p, k in calls:
        _clear_models()
        result = solve(g, p, k)
        fresh.append((result.labelling, result.nodes))
    _clear_models()
    reused = [(result.labelling, result.nodes)
              for result in (solve(g, p, k) for solve, g, p, k in calls)]
    assert reused == fresh
    assert {labelling is None for labelling, _ in fresh} == {True, False}


@pytest.mark.parametrize("n", [600, 2000])
def test_long_paths_label_without_recursion_limit(n):
    g = make_path(n)
    result = solve_span(g, 2, 4)
    assert result.labelled and result.nodes == g.n + g.m


_MOP12_DELTA8 = Graph(12, [  # make_random_maximal_outerplanar(12, 8)
    (0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5), (3, 6),
    (3, 8), (3, 9), (3, 10), (4, 8), (5, 6), (5, 7), (6, 7), (6, 9), (6, 11), (9, 10),
    (9, 11),
])


def _count_calls(monkeypatch, *names):
    """Wrap each named solvers function so that its calls are counted by name."""
    import plabel.solvers as solvers

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(solvers, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(solvers, name, counted)
    return calls


def test_refutation_below_degree_bound_ends_at_root(monkeypatch):
    # k = Delta+p-2 leaves the 8 edges at vertex 3 too few colors outside the
    # p-ball of any color of vertex 3; backtracking alone ran over 15 minutes
    # here. A span range shared by every element is decided by one test of
    # the largest group, read off g.adj, so neither the model nor any search
    # state is built; the vertex solver's largest group is read off g too.
    calls = _count_calls(monkeypatch, "_total_model", "_lp1_model", "_search")
    assert _MOP12_DELTA8.max_degree == 8
    result = solve_span(_MOP12_DELTA8, 2, 8)
    assert not result.labelled and result.nodes == 0
    assert calls == {"_total_model": 0, "_lp1_model": 0, "_search": 0}
    result = lp1_solve_span(make_star(4), 2, 4)  # the center's 4 neighbours need 4 colors >= 2 away
    assert not result.labelled and result.nodes == 0
    assert calls == {"_total_model": 0, "_lp1_model": 0, "_search": 0}


def test_distinct_lists_build_the_model_once_and_end_at_the_root(monkeypatch):
    # the same colors as distinct range objects take the test of every
    # group; it needs the model, which is built once and kept, but the
    # refutation still takes 0 nodes and runs no search
    calls = _count_calls(monkeypatch, "_search")
    _clear_models()
    lists = [range(9) for _ in range(_MOP12_DELTA8.n + _MOP12_DELTA8.m)]
    result = solve_list(_MOP12_DELTA8, 2, lists)
    assert not result.labelled and result.nodes == 0
    assert calls == {"_search": 0}
    assert _total_model.cache_info().misses == 1


def test_a_one_member_group_refutes_at_the_root():
    # vertex 0 of the edge 0-1 has the one color 0 and its edge the one color
    # 1, less than p = 2 apart: the group of vertex 0 and its one edge fails,
    # while the edge's group of both ends passes, so only the per-group loop
    # over every group with a member refutes in 0 nodes
    g = make_path(2)
    lists = [{0}, {5, 6}, {1}]
    neqs, seps = _total_model(g)
    assert seps[0] == (2,) and seps[2] == (0, 1)
    assert solve_list(g, 2, lists) == solvers.SolveResult(None, 0)
    assert _root_first(lists, neqs, seps, 2) == tuple_keyed_search(
        lists, _pairs(neqs, seps), 2, _groups(seps))


def test_feasible_solves_build_the_partner_lists_once_per_graph(monkeypatch):
    calls = _count_calls(monkeypatch, "_search")
    _clear_models()
    star = make_star(3)
    assert min_span(star, 2) == 4 and min_span(Graph(star.n, star.edges), 2) == 4
    assert solve_span(star, 2, 5).labelled
    assert _total_model.cache_info().misses == 1 and calls["_search"] == 3
    assert lp1_min_span(_MOP10_DELTA6, 2) == lp1_min_span(_MOP10_DELTA6, 2)
    assert _lp1_model.cache_info().misses == 1


def test_one_group_verdict_matches_the_group_loop_on_stars():
    # on K_1,d with one shared range of V colors the groups have 1, 2 and d
    # members; the test of the largest must give the loop's verdict, and the
    # solve the same answer and nodes as distinct, equal ranges (which take
    # the loop)
    refuted = 0
    for d in range(1, 9):
        g = make_star(d)
        groups = _groups(_total_model(g)[1])
        for colors in range(1, 9):
            for p in range(5):
                shared = [range(colors)] * (g.n + g.m)
                _, near, masks = _color_masks(shared, p)
                fails = _group_test(masks, near, p)
                loop = any(fails(center, members) for center, members in groups)
                assert loop == fails(0, (0,) * max(d, 2)), (d, colors, p)
                refuted += loop
                mine = solve_list(g, p, shared)
                theirs = solve_list(g, p, [range(colors) for _ in shared])
                assert (mine.labelling, mine.nodes) == (theirs.labelling, theirs.nodes)
                assert (mine.nodes == 0 and not mine.labelled) == loop
    assert 0 < refuted < 8 * 8 * 5, refuted


def test_shared_span_matches_distinct_ranges():
    # solve_span shares one range object and takes the one-group test;
    # distinct range objects of the same colors take the per-group loop.
    # Graphs of at most 8 vertices and 14 edges (denser ones make a few
    # searches run for seconds), k from the degree bound -3 to +1.
    rng = random.Random(20)
    refuted = infeasible = 0
    for _ in range(1500):
        n = rng.randrange(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randrange(min(len(pairs), 14) + 1)))
        p = rng.randrange(4)
        bound = g.max_degree - 1 if p == 0 else g.max_degree + p - 1
        k = max(0, bound + rng.randrange(-3, 2))
        mine = solve_span(g, p, k)
        theirs = solve_list(g, p, [range(k + 1) for _ in range(g.n + g.m)])
        assert (mine.labelling, mine.nodes) == (theirs.labelling, theirs.nodes), (g.edges, p, k)
        infeasible += not mine.labelled
        refuted += not mine.labelled and mine.nodes == 0
    assert refuted > 300 and infeasible > refuted, (refuted, infeasible)


def test_vertex_solver_needs_separation():
    # at p = 0 adjacent vertices may share a color, so a neighbourhood is no
    # group of distinct colors; the vertex solver takes p >= 1 only
    for p in (0, -1):
        with pytest.raises(ValueError):
            lp1_solve_span(make_path(3), p, 2)
        with pytest.raises(ValueError):
            lp1_min_span(make_path(3), p)


_TRIANGLES = [
    Graph(3, [(0, 1), (1, 2), (0, 2)]),
    Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
]


def test_solver_agrees_with_naive_oracle_on_narrow_ranges():
    """Lists drawn from about Delta+p colors, around the degree bound, so that
    the neighbourhood check both refutes at the root and cuts inside the
    search. Sizes are the largest at which the oracle stays within a second."""
    graphs = (
        [make_star(n) for n in range(2, 6)] + _TRIANGLES
        + [make_random_maximal_outerplanar(n, s) for n in (4, 5) for s in range(3)]
    )
    rng = random.Random(2024)
    outcomes = {"feasible": 0, "root": 0, "searched": 0}
    for _ in range(4):
        for g in graphs:
            for p in range(4):
                width = g.max_degree + p + rng.randrange(-1, 2)
                low = rng.randrange(3)
                colors = range(low, low + width)
                lists = {
                    x: set(rng.sample(colors, rng.randrange(max(1, width - 2), width + 1)))
                    for x in elements_of(g)
                }
                mine = solve_list(g, p, lists)
                theirs = naive_solve(g.n, g.edges, p, to_naive_lists(lists))
                assert mine.labelled == (theirs is not None), (g.edges, p, lists)
                if mine.labelled:
                    outcomes["feasible"] += 1
                else:
                    outcomes["root" if mine.nodes == 0 else "searched"] += 1
    # every list is non-empty, so a refutation in 0 nodes is the root check
    assert min(outcomes.values()) >= 20, outcomes


def _brute_lp1_labelled(g: Graph, p: int, k: int) -> bool:
    apart = [
        (a, b) for a, b in itertools.combinations(range(g.n), 2)
        if not g.has_edge(a, b) and set(g.adj[a]) & set(g.adj[b])
    ]
    return any(
        all(abs(labels[u] - labels[v]) >= p for u, v in g.edges)
        and all(labels[a] != labels[b] for a, b in apart)
        for labels in itertools.product(range(k + 1), repeat=g.n)
    )


def test_lp1_on_graphs_with_triangles_matches_brute_force():
    # a triangle edge inside a neighbourhood asks its ends to lie p apart as
    # well as to differ, and the neighbourhood check must allow for it
    fans = [Graph(n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)])
            for n in (4, 5)]
    graphs = _TRIANGLES + fans + [
        make_random_maximal_outerplanar(n, s) for n in (5, 6) for s in range(2)
    ] + small_connected_graphs(5)
    for g in graphs:
        for p in (1, 2):
            for k in range(g.max_degree + p):
                assert lp1_solve_span(g, p, k).labelled == _brute_lp1_labelled(g, p, k), (g, p, k)
            assert _brute_lp1_labelled(g, p, lp1_min_span(g, p))


def test_certification_of_the_empty_graph():
    g = Graph(0)
    assert solve_span(g, 2, 3).labelling == {}
    cert = certify_choosable(g, 2, 3)
    assert (cert.kind, cert.checked, cert.complete) == ("upper-certified", 1, True)
    cert = find_bad_assignment(g, 2, 3)
    assert (cert.kind, cert.checked, cert.complete) == ("exhausted", 1, True)
    cert = find_bad_assignment(g, 2, 3, budget=7, mode="random")
    assert (cert.kind, cert.checked) == ("exhausted", 7)
    ok, detail = recheck_certificate(cert)
    assert ok, detail


@pytest.mark.parametrize("universe,k,repeat", [(4, 2, 3), (5, 3, 2), (3, 1, 1), (3, 2, 0)])
def test_lex_product_matches_itertools_product(universe, k, repeat):
    def pool():
        return itertools.combinations(range(universe + 1), k)

    assert list(_lex_product(pool, repeat)) == list(itertools.product(list(pool()), repeat=repeat))


def test_witness_search_memory_does_not_grow_with_the_universe():
    # the candidate lists of a position are generated, not stored: storing
    # the 280,840 3-subsets of {0..120} took over 20 MB
    tracemalloc.start()
    try:
        cert = find_bad_assignment(make_path(2), 1, 3, universe=120, budget=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.kind, cert.checked) == ("exhausted", 5)
    assert peak < 1_000_000


def _frozen_instance(rng):
    """A seeded tree, maximal outerplanar or random graph with domains: a
    span range shared by every element, or lists of sparse, shifted or huge
    colors around the degree bound."""
    family = rng.randrange(3)
    if family == 0:
        g = make_random_tree(rng.randrange(1, 13), rng.randrange(10**6))
    elif family == 1:
        g = make_random_maximal_outerplanar(rng.randrange(3, 9), rng.randrange(10**6))
    else:
        n = rng.randrange(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
    p = rng.randrange(4)
    width = max(1, g.max_degree + p + rng.randrange(-2, 2))
    if rng.random() < 0.4:
        return g, p, [range(width)] * (g.n + g.m)
    low = rng.choice([0, 3, 100, 10**9, 2**70])
    pool = sorted(rng.sample(range(low, low + 3 * width), width))
    size = rng.randrange(max(1, width - 2), width + 1)
    return g, p, [set(rng.sample(pool, size)) for _ in range(g.n + g.m)]


def test_search_matches_the_tuple_keyed_search():
    # the split partner lists and packed heap keys must visit exactly the
    # nodes of the former search, groups included, and give its answers;
    # the root-first entry's check must refute where the former search's did
    rng = random.Random(15)
    outcomes = {"labelled": 0, "root": 0, "searched": 0}
    for _ in range(2000):
        g, p, domains = _frozen_instance(rng)
        neqs, seps = _total_model(g)
        mine = _root_first(domains, neqs, seps, p)
        assert mine == tuple_keyed_search(
            domains, _pairs(neqs, seps), p, _groups(seps)), (g, p, domains)
        if mine[0] is not None:
            outcomes["labelled"] += 1
        else:
            outcomes["root" if mine[1] == 0 else "searched"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_search_matches_the_tuple_keyed_search_on_vertex_labellings():
    rng = random.Random(16)
    for _ in range(300):
        g, p, _ = _frozen_instance(rng)
        p = max(p, 1)  # the neighbourhoods are groups at p >= 1 only
        k = rng.randrange(max(1, p + g.max_degree - 2), p + g.max_degree + 2)
        neqs, seps = _lp1_model(g)
        domains = [range(k)] * g.n
        mine = _root_first(domains, neqs, seps, p)
        assert mine == tuple_keyed_search(domains, _pairs(neqs, seps), p, _groups(seps)), (g, p, k)


_C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
_C8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)])


@pytest.mark.parametrize("g,p,k,expected", [
    (Graph(0), 2, 3, ([], 0)),
    (Graph(1), 0, 0, ([0], 1)),
    (Graph(1), 3, 2, ([0], 1)),
    # 4, 8 and 16 elements: the index field is exactly full
    (Graph(3, [(0, 1)]), 0, 1, ([0, 1, 0, 0], 4)),
    (_C4, 0, 2, ([0, 1, 0, 1, 0, 1, 1, 0], 8)),
    (_C4, 2, 4, ([0, 4, 2, 1, 2, 3, 0, 4], 9)),
    (_C8, 1, 2, (None, 81)),  # C8 is not totally 3-colorable
    (_C8, 3, 4, (None, 9)),
    (_C8, 3, 5, ([0, 1, 0, 1, 0, 1, 0, 1, 4, 5, 5, 4, 5, 4, 5, 4], 20)),
])
def test_packed_keys_at_the_edges(g, p, k, expected):
    neqs, seps = _total_model(g)
    domains = [range(k + 1)] * (g.n + g.m)
    mine = _root_first(domains, neqs, seps, p)
    assert mine == tuple_keyed_search(domains, _pairs(neqs, seps), p, _groups(seps))
    assert mine == expected


@pytest.mark.parametrize("n,p,k", [(1, 0, 0), (2, 0, 0), (4, 1, 2), (8, 0, 1), (16, 2, 4)])
def test_packed_keys_on_vertex_labellings(n, p, k):
    # paths of a power-of-two vertex count, and a star whose largest partner
    # count (3) fills its field
    for g in (make_path(n), make_star(3)):
        neqs, seps = _lp1_model(g)
        domains = [range(k + 1)] * g.n
        assert _root_first(domains, neqs, seps, p) == tuple_keyed_search(
            domains, _pairs(neqs, seps), p, _groups(seps))


@pytest.mark.parametrize("n,seed,p,k,labelled", [(6, 15, 3, 7, True), (8, 22, 3, 7, False)])
def test_heap_rebuilds_keep_the_tuple_keyed_order(monkeypatch, n, seed, p, k, labelled):
    # the lazily keyed heap outgrows 4*elements+64 entries here and is rebuilt
    # from the true keys; the search must still visit the former search's nodes
    g = make_random_maximal_outerplanar(n, seed)
    neqs, seps = _total_model(g)
    domains = [range(k + 1)] * (g.n + g.m)
    heapifies = []
    real = heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda heap: heapifies.append(len(heap)) or real(heap))
    mine = _root_first(domains, neqs, seps, p)
    monkeypatch.undo()
    assert len(heapifies) > 1  # the first builds the heap, each later one rebuilds it
    assert (mine[0] is not None) == labelled
    assert mine == tuple_keyed_search(domains, _pairs(neqs, seps), p, _groups(seps))


def test_search_state_stays_small_on_a_long_path():
    # the 600-vertex path is searched 1,199 nodes deep with no backtrack; its
    # stack and trail are flat int lists (tracemalloc peak about 320 kB), and
    # a list per frame and per trail and a tuple per pruned partner would
    # take the peak past 600 kB
    g = make_path(600)
    neqs, seps = _total_model(g)
    encoded = _color_masks([range(5)] * (g.n + g.m), 2)
    tracemalloc.start()
    try:
        assignment, nodes = _search(*encoded, neqs, seps, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assignment is not None and nodes == 1199
    assert peak < 450_000


def test_search_checks_only_groups_with_two_open_elements(monkeypatch):
    # a group with at most one unassigned element cannot fail after forward
    # checking, so the search skips it; it checks the others, the assigned
    # element's own group among them. The wrapper reads the search's state
    # from its frame at each check.
    checks = []

    def recording(domains, near, p):
        fails = real(domains, near, p)

        def wrapped(center, members):
            search = sys._getframe(1).f_locals
            unassigned = sum(search["assigned"][x] is None for x in (center, *members))
            checks.append((unassigned, center == search["var"]))
            return fails(center, members)

        return wrapped

    real = solvers._group_test
    g = _MOP10_DELTA6
    neqs, seps = _total_model(g)
    domains = [range(9)] * (g.n + g.m)
    expected = _search(*_color_masks(domains, 3), neqs, seps, 3)
    monkeypatch.setattr(solvers, "_group_test", recording)
    assert _search(*_color_masks(domains, 3), neqs, seps, 3) == expected
    assert min(checks)[0] == 2 and (2, True) in checks and (2, False) in checks


def _orbit_representatives(g, k, universe):
    """Brute force for _normalized_assignments, sharing no code with
    element_automorphisms or _is_canonical. An assignment is the tuple of its
    sorted lists in element order. Every vertex permutation that maps the
    edge set onto itself moves the lists (vertex v to sigma(v), edge uv to
    sigma(u)sigma(v)), and each orbit whose least color is 0 keeps its
    lex-least member."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    position = {e: g.n + j for j, e in enumerate(edges)}
    actions = []
    for sigma in itertools.permutations(range(g.n)):
        images = [tuple(sorted((sigma[u], sigma[v]))) for u, v in edges]
        if sorted(images) == edges:
            actions.append([*sigma, *(position[e] for e in images)])
    lists = itertools.combinations(range(universe + 1), k)
    seen, representatives = set(), []
    for combo in itertools.product(lists, repeat=g.n + len(edges)):
        if combo in seen or min(colors[0] for colors in combo) != 0:
            continue
        orbit = {tuple(combo[a] for a in action) for action in actions}
        seen |= orbit
        representatives.append(min(orbit))
    return sorted(representatives)


@pytest.mark.parametrize("g,k,universe,orbits", [
    (make_path(3), 2, 3, 3861),
    (make_star(3), 2, 2, 494),
    (_TRIANGLES[0], 2, 3, 8271),
    (make_path(4), 1, 3, 7186),
    (_C4, 2, 2, 953),
], ids=["P3", "K13", "K3", "P4", "C4"])
def test_normalized_assignments_are_the_least_member_of_each_orbit(g, k, universe, orbits):
    # an upper certificate's recheck replays this same filter, so a filter
    # that dropped an orbit would confirm itself; an independent orbit
    # enumeration pins it, one representative per orbit, in lex order
    mine = [tuple(tuple(sorted(lists[x])) for x in elements_of(g))
            for lists in solvers._normalized_assignments(g, k, universe)]
    assert mine == _orbit_representatives(g, k, universe)
    assert len(mine) == orbits


def test_lex_hunt_is_complete_only_when_its_budget_reaches_every_assignment(monkeypatch):
    # P2 is 3-choosable at p = 1, so a lex hunt labels every normalized
    # assignment: a budget of exactly their number has checked them all, and
    # one short of it has not; a raw scan stopped by the cap is not complete
    g, p, k, universe = make_path(2), 1, 3, 4
    count = sum(1 for _ in solvers._normalized_assignments(g, k, universe))
    at = find_bad_assignment(g, p, k, universe, budget=count)
    assert (at.kind, at.checked, at.complete) == ("exhausted", count, True)
    short = find_bad_assignment(g, p, k, universe, budget=count - 1)
    assert (short.kind, short.checked, short.complete) == ("exhausted", count - 1, False)
    for cert in (at, short):
        ok, detail = recheck_certificate(cert)
        assert ok, detail
    monkeypatch.setattr(solvers, "_RAW_SCAN_CAP", 50)
    capped = find_bad_assignment(g, p, k, universe, budget=count)
    assert capped.kind == "exhausted" and 0 < capped.checked < count and not capped.complete


def test_random_hunt_exhaustion_is_never_complete():
    g, p, k, universe = make_path(2), 1, 3, 4
    count = sum(1 for _ in solvers._normalized_assignments(g, k, universe))
    cert = find_bad_assignment(g, p, k, universe, budget=2 * count, mode="random", seed=1)
    assert (cert.kind, cert.checked, cert.complete, cert.seed) == ("exhausted", 2 * count, False, 1)


def test_certified_lower_witness_names_no_budget_or_seed():
    cert = certify_choosable(make_path(2), 1, 2, universe=5)
    assert cert.kind == "lower-witness"
    obj = json.loads(cert.to_json())
    assert (obj["budget"], obj["mode"], obj["seed"], obj["complete"]) == (None, "lex", None, False)


def _compressed(lists, p):
    """Gap compression: every gap of at least max(p, 1) between consecutive
    colors in use shrinks to exactly max(p, 1), and the least color moves to
    0. The map keeps the order of the colors and every distance below p."""
    step = max(p, 1)
    image, last = {}, None
    for color in sorted(set().union(*lists)):
        image[color] = 0 if last is None else image[last] + min(color - last, step)
        last = color
    return [{image[c] for c in colors} for colors in lists]


def test_gap_compression_keeps_every_verdict():
    # k-lists on N elements compress into {0..(N*k - 1)*max(p, 1)} with the
    # same verdict, so an upper certificate whose universe reaches that bound
    # holds for every universe. Tight lists: k about the degree bound, drawn
    # from a few more colors than k, spaced by gaps of 1 to 2p + 1.
    rng = random.Random(26)
    verdicts = {True: 0, False: 0}
    for _ in range(700):
        family = rng.randrange(4)
        if family == 0:
            g = make_star(rng.randrange(1, 6))
        elif family == 1:
            g = make_path(rng.randrange(2, 9))
        elif family == 2:
            g = make_random_tree(rng.randrange(2, 10), rng.randrange(10**6))
        else:
            g = make_random_maximal_outerplanar(rng.randrange(3, 7), rng.randrange(10**6))
        p = rng.randrange(4)
        k = max(1, g.max_degree + p - 1 + rng.randrange(-1, 2))
        pool = list(itertools.accumulate(
            rng.randrange(1, 2 * p + 2) for _ in range(k + rng.randrange(3))))
        lists = [set(rng.sample(pool, k)) for _ in range(g.n + g.m)]
        small = _compressed(lists, p)
        assert max(map(max, small)) <= (len(lists) * k - 1) * max(p, 1)
        verdict = solve_list(g, p, lists).labelled
        assert solve_list(g, p, small).labelled == verdict, (g, p, lists)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100, verdicts
