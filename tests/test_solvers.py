import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plabel.graphs import (
    Graph,
    incidence_graph,
    make_fan,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
)
from plabel.harness import small_connected_graphs
from plabel.labelling import Edge, Vertex, elements_of, full_lists, respects_lists
from plabel.solvers import (
    Certificate,
    InstanceTooLarge,
    _lex_product,
    _lp1_model,
    _search,
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


def test_solver_counts_nodes_and_time():
    result = solve_span(make_star(3), 2, 4)
    assert result.nodes > 0 and result.seconds >= 0


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


def _rescanning_search(domains, cons, p):
    """Reference for the search order: recursive, rescanning every element
    for the smallest (domain size, -unassigned partners, index) at each node."""
    assigned = [None] * len(domains)
    nodes = 0

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
                if extend():
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
    # without groups the heap-kept order must visit exactly the reference's
    # nodes, backtracking included, and return the same answer
    derived = incidence_graph(g).derived
    cons, _ = _lp1_model(derived, p)
    mine = _search([set(range(k + 1)) for _ in range(derived.n)], cons, p, [])
    assert mine == _rescanning_search([set(range(k + 1)) for _ in range(derived.n)], cons, p)


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
        cons, _ = _lp1_model(derived, p)
        mine = _search([set(colors) for colors in lists], cons, p, [])
        assert mine == _rescanning_search([set(colors) for colors in lists], cons, p), (g, p, lists)
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
        derived = incidence_graph(g).derived
        cons, groups = _total_model(g)
        for p in range(4):
            partners, lp1_groups = _lp1_model(derived, p)
            assert [list(x) for x in cons] == partners, (g, p)
            assert list(groups) == lp1_groups, (g, p)


def test_lp1_model_links_adjacent_and_distance_two_pairs():
    # brute force: partners are the neighbours (separation) and the vertices
    # at distance exactly two (inequality), once each, inequalities first; a
    # group is a neighbourhood whose members must all take distinct colors
    rng = random.Random(13)
    graphs = [Graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
              Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
              Graph(4, list(itertools.combinations(range(4), 2))), make_fan(5), Graph(0)]
    for _ in range(60):
        n = rng.randrange(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1))))
    for g in graphs:
        for p in range(3):
            cons, groups = _lp1_model(g, p)
            for v in range(g.n):
                near = set(g.adj[v])
                far = {w for u in near for w in g.adj[u]} - near - {v}
                expected = {(w, True) for w in near} | {(w, False) for w in far}
                assert len(cons[v]) == len(expected) and set(cons[v]) == expected, (g, v)
                seps = [sep for _, sep in cons[v]]
                assert seps == sorted(seps), (g, v)
            kept = [w for w in range(g.n) if g.adj[w] and all(
                (b, False) in cons[a] or (p > 0 and (b, True) in cons[a])
                for a, b in itertools.combinations(g.adj[w], 2))]
            assert groups == [(w, g.adj[w]) for w in kept], (g, p)


def test_reused_model_gives_fresh_answers():
    import plabel.solvers as solvers

    star, path, mop = make_star(3), make_path(4), _MOP10_DELTA6
    # repeats of one object and of an equal but distinct graph, switches
    # between graphs, and between two graphs of one vertex count
    calls = [(star, 2, 4), (star, 2, 3), (mop, 2, 6), (star, 2, 4), (mop, 3, 8),
             (Graph(mop.n, mop.edges), 0, 5), (mop, 2, 7), (Graph(4, star.edges), 2, 3),
             (path, 2, 4), (star, 2, 4)]
    fresh = []
    for g, p, k in calls:
        solvers._total_model.cache_clear()
        result = solve_span(g, p, k)
        fresh.append((result.labelling, result.nodes))
    solvers._total_model.cache_clear()
    reused = [(result.labelling, result.nodes)
              for result in (solve_span(g, p, k) for g, p, k in calls)]
    assert reused == fresh


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


def test_refutation_below_degree_bound_ends_at_root():
    # k = Delta+p-2 leaves the 8 edges at vertex 3 too few colors outside the
    # p-ball of any color of vertex 3; backtracking alone ran over 15 minutes here
    assert _MOP12_DELTA8.max_degree == 8
    result = solve_span(_MOP12_DELTA8, 2, 8)
    assert not result.labelled and result.nodes == 0


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


def test_lp1_at_p0_on_graphs_with_triangles_matches_brute_force():
    # at p = 0 adjacent vertices may share a color, so a neighbourhood that
    # holds a triangle edge must not be checked for distinct colors
    graphs = _TRIANGLES + [make_fan(4), make_fan(5)] + [
        make_random_maximal_outerplanar(n, s) for n in (5, 6) for s in range(2)
    ]
    for g in graphs:
        for k in range(g.max_degree + 1):
            assert lp1_solve_span(g, 0, k).labelled == _brute_lp1_labelled(g, 0, k), (g.edges, k)
        assert _brute_lp1_labelled(g, 0, lp1_min_span(g, 0))


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
