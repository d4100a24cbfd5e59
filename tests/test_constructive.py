import hashlib
import json
import random
import re
from itertools import combinations

import pytest

from plabel import constructive
from plabel.constructive import (
    C1,
    C2,
    C3,
    Leaf,
    OuterplanarAudit,
    TheoremViolation,
    _Rebuilder,
    find_configuration,
    label_outerplanar_list,
    label_path_greedy,
    label_star_list,
    label_star_span,
    label_tree_dfs,
)
from plabel.graphs import (
    Graph,
    make_fan,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
    parse_graph6,
)
from plabel.harness import mop_with_degree
from plabel.labelling import (
    Edge,
    Vertex,
    _edge_positions,
    check_lists,
    element_from_name,
    elements_of,
    full_lists,
    is_valid,
    labelling_to_json,
    p_ball,
    respects_lists,
)
from plabel.solvers import solve_list

SEED = 2024


def rnd_lists(g, k, universe, rng):
    return {x: set(rng.sample(range(universe + 1), k)) for x in elements_of(g)}


# --- paths ----------------------------------------------------------------------


def test_path_greedy_full_lists():
    g = make_path(3)
    c = label_path_greedy(g, 2, full_lists(g, range(5)))
    assert is_valid(g, 2, c, total=True).ok


def test_path_greedy_rejects_bad_input():
    with pytest.raises(ValueError):
        label_path_greedy(make_star(3), 2, {})
    g = make_path(4)
    with pytest.raises(ValueError):
        label_path_greedy(g, 2, full_lists(g, range(4)))  # lists too small
    with pytest.raises(ValueError):
        label_path_greedy(g, 0, full_lists(g, range(5)))


def test_path_greedy_single_vertex_and_edge():
    g1 = make_path(1)
    assert label_path_greedy(g1, 1, full_lists(g1, range(3))) == {Vertex(0): 0}
    g2 = make_path(2)
    c = label_path_greedy(g2, 1, full_lists(g2, range(3)))
    assert is_valid(g2, 1, c, total=True).ok


def test_path_greedy_random_lists():
    rng = random.Random(SEED)
    for p in (1, 2, 3):
        k = 2 * p + 1
        for trial in range(300):
            g = make_path(2 + trial % 11)
            lists = rnd_lists(g, k, k + 2 * p, rng)
            c = label_path_greedy(g, p, lists)
            assert is_valid(g, p, c, total=True).ok
            assert respects_lists(c, lists)


def test_path_greedy_matches_exhaustive_choosability():
    # single edge with 3-lists at p=1 always succeeds, tight by the
    # exhaustive certificate at list size 2
    rng = random.Random(SEED + 1)
    g = make_path(2)
    for _ in range(300):
        lists = rnd_lists(g, 3, 5, rng)
        c = label_path_greedy(g, 1, lists)
        assert respects_lists(c, lists)


# --- trees ----------------------------------------------------------------------


def test_tree_dfs_star_example():
    g = make_star(3)
    c = label_tree_dfs(g, 2, full_lists(g, range(6)))
    assert is_valid(g, 2, c, total=True).ok
    assert solve_list(g, 2, full_lists(g, range(6))).labelled


def test_tree_dfs_path_consistency():
    g = make_path(6)
    lists = full_lists(g, range(5))
    c = label_tree_dfs(g, 2, lists)
    assert is_valid(g, 2, c, total=True).ok


def test_tree_dfs_single_edge_needs_wider_lists():
    # the one-edge tree subdivides to a path with maximum degree 2, so its
    # guarantee threshold is 2p+1, not Delta+2p-1
    g = make_path(2)
    with pytest.raises(ValueError):
        label_tree_dfs(g, 2, full_lists(g, range(4)))
    c = label_tree_dfs(g, 2, full_lists(g, range(5)))
    assert is_valid(g, 2, c, total=True).ok


def test_tree_dfs_random_trees():
    rng = random.Random(SEED + 2)
    for p in (1, 2, 3, 4):
        for trial in range(150):
            g = make_random_tree(3 + trial % 40, trial)
            k = max(g.max_degree, 2) + 2 * p - 1
            lists = rnd_lists(g, k, k + 2 * p, rng)
            c = label_tree_dfs(g, p, lists)
            assert is_valid(g, p, c, total=True).ok
            assert respects_lists(c, lists)


def test_tree_dfs_rejects_non_tree():
    cyc = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        label_tree_dfs(cyc, 2, full_lists(cyc, range(9)))


def _walk_path(g, p, lists):
    """The former path labeller: an explicit walk from the lower end."""
    if p < 1:
        raise ValueError("the sequential greedy needs p >= 1")
    if g.n == 1:
        order = [0]
    else:
        degs = [g.degree(v) for v in range(g.n)]
        ends = [v for v in range(g.n) if degs[v] == 1]
        if g.m != g.n - 1 or max(degs) > 2 or len(ends) != 2 or not g.is_connected():
            raise ValueError("graph is not a path")
        order = [min(ends)]
        prev = -1
        while len(order) < g.n:
            nxt = [w for w in g.adj[order[-1]] if w != prev]
            prev = order[-1]
            order.append(nxt[0])
    lists = check_lists(g, lists, minimum=2 * p + 1)
    edge_at = _edge_positions(g)
    c = [None] * len(lists)
    c[order[0]] = constructive._least(lists[order[0]])
    prev_edge = set()
    for u, v in zip(order, order[1:]):
        e = edge_at[u, v]
        c[e] = constructive._least(set(lists[e]) - p_ball(c[u], p) - prev_edge)
        c[v] = constructive._least(set(lists[v]) - {c[u]} - p_ball(c[e], p))
        prev_edge = {c[e]}
    return constructive._checked_output(g, p, c, lists)


def _iterator_stack_dfs(g, p, lists):
    """The former tree labeller: a depth-first search on a stack of iterators."""
    if p < 1:
        raise ValueError("the depth-first greedy needs p >= 1")
    if g.m != g.n - 1 or not g.is_connected():
        raise ValueError("graph is not a tree")
    need = 1 if g.m == 0 else max(g.max_degree, 2) + 2 * p - 1
    lists = check_lists(g, lists, minimum=need)
    edge_at = _edge_positions(g)
    c = [None] * len(lists)
    edge_colors = [[] for _ in range(g.n)]
    c[0] = constructive._least(lists[0])
    stack = [(0, iter(g.adj[0]))]
    seen = {0}
    while stack:
        u, children = stack[-1]
        advanced = False
        for w in children:
            if w in seen:
                continue
            seen.add(w)
            e = edge_at[u, w]
            forb = p_ball(c[u], p) | set(edge_colors[u])
            c[e] = constructive._least(set(lists[e]) - forb)
            edge_colors[u].append(c[e])
            edge_colors[w].append(c[e])
            c[w] = constructive._least(set(lists[w]) - {c[u]} - p_ball(c[e], p))
            stack.append((w, iter(g.adj[w])))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return constructive._checked_output(g, p, c, lists)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _labelling_or_error(label, g, p, lists):
    try:
        return label(g, p, lists)
    except ValueError as err:
        return f"ValueError: {err}"


def test_one_greedy_matches_the_former_walk_and_dfs():
    # paths and trees relabelled at random (so a path's lower end is rarely
    # vertex 0), non-paths and non-trees, p = 0..4, full, random and short lists
    rng = random.Random(SEED + 3)
    paths = [_relabelled(make_path(n), rng) for n in range(1, 41)]
    trees = [_relabelled(make_random_tree(n, n), rng) for n in range(1, 51)]
    others = [Graph(0), Graph(2), make_star(3), Graph(3, [(0, 1), (1, 2), (0, 2)]),
              Graph(4, [(0, 1), (2, 3)]), Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
              _relabelled(make_fan(5), rng)]
    assert sum(g.n > 1 and min(v for v in range(g.n) if g.degree(v) == 1) > 0
               for g in paths) >= 30
    pairs = ((label_path_greedy, _walk_path, lambda g, p: 2 * p + 1),
             (label_tree_dfs, _iterator_stack_dfs,
              lambda g, p: max(g.max_degree, 2) + 2 * p - 1))
    outcomes = {"labelled": 0, "error": 0}
    for label, reference, size in pairs:
        for g in paths + trees + others:
            for p in range(5):
                k = size(g, p)
                for lists in (full_lists(g, range(k)), rnd_lists(g, k, k + 2 * p, rng),
                              rnd_lists(g, k - 1, k + 2 * p, rng)):
                    mine = _labelling_or_error(label, g, p, lists)
                    assert mine == _labelling_or_error(reference, g, p, lists), (g, p, lists)
                    outcomes["error" if isinstance(mine, str) else "labelled"] += 1
    assert min(outcomes.values()) >= 1000, outcomes


# --- stars ----------------------------------------------------------------------


def test_star_list_full_lists_trace():
    g = make_star(3)
    lists = full_lists(g, range(6))
    c = label_star_list(g, 2, lists)
    assert is_valid(g, 2, c, total=True).ok
    assert c[Vertex(0)] == 0  # least center color admits the edge coloring


def test_star_list_random_assignments():
    rng = random.Random(SEED + 3)
    for p in (2, 3):
        for n in (3, 4, 5, 6, 7, 8):
            g = make_star(n)
            k = n + 2 * p - 1
            for trial in range(120):
                lists = rnd_lists(g, k, k + 2 * p, rng)
                c = label_star_list(g, p, lists)
                assert is_valid(g, p, c, total=True).ok
                assert respects_lists(c, lists)


def test_star_list_agrees_with_solver_on_small_cases():
    rng = random.Random(SEED + 4)
    g = make_star(3)
    for trial in range(40):
        lists = rnd_lists(g, 6, 9, rng)
        assert solve_list(g, 2, lists).labelled
        label_star_list(g, 2, lists)


def test_star_list_shape_and_parameter_errors():
    with pytest.raises(ValueError):
        label_star_list(make_path(4), 2, {})
    g = make_star(3)
    with pytest.raises(ValueError):
        label_star_list(g, 1, full_lists(g, range(6)))
    with pytest.raises(ValueError):
        label_star_list(make_star(2), 2, full_lists(make_star(2), range(6)))
    with pytest.raises(ValueError):
        label_star_list(g, 2, full_lists(g, range(5)))  # needs n+2p-1 = 6


def test_star_span_closed_form():
    c = label_star_span(3, 2)
    assert c[Vertex(0)] == 5
    assert [c[Edge(0, j)] for j in (1, 2, 3)] == [1, 2, 3]
    assert [c[Vertex(j)] for j in (1, 2, 3)] == [3, 4, 1]
    g = make_star(3)
    assert is_valid(g, 2, c, total=True).ok
    assert max(c.values()) - min(c.values()) == 4


def test_star_span_all_small_parameters():
    for n in range(1, 7):
        for p in range(1, 6):
            c = label_star_span(n, p)
            g = make_star(n)
            assert is_valid(g, p, c, total=True).ok
            expected_span = (n + p if p < n else n + p + 1) - 1
            assert max(c.values()) - min(c.values()) == expected_span
            if p < n:
                assert set(c.values()) <= set(range(1, n + p + 1))


def test_star_span_large_p_delegates():
    c = label_star_span(1, 1)  # a single edge; needs n+p+1 = 3 colors
    assert len(set(c.values())) == 3


# --- configuration detection -------------------------------------------------------


def test_configurations_on_small_families():
    assert find_configuration(make_path(4)) == Leaf(0, 1)
    assert find_configuration(make_fan(4)) == C2(1, 2, 0)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert find_configuration(c4) == C1(0, 1)
    with pytest.raises(ValueError):
        find_configuration(Graph(0))


def test_configuration_none_on_dense_graph():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert find_configuration(k4) is None


def test_configuration_c3_gadget():
    g = _c3_gadget()
    assert find_configuration(g) == C3(0, 1, 2, 9, 8)


def test_configuration_always_found_on_outerplanar():
    # minimum-degree-2 outerplanar graphs always carry one of the shapes
    for trial in range(10000):
        g = make_random_maximal_outerplanar(3 + trial % 12, trial)
        assert find_configuration(g) is not None


# --- the configuration scan against a whole-graph rescan ------------------------------


def _rescan_configuration(adj: dict):
    """Reference scan: recompute every degree and walk every vertex, in the
    same priority order as the labeller's bucketed scan."""
    deg = {v: len(nbs) for v, nbs in adj.items()}
    for v in sorted(adj):
        if deg[v] == 1:
            return Leaf(v, next(iter(adj[v])))
    for u in sorted(adj):
        if deg[u] != 2:
            continue
        for v in sorted(adj[u]):
            if v > u and deg[v] == 2:
                return C1(u, v)
    for u in sorted(adj):
        if deg[u] != 2:
            continue
        a, b = sorted(adj[u])
        if b in adj[a]:
            if deg[a] == 3:
                return C2(u, a, b)
            if deg[b] == 3:
                return C2(u, b, a)
    for x in sorted(adj):
        if deg[x] != 4:
            continue
        pairs = []
        for u in sorted(adj[x]):
            if deg[u] != 2:
                continue
            other = next(w for w in adj[u] if w != x)
            if other in adj[x]:
                pairs.append((u, other))
        for (u1, v1), (u2, v2) in combinations(pairs, 2):
            if {u1, v1}.isdisjoint({u2, v2}):
                return C3(x, u1, v1, u2, v2)
    return None


def _rescan_reductions(adj: dict):
    """Peel adj with the reference scan, removing each configuration's edge
    (and a leaf's vertex) as the labeller does."""
    while (step := _rescan_configuration(adj)) is not None:
        yield step
        a, b, *_ = vars(step).values()
        adj[a].discard(b)
        adj[b].discard(a)
        if type(step) is Leaf:
            del adj[a]


def _disjoint_union(*graphs) -> Graph:
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return Graph(n, edges)


def _scan_inputs():
    rng = random.Random(SEED + 12)
    for n in range(3, 41):
        yield Graph(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])  # zig-zag strip
        yield make_fan(n)
        yield make_random_tree(n, n)
        for seed in range(3):
            mop = make_random_maximal_outerplanar(n, seed)
            yield mop
            yield mop_with_degree(n, seed, max_delta=4)
            yield mop_with_degree(n, seed, max_delta=5)
            ends = rng.sample(range(n), 3)
            yield Graph(n + 3, [*mop.edges, *((v, n + i) for i, v in enumerate(ends))])
        yield _disjoint_union(make_random_maximal_outerplanar(n, 7), make_fan(4),
                              make_random_tree(5, n), Graph(2))


def test_bucketed_scan_matches_the_whole_graph_rescan():
    for g in _scan_inputs():
        ours = {v: set(g.adj[v]) for v in range(g.n)}
        theirs = {v: set(g.adj[v]) for v in range(g.n)}
        steps = list(constructive._reductions(ours))
        assert steps == list(_rescan_reductions(theirs)), g.edges
        assert ours == theirs
        assert find_configuration(g) == (steps[0] if steps else None)


def test_outerplanar_steps_match_the_whole_graph_rescan(monkeypatch):
    # p=1 where the maximum degree is 4 (the strip, the capped graphs), else p=2
    cases = [(g, min(2, g.max_degree - 3)) for g in _scan_inputs() if g.max_degree >= 4]
    runs = []
    for g, p in cases:
        k = g.max_degree + 2 * p - 1
        lists = rnd_lists(g, k, k + 2 * p, random.Random(f"{g.n}:{g.m}:{p}"))
        audit = OuterplanarAudit()
        runs.append((lists, label_outerplanar_list(g, p, lists, audit), audit))
    monkeypatch.setattr(constructive, "_reductions", _rescan_reductions)
    for (g, p), (lists, labelling, audit) in zip(cases, runs):
        rescanned = OuterplanarAudit()
        assert label_outerplanar_list(g, p, lists, rescanned) == labelling
        assert rescanned == audit


# --- outerplanar labeller ------------------------------------------------------------


def _mop_with_delta(n, seed, lo):
    for attempt in range(3000):
        g = make_random_maximal_outerplanar(n, seed * 7919 + attempt)
        if g.max_degree >= lo:
            return g
    raise AssertionError("generator never met the degree bound")


def test_outerplanar_full_range_spans():
    rng = random.Random(SEED + 5)
    for trial in range(60):
        g = _mop_with_delta(6 + trial % 9, trial, 5)
        lists = full_lists(g, range(g.max_degree + 3))
        audit = OuterplanarAudit()
        c = label_outerplanar_list(g, 2, lists, audit=audit)
        assert max(c.values()) <= g.max_degree + 2
        assert audit.full_resolves == 0


def test_outerplanar_random_assignments_and_audit_bounds():
    rng = random.Random(SEED + 6)
    for p, lo in ((1, 4), (2, 5), (3, 6)):
        for trial in range(120):
            g = _mop_with_delta(max(6, lo + 1) + trial % 7, trial, lo)
            k = g.max_degree + 2 * p - 1
            lists = rnd_lists(g, k, k + 2 * p, rng)
            audit = OuterplanarAudit()
            c = label_outerplanar_list(g, p, lists, audit=audit)
            assert is_valid(g, p, c, total=True).ok
            assert respects_lists(c, lists)
            assert audit.full_resolves == 0
            assert audit.steps, "audit must record the reduction sequence"


def test_outerplanar_handles_trees_via_leaves():
    g = make_random_tree(12, 5)
    if g.max_degree < 5:
        g = make_star(6)  # fallback: a high-degree tree
    k = g.max_degree + 3
    audit = OuterplanarAudit()
    c = label_outerplanar_list(g, 2, full_lists(g, range(k)), audit=audit)
    assert is_valid(g, 2, c, total=True).ok
    assert all(s["kind"] == "leaf" for s in audit.steps)


def test_outerplanar_refuses_low_degree():
    g = make_random_maximal_outerplanar(6, 0)
    with pytest.raises(ValueError):
        label_outerplanar_list(g, g.max_degree - 2, full_lists(g, range(40)))


def test_outerplanar_reports_non_outerplanar_input():
    # K5: degree 4 everywhere, no reducible shape anywhere
    k5 = Graph(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    )
    with pytest.raises(TheoremViolation):
        label_outerplanar_list(k5, 1, full_lists(k5, range(6)))


def test_outerplanar_reports_a_stall_after_progress():
    # K5 with the path 4-5-6 hanging off vertex 4: the leaves 6 and then 5
    # reduce, and the K5 left over has no reducible configuration
    g = Graph(7, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(4, 5), (5, 6)])
    assert find_configuration(g) == Leaf(6, 5)
    message = (
        "no reducible configuration in a working graph of minimum degree >= 2; "
        "the input cannot be outerplanar"
    )
    with pytest.raises(TheoremViolation, match=f"^{re.escape(message)}$"):
        label_outerplanar_list(g, 1, full_lists(g, range(6)))


def test_outerplanar_agrees_with_solver_on_small_instances():
    rng = random.Random(SEED + 7)
    for trial in range(40):
        g = _mop_with_delta(6, trial, 5)
        if g.n + g.m > 9 + 12:
            continue
        k = g.max_degree + 3
        lists = rnd_lists(g, k, k + 4, rng)
        c = label_outerplanar_list(g, 2, lists)
        assert solve_list(g, 2, lists).labelled


def _c3_gadget() -> Graph:
    # maximal outerplanar, 10 vertices, maximum degree 6; the first reducible
    # configuration is the degree-4 hub at vertex 0 with ear triangles
    # (1,2) and (9,8); vertices 1 and 9 have degree 2
    cyc = [(i, i + 1) for i in range(9)] + [(0, 9)]
    chords = [(0, 2), (2, 4), (4, 6), (6, 8), (0, 8), (2, 8), (4, 8)]
    return Graph(10, cyc + chords)


def _tight_c3_state(p=3):
    """Hand-built state putting the hub-edge extension into its tight case."""
    g = _c3_gadget()
    k = g.max_degree + 2 * p - 1  # 11
    lists = {x: set(range(k)) for x in elements_of(g)}
    lists[Edge(0, 1)] = {0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12}
    lists[Vertex(1)] = {2, 5, 6, 7, 8, 9, 14, 10, 11, 12, 13}
    h = Graph(10, [e for e in g.edges if e != (0, 1)])
    pins = {
        Vertex(0): 2, Vertex(1): 2, Vertex(2): 14,
        Edge(0, 2): 6, Edge(1, 2): 7, Edge(0, 8): 8, Edge(0, 9): 9,
    }
    pinned_lists = {x: set(range(18)) for x in elements_of(h)}
    pinned_lists.update({el: {color} for el, color in pins.items()})
    completed = solve_list(h, p, pinned_lists)
    assert completed.labelled
    return g, h, lists, dict(completed.labelling)


def test_c3_interchange_tight_case():
    p = 3
    g, h, lists, c = _tight_c3_state(p)
    audit = OuterplanarAudit()
    adj = {v: set(h.adj[v]) for v in range(h.n)}
    elements = elements_of(g)
    rb = _Rebuilder(g, p, [lists[x] for x in elements], audit, adj,
                    [c.get(x) for x in elements])
    rb.extend_c3(0, 1, 2, 9, 8)
    labelled = dict(zip(elements, rb.c))
    assert audit.interchanges == 1
    assert audit.invalid_swaps == 0
    assert audit.restricted_solves == 0
    # the swap moved the far-side color onto the hub-side edge
    assert labelled[Edge(0, 2)] == 7 and labelled[Edge(1, 2)] == 6
    assert is_valid(g, p, labelled, total=True).ok
    assert labelled[Vertex(1)] in lists[Vertex(1)]
    assert labelled[Edge(0, 1)] in lists[Edge(0, 1)]


def test_c3_fallback_recovers_from_corrupted_state():
    # corrupt the completed context so the interchange is rejected and no pair
    # is left; the rebuilder must fall back to a full re-solve and still hand
    # back a valid labelling of the whole graph
    p = 3
    g, h, lists, c = _tight_c3_state(p)
    c[Edge(4, 5)] = c[Edge(5, 6)]  # adjacent edges now clash
    audit = OuterplanarAudit()
    adj = {v: set(h.adj[v]) for v in range(h.n)}
    elements = elements_of(g)
    rb = _Rebuilder(g, p, [lists[x] for x in elements], audit, adj,
                    [c.get(x) for x in elements])
    rb.extend_c3(0, 1, 2, 9, 8)
    labelled = dict(zip(elements, rb.c))
    assert audit.interchanges == 1
    assert audit.invalid_swaps == 1
    assert audit.restricted_solves == 1
    assert audit.full_resolves == 1
    assert rb.resolved_whole_graph
    assert is_valid(g, p, labelled, total=True).ok
    assert respects_lists(labelled, lists)


# Delta = 4 = p+3 at p=1, found by a seeded sweep: the C3 hub-edge pool is empty
# (its bound is p-1 = 0) and the interchange swaps two colors that pool already
# excludes, so the step is left with no pair and the full re-solve is needed
_P1_FALLBACK_LISTS = {
    "v:0": [0, 1, 2, 3, 5], "v:1": [0, 2, 3, 4, 5], "v:2": [0, 1, 2, 3, 5],
    "v:3": [0, 1, 3, 4, 6], "v:4": [0, 1, 2, 4, 6], "v:5": [0, 1, 2, 3, 4],
    "e:0-1": [0, 2, 3, 4, 5], "e:0-2": [0, 2, 3, 4, 5], "e:0-3": [0, 1, 2, 3, 4],
    "e:0-5": [0, 1, 3, 4, 6], "e:1-2": [1, 3, 4, 5, 6], "e:1-4": [0, 1, 4, 5, 6],
    "e:1-5": [1, 2, 3, 5, 6], "e:2-3": [0, 2, 4, 5, 6], "e:2-4": [1, 3, 4, 5, 6],
}


def test_outerplanar_p1_instance_reaches_both_solver_fallbacks():
    g = parse_graph6("E|Z?")
    lists = {element_from_name(name): set(colors) for name, colors in _P1_FALLBACK_LISTS.items()}
    audit = OuterplanarAudit()
    c = label_outerplanar_list(g, 1, lists, audit=audit)
    assert is_valid(g, 1, c, total=True).ok
    assert respects_lists(c, lists)
    assert (audit.interchanges, audit.invalid_swaps) == (1, 0)
    assert (audit.restricted_solves, audit.full_resolves) == (1, 1)


def test_c3_repair_calls_the_solver_only_for_the_full_resolve(monkeypatch):
    calls = []

    def counted(g, p, lists):
        calls.append(g)
        return solve_list(g, p, lists)

    monkeypatch.setattr(constructive, "solve_list", counted)
    g = parse_graph6("E|Z?")
    lists = {element_from_name(name): set(colors) for name, colors in _P1_FALLBACK_LISTS.items()}
    label_outerplanar_list(g, 1, lists)
    assert calls == [g]


def test_outerplanar_bridge_disconnection():
    # two triangles joined by a path through two degree-2 vertices: deleting
    # the middle edge disconnects the working graph; the labeller must cope
    edges = [
        (0, 1), (1, 2), (0, 2),  # triangle
        (2, 3), (3, 4), (4, 5),  # bridge path (3-4 is a C1 pair)
        (5, 6), (6, 7), (5, 7),  # triangle
        # raise the maximum degree to meet the entry requirement
        (0, 8), (0, 9), (0, 10),
    ]
    g = Graph(11, edges)
    assert g.max_degree >= 5
    lists = full_lists(g, range(g.max_degree + 3))
    c = label_outerplanar_list(g, 2, lists)
    assert is_valid(g, 2, c, total=True).ok


# --- pinned labellings ----------------------------------------------------------
#
# The tests above check that labellings are valid; these pin which colors each
# labeller picks. Each digest is a sha256 prefix of the labellings' JSON (and,
# for outerplanar graphs, the audit trail) over a seeded sweep, recorded before
# the labellers moved from element dicts to element positions.


def _pin(texts) -> str:
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()[:16]


_PIN_SWEEP = {
    "path": (
        lambda n, p, trial: make_path(n), lambda g, p: 2 * p + 1,
        lambda p: range(1, 13), label_path_greedy,
    ),
    "tree": (
        lambda n, p, trial: make_random_tree(n, 31 * trial + p),
        lambda g, p: max(g.max_degree, 2) + 2 * p - 1, lambda p: range(1, 21), label_tree_dfs,
    ),
    "star": (
        lambda n, p, trial: make_star(n), lambda g, p: g.n + 2 * p - 2,
        lambda p: range(3, 10), label_star_list,
    ),
    "outerplanar": (
        lambda n, p, trial: mop_with_degree(n, 31 * trial + p, min_delta=p + 3),
        lambda g, p: g.max_degree + 2 * p - 1, lambda p: range(p + 4, p + 12),
        label_outerplanar_list,
    ),
}

_PINNED = {
    ("path", 1): "1c899c49b59b0bbf",
    ("path", 2): "ea920273948d71e1",
    ("path", 3): "73eb574c0ec5c3ea",
    ("tree", 1): "43a646504e14b36c",
    ("tree", 2): "60b100c6998f79ef",
    ("tree", 3): "9c66e1b961bc99e5",
    ("star", 2): "b3f8b539d45d4b74",
    ("star", 3): "3e08398fda8399aa",
    ("outerplanar", 1): "54a2e5c844acc4b7",
    ("outerplanar", 2): "b2b83416201d7199",
    ("outerplanar", 3): "68c2aef449826ed3",
}


@pytest.mark.parametrize("family,p", sorted(_PINNED))
def test_labellers_pick_pinned_colors(family, p):
    make, list_size, sizes, label = _PIN_SWEEP[family]
    sizes = list(sizes(p))
    texts = []
    for trial in range(24):
        g = make(sizes[trial % len(sizes)], p, trial)
        k = list_size(g, p)
        if trial % 4 == 0:
            lists = full_lists(g, range(k))
        else:
            lists = rnd_lists(g, k, k + 2 * p, random.Random(f"pin:{family}:{p}:{trial}"))
        if family == "outerplanar":
            audit = OuterplanarAudit()
            texts.append(labelling_to_json(p, label(g, p, lists, audit=audit)))
            texts.append(json.dumps(audit.steps))
        else:
            texts.append(labelling_to_json(p, label(g, p, lists)))
    assert _pin(texts) == _PINNED[family, p]


def test_star_span_picks_pinned_colors():
    closed_form = labelling_to_json(2, label_star_span(5, 2))
    by_solver = labelling_to_json(3, label_star_span(2, 3))
    assert _pin([closed_form, by_solver]) == "257a7d0757baf575"


def test_outerplanar_p1_fallback_instance_picks_pinned_colors():
    g = parse_graph6("E|Z?")
    lists = {element_from_name(name): set(colors) for name, colors in _P1_FALLBACK_LISTS.items()}
    audit = OuterplanarAudit()
    text = labelling_to_json(1, label_outerplanar_list(g, 1, lists, audit=audit))
    assert _pin([text, json.dumps(audit.steps)]) == "bd6e826aab459173"
    assert (audit.interchanges, audit.invalid_swaps) == (1, 0)
    assert (audit.restricted_solves, audit.full_resolves) == (1, 1)
