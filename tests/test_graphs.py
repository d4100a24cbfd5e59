import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plabel import graphs
from plabel.graphs import (
    Graph,
    GraphParseError,
    emit_edge_list,
    emit_graph,
    emit_graph6,
    incidence_graph,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)


def test_graph_normalizes_and_validates():
    g = Graph(3, [(2, 0), (0, 1)])
    assert g.edges == frozenset({(0, 2), (0, 1)})
    assert g.adj == ((1, 2), (0,), (0,))
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_graph_equality_and_degrees():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g == Graph(4, [(1, 2), (1, 0)])
    assert g != Graph(5, [(0, 1), (1, 2)])
    assert g.degree(1) == 2 and g.max_degree == 2 and min(map(len, g.adj)) == 0
    assert not g.is_connected()
    assert make_path(4).is_connected()


def test_incidence_of_single_edge_is_path3():
    im = incidence_graph(make_path(2))
    assert im.derived == Graph(3, [(0, 2), (1, 2)])
    assert im.vertex_image == {0: 0, 1: 1}
    assert im.edge_image == {(0, 1): 2}


def test_incidence_of_edgeless_graph_is_identity():
    g = Graph(4)
    im = incidence_graph(g)
    assert im.derived == g
    assert im.edge_image == {}


def test_incidence_of_triangle_is_sixcycle():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    im = incidence_graph(tri)
    d = im.derived
    assert d.n == 6 and d.m == 6
    assert all(d.degree(v) == 2 for v in range(6))
    assert d.is_connected()


def _fan(n: int) -> Graph:
    """Hub 0 joined to every vertex of the path 1-2-...-n."""
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)])


@pytest.mark.parametrize("maker,arg", [(make_path, 6), (make_star, 5), (_fan, 5)])
def test_incidence_counts(maker, arg):
    g = maker(arg)
    im = incidence_graph(g)
    assert im.derived.n == g.n + g.m
    assert im.derived.m == 2 * g.m
    for v in range(g.n):
        assert im.derived.degree(im.vertex_image[v]) == g.degree(v)
    for e, w in im.edge_image.items():
        assert im.derived.degree(w) == 2
    covered = set(im.vertex_image.values()) | set(im.edge_image.values())
    assert covered == set(range(im.derived.n))


def test_incidence_max_degree_for_trees():
    # subdividing keeps vertex degrees and adds degree-2 vertices, so the
    # maximum degree becomes max(Delta, 2); equal to Delta once Delta >= 2
    for n, seed in [(5, 0), (9, 3), (20, 7)]:
        t = make_random_tree(n, seed)
        assert incidence_graph(t).derived.max_degree == max(t.max_degree, 2)
    assert incidence_graph(make_path(2)).derived.max_degree == 2


def test_make_path_and_star_shapes():
    p5 = make_path(5)
    assert p5.m == 4 and p5.max_degree == 2 and min(map(len, p5.adj)) == 1
    s3 = make_star(3)
    assert sorted(s3.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert s3.degree(0) == 3
    with pytest.raises(ValueError):
        make_path(0)
    with pytest.raises(ValueError):
        make_star(0)


def test_random_tree_is_deterministic_tree():
    for n in (1, 2, 10, 40):
        t = make_random_tree(n, 123)
        assert t.m == n - 1 and t.is_connected()
        assert t == make_random_tree(n, 123)
    assert make_random_tree(10, 1) != make_random_tree(10, 2)


def test_random_maximal_outerplanar():
    for n, seed in [(3, 0), (6, 1), (14, 9)]:
        g, cycle = graphs._grow_by_ears(n, random.Random(f"mop:{n}:{seed}"))
        assert g.m == 2 * n - 3
        assert min(map(len, g.adj)) == 2
        assert g == make_random_maximal_outerplanar(n, seed)
        # the maintained outer cycle really is a Hamiltonian cycle
        assert sorted(cycle) == list(range(n))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(a, b)
    with pytest.raises(ValueError):
        make_random_maximal_outerplanar(2, 0)


def test_parse_edge_list_basics():
    g = parse_edge_list("0 1\n1 2")
    assert g == make_path(3)
    g = parse_edge_list("# comment\n\n0 1\n# n=4\n")
    assert g.n == 4 and g.m == 1


@pytest.mark.parametrize(
    "text", ["0", "0 1 2", "a b", "0 -1", "1 1", "# n=1\n0 3"]
)
def test_parse_edge_list_errors(text):
    with pytest.raises(GraphParseError):
        parse_edge_list(text)


def test_edge_list_round_trip_with_isolated_vertices():
    g = Graph(6, [(0, 5), (2, 3)])
    assert parse_edge_list(emit_edge_list(g)) == g


def test_graph6_triangle():
    assert parse_graph6("Bw") == Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert emit_graph6(Graph(3, [(0, 1), (1, 2), (0, 2)])) == "Bw"


def test_graph6_cross_check_against_networkx():
    nx = pytest.importorskip("networkx")
    import random

    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(1, 12)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        mine = emit_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert mine == theirs
        back = nx.from_graph6_bytes(mine.encode())
        assert set(back.nodes) == set(range(n))
        assert {tuple(sorted(e)) for e in back.edges} == set(g.edges)
        assert parse_graph6(theirs) == g


def test_graph6_errors():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("B")  # missing body
    with pytest.raises(GraphParseError):
        parse_graph6("Bw\x19")


@given(st.integers(0, 20), st.integers(0, 2**30))
def test_format_round_trips(n, seed):
    import random

    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    g = Graph(n, edges)
    assert parse_graph(emit_graph(g, "edge-list"), "edge-list") == g
    assert parse_graph(emit_graph(g, "graph6"), "graph6") == g


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_graph(make_path(2), "dimacs")


def test_sorted_edges_is_kept_and_handed_out_as_a_fresh_list():
    g = Graph(4, [(2, 3), (0, 1), (1, 3), (0, 2)])
    first = g.sorted_edges()
    assert first == sorted(g.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    first.clear()  # a caller's list is its own
    assert g.sorted_edges() == sorted(g.edges) and g.sorted_edges() is not g.sorted_edges()
    assert g == Graph(4, g.edges) and hash(g) == hash(Graph(4, g.edges))
    assert Graph(0).sorted_edges() == [] and Graph(0).max_degree == 0
