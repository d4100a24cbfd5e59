"""Polynomial-time list labellers with provable list-size guarantees.

Each routine takes a graph, a separation p, and a list assignment whose
lists meet the guarantee threshold for its graph family, and produces a
valid list-respecting (p,1)-total labelling deterministically:

  paths          lists of size 2p+1, the tree greedy from an end
  trees          lists of size max(Delta,2)+2p-1, greedy from vertex 0
  stars          lists of size n+2p-1 (p>=2, n>=3), protected-edge routine
  outerplanar    lists of size Delta+2p-1 when Delta>=p+3, reducible
                 configurations with minimum-color extensions

Inside, every routine reads the lists and colors by element position (vertex
v at v, the j-th sorted edge at n+j) and builds the element dict on return.
Every returned labelling is re-validated unconditionally. A failure of a
guarantee that the underlying mathematics rules out raises
TheoremViolation, which is a reportable research event rather than an
expected error path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, make_star
from .labelling import (
    _edge_positions,
    _elements,
    check_lists,
    element_name,
    elements_of,
    is_valid,
    p_ball,
)
from .solvers import solve_list, solve_span

__all__ = [
    "TheoremViolation",
    "Leaf",
    "C1",
    "C2",
    "C3",
    "Configuration",
    "find_configuration",
    "label_path_greedy",
    "label_tree_dfs",
    "label_star_list",
    "label_star_span",
    "label_outerplanar_list",
    "OuterplanarAudit",
]


class TheoremViolation(RuntimeError):
    """A list-size guarantee failed at runtime; carries reproduction data."""


def _checked_output(g: Graph, p: int, c: list, lists: list | None = None) -> dict:
    """Re-validate a labelling by position and return it keyed by element."""
    report = is_valid(g, p, c, total=True)
    if not report.ok:
        raise AssertionError(f"constructed labelling is invalid: {report.violations[:4]}")
    if lists is not None and any(color not in lst for color, lst in zip(c, lists)):
        raise AssertionError("constructed labelling leaves its lists")
    return dict(zip(_elements(g), c))


def _least(colors) -> int:
    if not colors:
        raise AssertionError("no color available where the counting bound promised one")
    return min(colors)


# --- paths and trees ----------------------------------------------------------


def _greedy_from(g: Graph, p: int, lists: list, root: int) -> list:
    """Color the root of the tree g, then from each colored vertex u each
    uncolored neighbour w: first the edge uw, then w, least available color.

    The edge avoids the ball of c(u) and the colors of u's colored edges; w
    avoids c(u) and the ball of c(uw). Each element is colored once, from its
    parent u, and sees only colors at u, all fixed before u is visited except
    those of u's earlier child edges, which u colors itself in adjacency
    order. So the order in which vertices are visited changes no color.
    """
    edge_at = _edge_positions(g)
    c: list = [None] * len(lists)
    edge_colors: list[list[int]] = [[] for _ in range(g.n)]
    c[root] = _least(lists[root])
    stack = [root]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if c[w] is not None:
                continue
            e = edge_at[u, w]
            c[e] = _least(set(lists[e]) - p_ball(c[u], p) - set(edge_colors[u]))
            edge_colors[u].append(c[e])
            edge_colors[w].append(c[e])
            c[w] = _least(set(lists[w]) - {c[u]} - p_ball(c[e], p))
            stack.append(w)
    return c


def label_path_greedy(g: Graph, p: int, lists: dict) -> dict:
    """Color a path from its lower end with the tree greedy, least available color.

    Each element after the first sees at most 2p forbidden colors (the
    previous element's color plus the separation ball of the element it is
    incident to), so lists of size 2p+1 never run dry: at Delta = 2 this is
    the tree bound.
    """
    if p < 1:
        raise ValueError("the sequential greedy needs p >= 1")
    if g.m != g.n - 1 or g.max_degree > 2 or not g.is_connected():
        raise ValueError("graph is not a path")
    lists = check_lists(g, lists, minimum=2 * p + 1)
    end = next(v for v in range(g.n) if g.degree(v) <= 1)
    return _checked_output(g, p, _greedy_from(g, p, lists, end), lists)


def label_tree_dfs(g: Graph, p: int, lists: dict) -> dict:
    """Tree greedy from vertex 0: color the root, then each edge before its child.

    When stepping from u to child w along e, the edge avoids the ball of
    c(u) and the colors of u's already-colored edges (at most
    Delta-1 + 2p-1 colors); the child then avoids c(u) and the ball of c(e)
    (at most 2p colors). Lists of size max(Delta,2)+2p-1 always suffice.
    """
    if p < 1:
        raise ValueError("the depth-first greedy needs p >= 1")
    if g.m != g.n - 1 or not g.is_connected():
        raise ValueError("graph is not a tree")
    # the single-vertex tree is unconstrained; otherwise the subdivision
    # argument needs max(Delta, 2), which differs from Delta only for the
    # one-edge tree
    need = 1 if g.m == 0 else max(g.max_degree, 2) + 2 * p - 1
    lists = check_lists(g, lists, minimum=need)
    return _checked_output(g, p, _greedy_from(g, p, lists, 0), lists)


# --- stars --------------------------------------------------------------------


def _star_shape(g: Graph) -> tuple[int, list[int]]:
    center = max(range(g.n), key=lambda v: (g.degree(v), -v))
    leaves = sorted(v for v in range(g.n) if v != center)
    if g.degree(center) != g.n - 1 or any(g.degree(v) != 1 for v in leaves):
        raise ValueError("graph is not a star")
    return center, leaves


def _protected_edge_coloring(order: list[int], avail: dict, n: int) -> dict | None:
    """Greedy minimum-color edge coloring that shields one slack-rich edge.

    Repeatedly takes the global minimum m of the uncolored lists and gives it
    to an edge other than the protected one whenever some other edge holds m;
    when the protected edge is forced, protection moves to an uncolored edge
    that still has at least n-i colors. Returns None if stranded.
    """
    remaining = {e: set(avail[e]) for e in order}
    uncolored = list(order)
    protected = next((e for e in order if len(remaining[e]) >= n), None)
    if protected is None:
        return None
    colors: dict = {}
    for i in range(1, n + 1):
        union = set().union(*(remaining[e] for e in uncolored))
        if not union:
            return None
        m = min(union)
        holders = [e for e in uncolored if m in remaining[e]]
        others = [e for e in holders if e != protected]
        chosen = others[0] if others else holders[0]
        colors[chosen] = m
        uncolored.remove(chosen)
        if i == n:
            break
        for e in uncolored:
            remaining[e].discard(m)
        if chosen == protected:
            fresh = [e for e in uncolored if len(remaining[e]) >= n - i]
            if not fresh:
                return None
            protected = fresh[0]
    return colors


def label_star_list(g: Graph, p: int, lists: dict) -> dict:
    """Star labeller from lists of size n+2p-1 (center degree n >= 3, p >= 2).

    Tries center colors in ascending list order. For each candidate alpha the
    edge lists lose the ball of alpha; as long as some reduced edge list
    keeps n colors, the protected-edge coloring places all edges and every
    leaf still has a color left. If every center color fails, something
    impossible happened and TheoremViolation is raised.
    """
    if p < 2:
        raise ValueError("the star routine needs p >= 2")
    center, leaves = _star_shape(g)
    n = len(leaves)
    if n < 3:
        raise ValueError("the star routine needs at least 3 leaves")
    lists = check_lists(g, lists, minimum=n + 2 * p - 1)
    edge_at = _edge_positions(g)
    order = [edge_at[center, v] for v in leaves]
    for alpha in sorted(lists[center]):
        reduced = {e: set(lists[e]) - p_ball(alpha, p) for e in order}
        if not any(len(reduced[e]) >= n for e in order):
            continue
        edge_colors = _protected_edge_coloring(order, reduced, n)
        if edge_colors is None:
            continue
        c: list = [None] * len(lists)
        c[center] = alpha
        for e, color in edge_colors.items():
            c[e] = color
        for v, e in zip(leaves, order):
            pool = set(lists[v]) - {alpha} - p_ball(c[e], p)
            if not pool:
                break
            c[v] = min(pool)
        else:
            return _checked_output(g, p, c, lists)
    raise TheoremViolation(
        f"star with {n} leaves and p={p}: no center color admitted the "
        "protected-edge coloring; lists="
        f"{ {element_name(x): sorted(v) for x, v in zip(elements_of(g), lists)} }"
    )


def label_star_span(n: int, p: int) -> dict:
    """Minimum-range labelling of the star with n leaves, colors from 1.

    For p < n the closed form uses colors {1..n+p}: center n+p, edge j gets
    j, leaf j gets p+j except the last leaf which wraps to 1. For p >= n the
    optimum range has n+p+1 colors and is found by the exact solver, shifted
    to {1..n+p+1}.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    g = make_star(n)
    if p < n:
        # vertex j at j, then edge 0-j at n+j
        c = [n + p, *(p + j for j in range(1, n)), 1, *range(1, n + 1)]
    else:
        result = solve_span(g, p, n + p)
        if not result.labelled:
            raise TheoremViolation(f"star with {n} leaves, p={p}: range n+p+1 infeasible")
        c = [result.labelling[x] + 1 for x in elements_of(g)]
    return _checked_output(g, p, c)


# --- outerplanar graphs ---------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    v: int
    u: int


@dataclass(frozen=True)
class C1:
    u: int
    v: int


@dataclass(frozen=True)
class C2:
    u: int
    v1: int
    v2: int


@dataclass(frozen=True)
class C3:
    x: int
    u1: int
    v1: int
    u2: int
    v2: int


Configuration = Leaf | C1 | C2 | C3


def _scan_configuration(adj: dict, buckets: dict) -> Configuration | None:
    """Deterministic scan for a reducible configuration.

    Priority: a degree-1 vertex; then an edge joining two degree-2 vertices;
    then a triangle through a degree-2 vertex with a degree-3 corner; then a
    degree-4 hub carrying two vertex-disjoint triangles through degree-2
    vertices. buckets[d] holds the vertices of degree d in adj, for d in 1,
    2 and 4, the only degrees a configuration starts from; each is walked in
    ascending order.
    """
    if buckets[1]:
        v = min(buckets[1])
        return Leaf(v, next(iter(adj[v])))
    twos = sorted(buckets[2])
    for u in twos:
        for v in sorted(adj[u]):
            if v > u and v in buckets[2]:
                return C1(u, v)
    for u in twos:
        a, b = sorted(adj[u])
        if b in adj[a]:
            if len(adj[a]) == 3:
                return C2(u, a, b)
            if len(adj[b]) == 3:
                return C2(u, b, a)
    for x in sorted(buckets[4]):
        pairs = []
        for u in sorted(adj[x]):
            if u not in buckets[2]:
                continue
            other = next(w for w in adj[u] if w != x)
            if other in adj[x]:
                pairs.append((u, other))
        for (u1, v1), (u2, v2) in combinations(pairs, 2):
            if {u1, v1}.isdisjoint({u2, v2}):
                return C3(x, u1, v1, u2, v2)
    return None


def _reductions(adj: dict):
    """Peel configurations off adj, in place, while there is one, and yield
    each before it goes. The first two fields of each name the edge it
    removes, and a leaf goes with its edge."""
    buckets = {d: {v for v, nbs in adj.items() if len(nbs) == d} for d in (1, 2, 4)}
    while (step := _scan_configuration(adj, buckets)) is not None:
        yield step
        a, b, *_ = vars(step).values()
        for w, other in ((a, b), (b, a)):
            d = len(adj[w])
            adj[w].remove(other)
            if d in buckets:
                buckets[d].remove(w)
            if d - 1 in buckets:
                buckets[d - 1].add(w)
        if type(step) is Leaf:
            del adj[a]


def find_configuration(g: Graph) -> Configuration | None:
    """Locate a reducible configuration; None means none is present.

    On a connected graph with minimum degree 1 this always returns a Leaf;
    every outerplanar graph with minimum degree 2 contains one of the other
    three shapes.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    return next(_reductions({v: set(g.adj[v]) for v in range(g.n)}), None)


@dataclass
class OuterplanarAudit:
    """Trace of one outerplanar labelling run.

    steps records each reduction with its reduced-list sizes; the counters
    track the rare repair paths of the degree-4 hub case. restricted_solves
    counts the C3 steps left with no pair after the interchange, each of which
    goes on to a full re-solve (full_resolves); reaching one is treated as a
    research event by the experiment harness.
    """

    steps: list = field(default_factory=list)
    interchanges: int = 0
    invalid_swaps: int = 0
    restricted_solves: int = 0
    full_resolves: int = 0

    @property
    def fallbacks(self) -> int:
        return self.restricted_solves + self.full_resolves


def _audit_bound(
    audit: OuterplanarAudit, kind: str, roles: tuple, sizes: dict, bounds: dict
) -> None:
    audit.steps.append({"kind": kind, "roles": list(roles), "sizes": dict(sizes)})
    for name, minimum in bounds.items():
        if sizes[name] < minimum:
            raise AssertionError(
                f"{kind} at {roles}: reduced list {name} has {sizes[name]} colors, "
                f"below the bound {minimum}"
            )


def _find_pair(vert_pool: set, edge_pool: set, p: int) -> tuple[int, int] | None:
    for a in sorted(vert_pool):
        for b in sorted(edge_pool):
            if abs(a - b) >= p:
                return a, b
    return None


class _Rebuilder:
    """Working state for the outerplanar extension phase.

    Holds the partially rebuilt graph as an adjacency dict, the growing
    labelling and the fixed lists by element position of g, and the audit
    counters. Each reduction kind has a method that re-inserts and colors its
    piece; when it is called, adj is the graph right after that reduction.
    """

    def __init__(self, g: Graph, p: int, lists: list, audit: OuterplanarAudit,
                 adj: dict, c: list):
        self.g = g
        self.p = p
        self.lists = lists
        self.audit = audit
        self.adj = adj
        self.c = c
        self.edge_at = _edge_positions(g)
        self.resolved_whole_graph = False

    def _add_edge(self, u, v):
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def extend_leaf(self, v, u):
        c, p = self.c, self.p
        self._add_edge(v, u)
        e = self.edge_at[v, u]
        at_u = {c[self.edge_at[u, nb]] for nb in self.adj[u] if nb != v}
        pool_e = set(self.lists[e]) - at_u - p_ball(c[u], p)
        _audit_bound(self.audit, "leaf", (v, u), {"edge": len(pool_e)}, {"edge": 1})
        c[e] = _least(pool_e)
        c[v] = _least(set(self.lists[v]) - {c[u]} - p_ball(c[e], p))

    def extend_c1(self, u, v):
        c, p, edge_at = self.c, self.p, self.edge_at
        (x,), (y,) = self.adj[u], self.adj[v]  # each had degree 2
        self._add_edge(u, v)
        e = edge_at[u, v]
        c[u] = c[v] = None
        eu, ev = edge_at[u, x], edge_at[v, y]
        pool_u = set(self.lists[u]) - {c[x]} - p_ball(c[eu], p)
        pool_v = set(self.lists[v]) - {c[y]} - p_ball(c[ev], p)
        pool_e = set(self.lists[e]) - {c[eu], c[ev]}
        _audit_bound(
            self.audit, "c1", (u, v),
            {"u": len(pool_u), "v": len(pool_v), "edge": len(pool_e)},
            {"u": p + 2, "v": p + 2, "edge": 3 * p},
        )
        m = min(pool_u | pool_v | pool_e)
        if m not in pool_u and m not in pool_v:
            # the minimum lives on the edge only: place it there, both ends
            # then lose at most p-1 colors each
            c[e] = m
            c[u] = _least(pool_u - p_ball(m, p))
            c[v] = _least(pool_v - p_ball(m, p) - {c[u]})
            return
        if m in pool_u:
            first, second, spool = u, v, pool_v
        else:
            first, second, spool = v, u, pool_u
        c[first] = m
        spool2 = spool - {m}
        epool2 = pool_e - p_ball(m, p)
        m1 = min(spool2 | epool2)
        if m1 in spool2:
            c[second] = m1
            c[e] = _least(epool2 - p_ball(m1, p))
        else:
            c[e] = m1
            c[second] = _least(spool2 - p_ball(m1, p))

    def extend_c2(self, u, v1, v2):
        c, p, edge_at = self.c, self.p, self.edge_at
        z = next(w for w in self.adj[v1] if w != v2)  # v1 had degree 3: u, v2 and z
        self._add_edge(u, v1)
        e = edge_at[u, v1]
        c[u] = None
        pool_u = set(self.lists[u]) - {c[v1], c[v2]} - p_ball(c[edge_at[u, v2]], p)
        pool_e = (
            set(self.lists[e])
            - {c[edge_at[v1, z]], c[edge_at[v1, v2]], c[edge_at[u, v2]]}
            - p_ball(c[v1], p)
        )
        _audit_bound(
            self.audit, "c2", (u, v1, v2),
            {"u": len(pool_u), "edge": len(pool_e)},
            {"u": p + 1, "edge": p},
        )
        m = min(pool_u | pool_e)
        if m in pool_e:
            c[e] = m
            c[u] = _least(pool_u - p_ball(m, p))
        else:
            c[u] = m
            c[e] = _least(pool_e - p_ball(m, p))

    def _c3_pools(self, x, u1, v1, u2, v2):
        c, p, edge_at = self.c, self.p, self.edge_at
        pool_u = set(self.lists[u1]) - {c[v1], c[x]} - p_ball(c[edge_at[u1, v1]], p)
        pool_e = (
            set(self.lists[edge_at[x, u1]])
            - {c[edge_at[x, v1]], c[edge_at[u1, v1]], c[edge_at[x, v2]], c[edge_at[x, u2]]}
            - p_ball(c[x], p)
        )
        return pool_u, pool_e

    def extend_c3(self, x, u1, v1, u2, v2):
        c, p, edge_at = self.c, self.p, self.edge_at
        self._add_edge(x, u1)
        e = edge_at[x, u1]
        c[u1] = None
        pool_u, pool_e = self._c3_pools(x, u1, v1, u2, v2)
        _audit_bound(
            self.audit, "c3", (x, u1, v1, u2, v2),
            {"u1": len(pool_u), "edge": len(pool_e)},
            {"u1": p + 1, "edge": p - 1},
        )
        pair = _find_pair(pool_u, pool_e, p)
        if pair is not None:
            c[u1], c[e] = pair
            return
        # the partly rebuilt graph, whose ends of unrestored edges may share a
        # color, and the position in g of each of its element positions
        working = Graph(self.g.n, ((u, v) for u, nbs in self.adj.items() for v in nbs))
        in_g = [*range(self.g.n), *(edge_at[uv] for uv in working.sorted_edges())]
        # tight case: swap the colors of the hub-side and far-side edges at
        # v1. The color multiset at v1 is unchanged; still, the swap is
        # verified before being trusted, and reverted if it breaks anything.
        e_hub, e_far = edge_at[x, v1], edge_at[u1, v1]
        c[e_hub], c[e_far] = c[e_far], c[e_hub]
        self.audit.interchanges += 1
        if is_valid(working, p, [c[i] for i in in_g]).ok:
            pair = _find_pair(*self._c3_pools(x, u1, v1, u2, v2), p)
        else:
            c[e_hub], c[e_far] = c[e_far], c[e_hub]
            self.audit.invalid_swaps += 1
        if pair is not None:
            c[u1], c[e] = pair
            return
        # still no pair. With every other element pinned, u1 and the hub edge
        # see exactly these two pools, so a solve of just those two would fail
        # as well. Re-solve the whole instance; a failure here would contradict
        # the list-size guarantee
        self.audit.restricted_solves += 1
        self.audit.full_resolves += 1
        full = solve_list(self.g, p, self.lists)
        if not full.labelled:
            raise TheoremViolation(
                f"outerplanar with Delta={self.g.max_degree}, p={p}: the full "
                "instance has no list-respecting labelling"
            )
        self.c = [full.labelling[x] for x in elements_of(self.g)]
        self.resolved_whole_graph = True


def label_outerplanar_list(
    g: Graph, p: int, lists: dict, audit: OuterplanarAudit | None = None
) -> dict:
    """Label an outerplanar graph from lists of size Delta+2p-1, Delta >= p+3.

    Outerplanarity is the caller's promise and is not verified (recognition
    is out of scope); a failure to find a reducible configuration is reported
    as a TheoremViolation since it implies the promise was broken. The list
    threshold is fixed by the ORIGINAL maximum degree and never shrinks as
    the reduction deletes edges and vertices, which may disconnect the
    working graph; that is fine, every remaining piece keeps a reducible
    shape and isolated vertices are simply colored with the edgeless core.
    """
    if p < 1:
        raise ValueError("the outerplanar routine needs p >= 1")
    if g.n == 0:
        raise ValueError("empty graph")
    delta = g.max_degree
    if delta < p + 3:
        raise ValueError(
            f"maximum degree {delta} below p+3={p + 3}; use the exact list solver instead"
        )
    lists = check_lists(g, lists, minimum=delta + 2 * p - 1)
    if audit is None:
        audit = OuterplanarAudit()

    adj: dict[int, set[int]] = {v: set(g.adj[v]) for v in range(g.n)}

    # reduction phase: peel configurations while there is one
    steps = list(_reductions(adj))
    if any(adj.values()):
        raise TheoremViolation(
            "no reducible configuration in a working graph of minimum degree >= 2; "
            "the input cannot be outerplanar"
        )

    # edgeless core: least color of each remaining vertex's list
    core = [min(lists[i]) if i in adj else None for i in range(len(lists))]

    # extension phase: undo the reductions last-first, so each step sees its
    # own reduced graph fully labelled
    rebuilder = _Rebuilder(g, p, lists, audit, adj, core)
    extend = {Leaf: rebuilder.extend_leaf, C1: rebuilder.extend_c1,
              C2: rebuilder.extend_c2, C3: rebuilder.extend_c3}
    for step in reversed(steps):
        extend[type(step)](*vars(step).values())
        if rebuilder.resolved_whole_graph:
            break
    return _checked_output(g, p, rebuilder.c, lists)
