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
All four routines work on bitmask lists, the encoding of the exact search:
bit i stands for the i-th color of the lists' union.
Every returned labelling is re-validated unconditionally. A local counting
bound that fails raises AssertionError (_lowest, _audit_bound); a failed
whole-instance guarantee raises TheoremViolation, a reportable research event
rather than an expected error path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, make_star
from .labelling import (
    _checked_labelling,
    _color_masks,
    _edge_positions,
    check_lists,
    element_name,
    elements_of,
    is_valid,
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


def _lowest(mask: int) -> int:
    """The rank of the least color in a nonempty mask."""
    if not mask:
        raise AssertionError("no color available where the counting bound promised one")
    return (mask & -mask).bit_length() - 1


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
    values, near, masks = _color_masks(lists, p)
    edge_at = _edge_positions(g)
    c: list = [None] * len(lists)
    used = [0] * g.n  # the colors on each vertex's colored edges
    c[root] = _lowest(masks[root])
    stack = [root]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if c[w] is not None:
                continue
            e = edge_at[u, w]
            ce = c[e] = _lowest(masks[e] & ~near[c[u]] & ~used[u])
            used[u] |= 1 << ce
            used[w] |= 1 << ce
            c[w] = _lowest(masks[w] & ~(1 << c[u]) & ~near[ce])
            stack.append(w)
    return [values[i] for i in c]


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
    return _checked_labelling(g, p, _greedy_from(g, p, lists, end), lists)


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
    return _checked_labelling(g, p, _greedy_from(g, p, lists, 0), lists)


# --- stars --------------------------------------------------------------------


def _star_shape(g: Graph) -> tuple[int, list[int]]:
    center = max(range(g.n), key=lambda v: (g.degree(v), -v))
    leaves = sorted(v for v in range(g.n) if v != center)
    if g.degree(center) != g.n - 1 or any(g.degree(v) != 1 for v in leaves):
        raise ValueError("graph is not a star")
    return center, leaves


def _protected_edge_coloring(remaining: dict) -> dict | None:
    """Greedy minimum-color edge coloring that shields the first uncolored edge.

    remaining maps each edge, in order, to the mask of its colors. Repeatedly
    gives the least color m of the uncolored masks to the first uncolored edge
    only when no other uncolored edge holds m. When every mask starts with at
    least one color per edge, as label_star_list's reduced edge lists do, the
    first uncolored edge keeps one per uncolored edge: each step takes at most
    one color from a mask, and none from the others when it colors the first
    edge. Returns the rank of each edge's color, or None if stranded.
    """
    uncolored = list(remaining)
    colors: dict = {}
    while uncolored:
        union = 0
        for e in uncolored:
            union |= remaining[e]
        if not union:
            return None
        low = union & -union
        chosen = next((e for e in uncolored[1:] if remaining[e] & low), uncolored[0])
        colors[chosen] = low.bit_length() - 1
        uncolored.remove(chosen)
        for e in uncolored:
            remaining[e] &= ~low
    return colors


def label_star_list(g: Graph, p: int, lists: dict) -> dict:
    """Star labeller from lists of size n+2p-1 (center degree n >= 3, p >= 2).

    The center takes its least color alpha. Each edge list loses the at most
    2p-1 colors of alpha's ball and keeps at least n, so the protected-edge
    coloring places all n edges, and every leaf, which loses at most 2p
    colors, still has one left. A stranded edge coloring is impossible and
    raises TheoremViolation.
    """
    if p < 2:
        raise ValueError("the star routine needs p >= 2")
    center, leaves = _star_shape(g)
    n = len(leaves)
    if n < 3:
        raise ValueError("the star routine needs at least 3 leaves")
    lists = check_lists(g, lists, minimum=n + 2 * p - 1)
    values, near, masks = _color_masks(lists, p)
    edge_at = _edge_positions(g)
    order = [edge_at[center, v] for v in leaves]
    alpha = _lowest(masks[center])
    edge_colors = _protected_edge_coloring({e: masks[e] & ~near[alpha] for e in order})
    if edge_colors is None:
        raise TheoremViolation(
            f"star with {n} leaves and p={p}: the center's least color left the "
            "protected-edge coloring stranded; lists="
            f"{ {element_name(x): sorted(v) for x, v in zip(elements_of(g), lists)} }"
        )
    c: list = [None] * len(lists)
    c[center] = alpha
    for v, e in zip(leaves, order):
        r = c[e] = edge_colors[e]
        c[v] = _lowest(masks[v] & ~(1 << alpha) & ~near[r])
    return _checked_labelling(g, p, [values[r] for r in c], lists)


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
    return _checked_labelling(g, p, c)


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
    first_c2 = None
    for u in sorted(buckets[2]):
        a, b = adj[u]
        if a > b:
            a, b = b, a
        for v in (a, b):
            if v > u and v in buckets[2]:
                return C1(u, v)
        if first_c2 is None and b in adj[a]:
            if len(adj[a]) == 3:
                first_c2 = C2(u, a, b)
            elif len(adj[b]) == 3:
                first_c2 = C2(u, b, a)
    if first_c2 is not None:
        return first_c2
    for x in sorted(buckets[4]):
        pairs = []
        for u in sorted(adj[x]):
            if u not in buckets[2]:
                continue
            other = next(w for w in adj[u] if w != x)
            if other in adj[x]:
                pairs.append((u, other))
        for (u1, v1), (u2, v2) in combinations(pairs, 2):
            if u1 != v2 and v1 != u2 and v1 != v2:  # u1 != u2 already
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
    track the rare repair paths of the degree-4 hub case. full_resolves
    counts the C3 steps left with no pair after the interchange, each of which
    re-solves the whole instance; reaching one is treated as a research event
    by the experiment harness.
    """

    steps: list = field(default_factory=list)
    interchanges: int = 0
    invalid_swaps: int = 0
    full_resolves: int = 0


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


def _least_apart(first: int, second: int, near: list) -> tuple[int, int]:
    """Ranks from two pools at distance >= p: the least color of either goes
    to the pool holding it, the first on a tie, and the other pool takes its
    least color outside that color's ball."""
    m = _lowest(first | second)
    if first >> m & 1:
        return m, _lowest(second & ~near[m])
    return _lowest(first & ~near[m]), m


def _c3_pair(c: list, near: list, masks: list, edge_at: dict, x, u1, v1, u2, v2):
    """The pools of u1 and the hub edge xu1, and the pair from them at distance
    >= p with the least u1 color, then the least edge color, or None."""
    pool_u = masks[u1] & ~(1 << c[v1] | 1 << c[x]) & ~near[c[edge_at[u1, v1]]]
    pool_e = masks[edge_at[x, u1]] & ~near[c[x]] & ~(
        1 << c[edge_at[x, v1]] | 1 << c[edge_at[u1, v1]]
        | 1 << c[edge_at[x, v2]] | 1 << c[edge_at[x, u2]])
    rest = pool_u
    while rest:
        a = _lowest(rest)
        if far := pool_e & ~near[a]:
            return pool_u, pool_e, (a, _lowest(far))
        rest &= rest - 1
    return pool_u, pool_e, None


def _extend(g: Graph, p: int, lists: list, audit: OuterplanarAudit, adj: dict, c: list,
            steps: list) -> list:
    """Undo steps last-first on adj, the graph left after all of them, and
    color each piece put back with its least admissible colors; each step
    sees its own reduced graph fully labelled. c holds the colors of adj's
    elements by position in g (None elsewhere), and may hold colors outside
    the lists. Returns the labelling of g by element position, in colors.

    The lists are masks over the union of their colors and those of c, and c
    is kept as ranks in that union.
    """
    values, near, masks = _color_masks([*lists, [color for color in c if color is not None]], p)
    c = [None if color is None else bisect_left(values, color) for color in c]
    edge_at = _edge_positions(g)
    for step in reversed(steps):
        a, b, *_ = roles = tuple(vars(step).values())
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
        e = edge_at[a, b]
        kind = type(step)
        if kind is Leaf:
            v, u = roles
            at_u = sum({1 << c[edge_at[u, nb]] for nb in adj[u] if nb != v})
            pool_e = masks[e] & ~at_u & ~near[c[u]]
            _audit_bound(audit, "leaf", roles, {"edge": pool_e.bit_count()}, {"edge": 1})
            c[e] = _lowest(pool_e)
            c[v] = _lowest(masks[v] & ~(1 << c[u]) & ~near[c[e]])
        elif kind is C1:
            u, v = roles
            (x,), (y,) = adj[u] - {v}, adj[v] - {u}  # each had degree 2
            c[u] = c[v] = None
            eu, ev = edge_at[u, x], edge_at[v, y]
            pool_u = masks[u] & ~(1 << c[x]) & ~near[c[eu]]
            pool_v = masks[v] & ~(1 << c[y]) & ~near[c[ev]]
            pool_e = masks[e] & ~(1 << c[eu] | 1 << c[ev])
            _audit_bound(
                audit, "c1", roles,
                {"u": pool_u.bit_count(), "v": pool_v.bit_count(), "edge": pool_e.bit_count()},
                {"u": p + 2, "v": p + 2, "edge": 3 * p},
            )
            m = _lowest(pool_u | pool_v | pool_e)
            if not (pool_u | pool_v) >> m & 1:
                # the minimum lives on the edge only: place it there, both
                # ends then lose at most p-1 colors each
                c[e] = m
                c[u] = _lowest(pool_u & ~near[m])
                c[v] = _lowest(pool_v & ~near[m] & ~(1 << c[u]))
                continue
            first, second, spool = (u, v, pool_v) if pool_u >> m & 1 else (v, u, pool_u)
            c[first] = m
            c[second], c[e] = _least_apart(spool & ~(1 << m), pool_e & ~near[m], near)
        elif kind is C2:
            u, v1, v2 = roles
            z = next(w for w in adj[v1] if w != v2 and w != u)  # v1 has degree 3
            c[u] = None
            pool_u = masks[u] & ~(1 << c[v1] | 1 << c[v2]) & ~near[c[edge_at[u, v2]]]
            pool_e = masks[e] & ~near[c[v1]] & ~(
                1 << c[edge_at[v1, z]] | 1 << c[edge_at[v1, v2]] | 1 << c[edge_at[u, v2]])
            _audit_bound(
                audit, "c2", roles,
                {"u": pool_u.bit_count(), "edge": pool_e.bit_count()},
                {"u": p + 1, "edge": p},
            )
            c[e], c[u] = _least_apart(pool_e, pool_u, near)
        else:
            x, u1, v1, u2, v2 = roles
            c[u1] = None
            pool_u, pool_e, pair = _c3_pair(c, near, masks, edge_at, *roles)
            _audit_bound(
                audit, "c3", roles,
                {"u1": pool_u.bit_count(), "edge": pool_e.bit_count()},
                {"u1": p + 1, "edge": p - 1},
            )
            if pair is None:
                # the partly rebuilt graph, whose ends of unrestored edges may
                # share a color, and the position in g of each of its element
                # positions
                working = Graph(g.n, ((u, v) for u, nbs in adj.items() for v in nbs))
                in_g = [*range(g.n), *(edge_at[uv] for uv in working.sorted_edges())]
                # tight case: swap the colors of the hub-side and far-side
                # edges at v1. The color multiset at v1 is unchanged; still,
                # the swap is verified before being trusted, and reverted if
                # it breaks anything.
                e_hub, e_far = edge_at[x, v1], edge_at[u1, v1]
                c[e_hub], c[e_far] = c[e_far], c[e_hub]
                audit.interchanges += 1
                if is_valid(working, p, [None if c[i] is None else values[c[i]]
                                         for i in in_g]).ok:
                    pair = _c3_pair(c, near, masks, edge_at, *roles)[2]
                else:
                    c[e_hub], c[e_far] = c[e_far], c[e_hub]
                    audit.invalid_swaps += 1
            if pair is None:
                # still no pair. With every other element pinned, u1 and the
                # hub edge see exactly these two pools, so a solve of just
                # those two would fail as well. Re-solve the whole instance;
                # a failure here would contradict the list-size guarantee
                audit.full_resolves += 1
                full = solve_list(g, p, lists)
                if not full.labelled:
                    raise TheoremViolation(
                        f"outerplanar with Delta={g.max_degree}, p={p}: the full "
                        "instance has no list-respecting labelling"
                    )
                return [full.labelling[el] for el in elements_of(g)]
            c[u1], c[e] = pair
    return [values[r] for r in c]


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
    return _checked_labelling(g, p, _extend(g, p, lists, audit, adj, core, steps), lists)
