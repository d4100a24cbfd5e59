"""Complete backtracking solvers and choosability certificates.

These are the ground-truth oracles the constructive labellers are checked
against. One search, with forward checking, most-constrained-element
ordering and a pigeonhole check on every neighbourhood, labels vertices with
distance-two constraints; a (p,1)-total instance is such an instance on
the once-subdivided graph, whose constraints are read off the graph itself.
The search keeps its own stack, so long inputs are not limited by Python's
recursion depth. On top of it sit the minimum span by an upward scan and
one witness loop, behind every choosability certificate, over normalized
or seeded random list assignments.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import random
from dataclasses import dataclass
from math import comb

from .graphs import Graph, emit_graph6, parse_graph6
from .labelling import (
    _checked_labelling,
    _color_masks,
    _edge_positions,
    _json_check,
    _json_colors,
    _json_elements,
    _json_loads,
    _shared,
    check_lists,
    element_key,
    element_name,
    elements_of,
    lp1_is_valid,
)

__all__ = [
    "SolveResult",
    "Certificate",
    "InstanceTooLarge",
    "solve_list",
    "solve_span",
    "min_span",
    "min_colors",
    "lp1_min_span",
    "element_automorphisms",
    "find_bad_assignment",
    "certify_choosable",
    "recheck_certificate",
]

# hard ceiling on raw enumeration work per witness search, independent of the
# solver-call budget, so lexicographic filters cannot spin unboundedly
_RAW_SCAN_CAP = 5_000_000
# exhaustive certification sweeps graphs of at most this many elements
_CERTIFY_MAX_ELEMENTS = 6
# brute-force automorphism search runs on graphs up to this many vertices
_AUTOMORPHISM_MAX_VERTICES = 8


class InstanceTooLarge(ValueError):
    """Exhaustive certification refused; the message names the limit exceeded."""


@dataclass
class SolveResult:
    labelling: dict | None
    nodes: int

    @property
    def labelled(self) -> bool:
        return self.labelling is not None


def _group_test(domains, near, p: int):
    """The neighbourhood check on the encoded domains, as fails(center, members).

    A group is an element c that has separation partners, with members
    seps[c]: the model's contract (see _solve) is that they must take
    pairwise distinct colors, each at least p away from c's. A group fails
    when its members' domains hold fewer colors than it has members, or when
    every candidate color of the center leaves too few of them. The check
    reads the domains list as it is at each call, so a search that changes
    the list in place tests its current domains.

    When every domain is the same mask, a group of d members has spare =
    V - d for the V colors of that mask, and the center's candidates and
    the colors near them are the same for every group. So the verdict
    depends on d alone and is monotone in it: spare only falls as d grows,
    so if a group fails, every larger one fails, and if the largest passes,
    all pass. fails(0, (0,) * d) over that one mask decides every group of
    d members (see _solve).
    """
    ball = 2 * p - 1  # colors in the open p-ball around a center color

    def fails(center: int, members: tuple[int, ...]) -> bool:
        colors = 0
        for j in members:
            colors |= domains[j]
        spare = colors.bit_count() - len(members)
        if spare < 0:
            return True
        if spare >= ball:
            return False
        rest = domains[center]
        while rest:
            low = rest & -rest
            if (colors & near[low.bit_length() - 1]).bit_count() <= spare:
                return False
            rest ^= low
        return True

    return fails


def _search(values, near, domains, neqs, seps, p: int):
    """Backtracking with forward checking; returns (assignment | None, nodes).

    values, near and domains are _color_masks's encoding: each domain is an
    int bitmask over the sorted union values of the colors in all domains
    (bit i is the i-th color), so sparse or huge colors cost no wider ints.
    Element i's color must differ from those of its inequality partners
    neqs[i] and lie at least p from those of its separation partners seps[i].
    Variable order: smallest current domain, ties broken by the number of
    unassigned partners (more first) and then element order; all
    deterministic. Value order: ascending color. The degree tie-break matters
    in practice: without it some dense two-dozen-element instances thrash
    through millions of nodes.

    The state is flat, so a node allocates no list or tuple: the stack is
    three int lists (element, untried colors as a mask, trail mark), and the
    trail one int list of (element, prior mask) pairs, taken back from its
    end down to the mark and cut there. live[i] counts i's unassigned
    partners and open_s[i] its unassigned separation partners.

    The caller has already passed every group through _group_test at the
    root (see _solve); the search checks, after each assignment, the groups
    that contain the assigned element var. A group is (c, seps[c]) for each
    c with separation partners, and separation is symmetric, so the groups
    holding var are its own and those of its separation partners. Only a
    group with two or more unassigned elements is checked; open_s[c] > 1
    already means that c has partners. One with fewer cannot fail: forward
    checking has made its assigned members distinct singletons, each at
    least p from the centre's color when that is assigned, and its one open
    element, if any, was pruned by all of them, so a color of it passes.
    The check removes no value, so it changes neither the order of the
    search nor its answer; it only cuts subtrees that hold no solution.

    A heap holds the keys, each packed into one int that sorts as (size,
    -unassigned partners, element) would, re-keyed lazily under the
    invariant that every unassigned element has an entry at or below its
    true key; so the least entry whose key is true is the least true key,
    and the order is that of a heap kept exact. A placement lowers only the
    keys of the partners it pruned, which are pushed (the trail after the
    mark); taking a color back lowers its partners' keys only until the
    next color is placed, so var and its partners are pushed once var's
    colors run out. A surfacing entry is dropped if its element is
    assigned, replaced by the true key if it is lower, and selects its
    element if it is true. The heap is rebuilt from the true keys once it
    holds more than 4*elements+64 entries, so its memory stays linear. The
    search runs on an explicit stack, so its depth is not bounded by
    Python's recursion limit. It changes the domains list in place.
    """
    fails = _group_test(domains, near, p)
    count = len(domains)
    if not count:
        return [], 0
    assigned: list[int | None] = [None] * count
    live = [len(a) + len(b) for a, b in zip(neqs, seps)]
    open_s = [*map(len, seps)]
    # key = size << sb | (top - live) << ib | i orders as (size, -live, i) does
    ib = count.bit_length()
    top = max(live)
    sb, imask = ib + top.bit_length(), (1 << ib) - 1
    heap = [domains[i].bit_count() << sb | (top - live[i]) << ib | i for i in range(count)]
    heapq.heapify(heap)
    heap_cap = 4 * count + 64
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace

    nodes = 0
    trail: list[int] = []
    # the ancestors' frames: element, untried colors, trail mark
    var_at: list[int] = []
    rest_at: list[int] = []
    mark_at: list[int] = []
    var = heap[0] & imask
    rest, mark = domains[var], 0
    while True:
        if len(trail) > mark:  # take back var's color: it failed, or its subtree did
            for t in range(len(trail) - 2, mark - 1, -2):
                domains[trail[t]] = trail[t + 1]
            del trail[mark:]
            for j in neqs[var]:
                live[j] += 1
            for j in seps[var]:
                live[j] += 1
                open_s[j] += 1
            assigned[var] = None
        if not rest:  # var and its partners are open again, and their keys may have fallen
            if not var_at:
                return None, nodes
            heappush(heap, domains[var].bit_count() << sb | (top - live[var]) << ib | var)
            for j in neqs[var]:
                if assigned[j] is None:
                    heappush(heap, domains[j].bit_count() << sb | (top - live[j]) << ib | j)
            for j in seps[var]:
                if assigned[j] is None:
                    heappush(heap, domains[j].bit_count() << sb | (top - live[j]) << ib | j)
            var, rest, mark = var_at.pop(), rest_at.pop(), mark_at.pop()
            continue
        low = rest & -rest
        rest ^= low
        nodes += 1
        # place var at the color of bit low and prune its unassigned
        # partners; once a domain is empty the rest are only counted
        at = low.bit_length() - 1
        assigned[var] = values[at]
        trail.append(var)
        trail.append(domains[var])
        domains[var] = low
        ok = True
        other = ~low
        for j in neqs[var]:
            live[j] -= 1
            if ok and assigned[j] is None:
                dom = domains[j]
                kept = dom & other
                if kept != dom:
                    trail.append(j)
                    trail.append(dom)
                    domains[j] = kept
                    ok = kept != 0
        apart = ~near[at]
        for j in seps[var]:
            live[j] -= 1
            open_s[j] -= 1
            if ok and assigned[j] is None:
                dom = domains[j]
                kept = dom & apart
                if kept != dom:
                    trail.append(j)
                    trail.append(dom)
                    domains[j] = kept
                    ok = kept != 0
        if not ok or open_s[var] > 1 and fails(var, seps[var]):
            continue
        for c in seps[var]:
            if open_s[c] + (assigned[c] is None) > 1 and fails(c, seps[c]):
                break
        else:
            # var keeps this color: only the partners it pruned have lower keys
            for t in range(mark + 2, len(trail), 2):
                j = trail[t]
                heappush(heap, domains[j].bit_count() << sb | (top - live[j]) << ib | j)
            if len(heap) > heap_cap:
                heap = [domains[i].bit_count() << sb | (top - live[i]) << ib | i
                        for i in range(count) if assigned[i] is None]
                heapq.heapify(heap)
            while heap:
                key = heap[0]
                i = key & imask
                if assigned[i] is not None:
                    heappop(heap)
                    continue
                fresh = domains[i].bit_count() << sb | (top - live[i]) << ib | i
                if key == fresh:
                    break
                heapreplace(heap, fresh)
            else:
                return list(assigned), nodes
            var_at.append(var)
            rest_at.append(rest)
            mark_at.append(mark)
            var, rest, mark = i, domains[i], len(trail)


@functools.lru_cache(maxsize=1)
def _lp1_model(g: Graph):
    """The (neqs, seps) of g's vertex labelling, built in one pass.

    neqs[v] holds the vertices at distance exactly two from v, which must
    take colors other than v's, linked through each common neighbour in
    turn; seps[v] is g.adj[v], the vertices whose colors must lie at least p
    from v's. Which kind the search prunes first changes neither its nodes
    nor its answer. The contract of _solve holds because the vertex solver
    takes p >= 1: two neighbours of v are at distance two, or adjacent and
    so at least p apart. The model is returned as tuples and kept for the
    next call on an equal graph, so the steps of a min-span scan share one.
    """
    neqs: list[list[int]] = [[] for _ in range(g.n)]
    seen = [{v, *members} for v, members in enumerate(g.adj)]  # linked or adjacent
    for members in g.adj:
        for a, b in itertools.combinations(members, 2):
            if b not in seen[a]:
                seen[a].add(b)
                seen[b].add(a)
                neqs[a].append(b)
                neqs[b].append(a)
    return tuple(map(tuple, neqs)), g.adj


@functools.lru_cache(maxsize=1)
def _total_model(g: Graph):
    """_lp1_model of the once-subdivided graph, read off g in one pass over
    its sorted edges: (neqs, seps) as tuples. A vertex w must differ from
    its neighbours (neqs[w] is g.adj[w]) and lie p away from its edges
    (seps[w], their positions); an edge j = (u, v) must differ from the
    other edges at u, then those at v, and lie p away from its ends
    (seps[j] = (u, v)). The contract of _solve holds at every p: the
    members of seps[c] are edges at one vertex, or the two ends of an edge,
    so they are inequality partners. Kept for the next call on an equal
    graph."""
    n, edges = g.n, g.sorted_edges()
    at: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges, n):
        at[u].append(j)
        at[v].append(j)
    seps = (*map(tuple, at), *edges)
    del at  # kept alive, these lists set off gen-0 collections in the loop below
    neqs = [*g.adj]
    for j, (u, v) in enumerate(edges, n):
        others = [*seps[u], *seps[v]]  # the other edges at u, then those at v
        others.remove(j)
        others.remove(j)
        neqs.append(tuple(others))
    return tuple(neqs), seps


def _solve(domains, p: int, largest: int, model):
    """Root-first labelling from the domains under the (neqs, seps) that
    model() returns; largest is the member count of the largest group.
    Returns (assignment | None, nodes).

    The model's contract: when c has separation partners, (c, seps[c]) is a
    group, and its members must take pairwise distinct colors. The domains
    are encoded once with _color_masks, and the groups are checked at the
    root by _group_test, which reads only the masks and the groups. When
    every domain is one shared object, every group of d members sees the
    same colors, so its verdict depends on d alone, and a larger d only
    leaves fewer spare colors: one test of a group of largest members
    decides them all, and its refutation returns before model() is called.
    Otherwise the model is built, distinct domains take the test of every
    group, and _search runs when all pass; it builds its own state (partner
    counts, heap), so a root refutation takes 0 nodes and builds none of it.
    """
    shared = _shared(domains)
    values, near, masks = _color_masks(domains, p, shared)
    fails = _group_test(masks, near, p)
    if shared and largest and fails(0, (0,) * largest):
        return None, 0
    neqs, seps = model()
    if not shared:
        for c, members in enumerate(seps):
            if members and fails(c, members):
                return None, 0
    return _search(values, near, masks, neqs, seps, p)


def solve_list(g: Graph, p: int, lists) -> SolveResult:
    """Complete search for a list-respecting (p,1)-total labelling.

    The lists are a dict keyed by element or a list of color sets by element
    position (vertex v at v, the j-th sorted edge at n+j), as check_lists
    takes them. The search runs on _total_model(g), the once-subdivided
    graph's model read off g, and keeps each domain as a bitmask over the
    colors in all lists. The neighbourhood check runs first, on each
    element's group of separation partners (see _solve), so lists it
    refutes cost no search state. When every element has the same list
    object (solve_span's range, full_lists), the check is one test of the
    largest group, a vertex with its Delta edges or an edge with its two
    ends, read off g.adj (see _solve), and its refutation builds no model;
    distinct list objects build the model before their check. The returned
    labelling, when present, is re-checked against the direct validity
    predicate and the lists before being handed back.
    """
    if p < 0:
        raise ValueError("separation p must be non-negative")
    given = check_lists(g, lists)
    largest = max(g.max_degree, 2) if g.m else 0
    assignment, nodes = _solve(given, p, largest, lambda: _total_model(g))
    if assignment is None:
        return SolveResult(None, nodes)
    return SolveResult(_checked_labelling(g, p, assignment, given), nodes)


def solve_span(g: Graph, p: int, k: int) -> SolveResult:
    """Search for a (p,1)-total labelling into the color range {0..k}."""
    if k < 0:
        raise ValueError("max color k must be non-negative")
    return solve_list(g, p, [range(k + 1)] * (g.n + g.m))


def lp1_solve_span(g: Graph, p: int, k: int) -> SolveResult:
    """Vertex labelling into {0..k}: adjacent >= p apart, distance-2 distinct.
    Needs p >= 1, where each neighbourhood must take distinct colors."""
    if p < 1 or k < 0:
        raise ValueError("p must be positive and k non-negative")
    assignment, nodes = _solve([range(k + 1)] * g.n, p, g.max_degree, lambda: _lp1_model(g))
    if assignment is None:
        return SolveResult(None, nodes)
    labels = dict(enumerate(assignment))
    if not lp1_is_valid(g, p, labels).ok:
        raise AssertionError("vertex-labelling solver produced an invalid labelling")
    return SolveResult(labels, nodes)


def _least_span(solve, g: Graph, p: int, k: int) -> tuple[int, SolveResult]:
    """Least span from k upward at which solve(g, p, span) finds a labelling,
    with the result of that solve."""
    while not (result := solve(g, p, k)).labelled:
        k += 1
    return k, result


def _span_lower_bound(g: Graph, p: int) -> int:
    if g.m == 0:
        return 0
    # a maximum-degree vertex forces Delta mutually distinct edge colors all
    # at distance >= p from its own color
    return g.max_degree - 1 if p == 0 else g.max_degree + p - 1


def _min_span_scan(g: Graph, p: int) -> tuple[int, SolveResult]:
    if g.n == 0:
        raise ValueError("empty graph has no labelling number")
    return _least_span(solve_span, g, p, max(0, _span_lower_bound(g, p)))


def min_span(g: Graph, p: int) -> int:
    """Least k admitting a labelling into {0..k}, by linear scan from below.

    The scan always terminates: every graph has a labelling of span at most
    2*Delta + p - 1.
    """
    return _min_span_scan(g, p)[0]


def min_colors(g: Graph, p: int) -> int:
    """Number of colors needed: the span plus one."""
    return min_span(g, p) + 1


def lp1_min_span(g: Graph, p: int) -> int:
    if g.n == 0:
        raise ValueError("empty graph")
    return _least_span(lp1_solve_span, g, p, 0 if g.m == 0 else max(p, g.max_degree - 1))[0]


# --- normalized-assignment enumeration ----------------------------------------


@functools.lru_cache(maxsize=3)
def element_automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Element-index permutations induced by graph automorphisms.

    Element i is vertex i of the once-subdivided graph. Brute force over
    vertex permutations; beyond _AUTOMORPHISM_MAX_VERTICES only the identity
    is returned (enumeration callers are desk-scale anyway). The last three
    graphs' groups are kept, so every p of a hunt trial shares one, and a
    general hunt, whose trials cycle tree, star and path, keeps its star's
    and its path's across the cycle.
    """
    if g.n > _AUTOMORPHISM_MAX_VERTICES:
        return (tuple(range(g.n + g.m)),)
    edge_at = _edge_positions(g)
    edges = g.sorted_edges()
    perms = []
    for sigma in itertools.permutations(range(g.n)):
        mapping = list(sigma)
        for u, v in edges:
            image = edge_at.get((sigma[u], sigma[v]))
            if image is None:
                break
            mapping.append(image)
        else:
            perms.append(tuple(mapping))
    return tuple(perms)


def _is_canonical(combo: tuple, perms) -> bool:
    for perm in perms:
        permuted: list = [None] * len(combo)
        for i, lst in enumerate(combo):
            permuted[perm[i]] = lst
        if tuple(permuted) < combo:
            return False
    return True


def _lex_product(pool, repeat: int):
    """itertools.product(pool(), repeat=repeat), same order, holding only
    one iterator of pool() per position instead of the whole pool."""
    iters = [pool() for _ in range(repeat)]
    current = [next(it) for it in iters]
    while True:
        yield tuple(current)
        i = repeat - 1
        while i >= 0:
            current[i] = next(iters[i], None)
            if current[i] is not None:
                break
            iters[i] = pool()
            current[i] = next(iters[i])
            i -= 1
        else:
            return


def _normalized_assignments(g: Graph, k: int, universe: int, stats=None):
    """Lexicographic k-assignments from {0..universe}, minimum color zero,
    reduced to orbit representatives under element automorphisms.
    The graph with no elements has one assignment, the empty one.

    Stops at a fixed raw-iteration cap (recorded in stats["capped"]) so the
    filters cannot spin unboundedly on large instances."""
    elems = elements_of(g)
    perms = [pm for pm in element_automorphisms(g) if pm != tuple(range(len(elems)))]
    raw = 0
    for combo in _lex_product(lambda: itertools.combinations(range(universe + 1), k), len(elems)):
        raw += 1
        if raw > _RAW_SCAN_CAP:
            if stats is not None:
                stats["capped"] = True
            return
        if combo and min(t[0] for t in combo) != 0:
            continue
        if perms and not _is_canonical(combo, perms):
            continue
        yield {x: set(combo[i]) for i, x in enumerate(elems)}


@dataclass
class Certificate:
    """Re-checkable evidence about k-choosability relative to a color universe.

    kind is one of "lower-witness" (an embedded k-assignment the complete
    solver cannot label), "upper-certified" (every normalized k-assignment
    from {0..universe} was labelled), or "exhausted" (budgeted search ended
    without a witness). The universe bound is always recorded. Gap
    compression, which shrinks every gap of at least max(p, 1) between the
    colors in use to max(p, 1) and keeps their order and every distance below
    p, maps any k-assignment on N elements to one from {0..(N*k - 1)*max(p, 1)}
    with the same verdict; so an upper certificate whose universe reaches that
    bound holds for every universe, and one below it only for its own.
    """

    kind: str
    p: int
    k: int
    universe: int
    graph6: str
    checked: int
    assignment: dict | None = None
    budget: int | None = None
    mode: str = "lex"
    seed: int | None = None
    complete: bool = False
    normalization: tuple[str, ...] = ("shift-min-0", "automorphism-canonical")

    def to_json(self) -> str:
        obj = {
            "kind": self.kind,
            "p": self.p,
            "k": self.k,
            "U": self.universe,
            "graph": self.graph6,
            "checked": self.checked,
            "budget": self.budget,
            "mode": self.mode,
            "seed": self.seed,
            "complete": self.complete,
            "normalization": list(self.normalization),
        }
        if self.assignment is not None:
            obj["assignment"] = {
                element_name(x): sorted(v)
                for x, v in sorted(self.assignment.items(), key=lambda kv: element_key(kv[0]))
            }
        return json.dumps(obj, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Certificate":
        obj = _json_check(_json_loads(text), dict, "certificate")
        assignment = obj.get("assignment")
        if assignment is not None:
            assignment = _json_elements(
                _json_check(assignment, dict, "assignment"), _json_colors
            )
        budget, seed = obj.get("budget"), obj.get("seed")
        normalization = _json_check(obj.get("normalization", []), list, "normalization")
        return Certificate(
            kind=_json_check(obj["kind"], str, "kind"),
            p=_json_check(obj["p"], int, "p"),
            k=_json_check(obj["k"], int, "k"),
            universe=_json_check(obj["U"], int, "U"),
            graph6=_json_check(obj["graph"], str, "graph"),
            checked=_json_check(obj["checked"], int, "checked"),
            assignment=assignment,
            budget=None if budget is None else _json_check(budget, int, "budget"),
            mode=_json_check(obj.get("mode", "lex"), str, "mode"),
            seed=None if seed is None else _json_check(seed, int, "seed"),
            complete=_json_check(obj.get("complete", False), bool, "complete"),
            normalization=tuple(_json_check(r, str, "normalization rule") for r in normalization),
        )


def _checked_universe(k: int, universe: int | None) -> int:
    """The universe of a witness search, 2k unless given; it must hold a k-list."""
    if k < 1:
        raise ValueError("list size k must be at least 1")
    universe = 2 * k if universe is None else universe
    if universe < k - 1:
        raise ValueError("universe too small to hold a k-list")
    return universe


def _random_assignments(g: Graph, k: int, universe: int, seed: int):
    """Endless seeded k-subsets of {0..universe}, one per element, shifted so
    that the least color in use is 0."""
    rng = random.Random(f"witness:{seed}")
    elems = elements_of(g)
    while True:
        lists = {x: sorted(rng.sample(range(universe + 1), k)) for x in elems}
        shift = min((min(v) for v in lists.values()), default=0)
        yield {x: set(c - shift for c in v) for x, v in lists.items()}


def _witness_search(g: Graph, p: int, k: int, universe: int, budget: int | None = None,
                    mode: str = "lex", seed: int | None = None) -> Certificate:
    """Solve the mode's assignments in turn, at most budget of them (all when
    None): a lower witness for the first that no labelling respects, else an
    exhaustion record, complete only when the lex walk ran out within the
    budget and below _RAW_SCAN_CAP (the random draws never run out). The
    budget is tested on the next assignment, so a lex walk whose length is
    exactly the budget is complete."""
    stats = {"capped": False}
    assignments = (_normalized_assignments(g, k, universe, stats) if mode == "lex"
                   else _random_assignments(g, k, universe, seed))
    g6 = emit_graph6(g)
    checked, complete = 0, False
    for lists in assignments:
        if checked == budget:
            break
        checked += 1
        if not solve_list(g, p, lists).labelled:
            return Certificate("lower-witness", p, k, universe, g6, checked, assignment=lists,
                               budget=budget, mode=mode, seed=seed)
    else:
        complete = not stats["capped"]
    return Certificate("exhausted", p, k, universe, g6, checked, budget=budget, mode=mode,
                       seed=seed, complete=complete)


def find_bad_assignment(
    g: Graph,
    p: int,
    k: int,
    universe: int | None = None,
    budget: int = 20000,
    mode: str = "lex",
    seed: int = 0,
) -> Certificate:
    """Hunt for a k-assignment with no list-respecting labelling.

    Lexicographic mode walks normalized assignments (minimum color zero,
    orbit representatives under the graph's element automorphisms) in a fixed
    order; random mode draws seeded k-subsets and shift-normalizes them.
    Returns a lower-witness certificate on success, else an exhaustion record.
    """
    universe = _checked_universe(k, universe)
    if budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in ("lex", "random"):
        raise ValueError(f"unknown search mode {mode!r}")
    return _witness_search(g, p, k, universe, budget, mode, seed if mode == "random" else None)


def certify_choosable(g: Graph, p: int, k: int, universe: int | None = None) -> Certificate:
    """Exhaustively decide k-choosability relative to the universe {0..U}.

    Upper-certified means every normalized k-assignment was labelled; the
    certificate records the universe bound and the normalization rules, since
    below the gap-compression bound (see Certificate) the claim holds only
    for the universe swept. Refuses instances whose raw enumeration would be
    too large.
    """
    universe = _checked_universe(k, universe)
    n_elems = g.n + g.m
    if n_elems > _CERTIFY_MAX_ELEMENTS:
        raise InstanceTooLarge(f"refusing exhaustive certification: {n_elems} elements, "
                               f"more than the {_CERTIFY_MAX_ELEMENTS} it sweeps")
    per_element = comb(universe + 1, k)
    if per_element**n_elems > _RAW_SCAN_CAP:
        raise InstanceTooLarge(
            f"refusing exhaustive certification: {n_elems} elements with {per_element} "
            f"candidate lists each, more than the {_RAW_SCAN_CAP} raw assignments it sweeps"
        )
    cert = _witness_search(g, p, k, universe)
    if cert.kind == "exhausted":
        cert.kind = "upper-certified"
    return cert


def recheck_certificate(cert: Certificate) -> tuple[bool, str]:
    """Re-validate a certificate from its own content alone."""
    g = parse_graph6(cert.graph6)
    if cert.kind == "lower-witness":
        if cert.assignment is None:
            return False, "lower-witness certificate has no assignment"
        for x, colors in cert.assignment.items():
            if len(colors) != cert.k:
                return False, f"list for {element_name(x)} is not a {cert.k}-list"
            if any(c < 0 or c > cert.universe for c in colors):
                return False, f"list for {element_name(x)} leaves the universe"
        missing = [x for x in elements_of(g) if x not in cert.assignment]
        if missing:
            return False, f"assignment misses {len(missing)} elements"
        foreign = set(cert.assignment) - set(elements_of(g))
        if foreign:
            return False, f"assignment holds {len(foreign)} elements not in the graph"
        if solve_list(g, cert.p, cert.assignment).labelled:
            return False, "embedded assignment is labelable after all"
        return True, "witness re-checked infeasible"
    if cert.kind == "upper-certified":
        fresh = certify_choosable(g, cert.p, cert.k, cert.universe)
        if fresh.kind != "upper-certified":
            return False, "re-certification found a witness"
        if fresh.checked != cert.checked:
            return False, f"checked-count mismatch: {fresh.checked} != {cert.checked}"
        done = f"re-certified over {fresh.checked} assignments"
    elif cert.kind == "exhausted":
        fresh = find_bad_assignment(
            g, cert.p, cert.k, cert.universe,
            budget=cert.budget or 1, mode=cert.mode, seed=cert.seed or 0,
        )
        if fresh.kind != "exhausted" or fresh.checked != cert.checked:
            return False, "replay disagrees with the exhaustion record"
        done = f"exhaustion replayed over {fresh.checked} assignments"
    else:
        return False, f"unknown certificate kind {cert.kind!r}"
    # the replay must reproduce the record's own claims, not only its count
    for name in ("complete", "normalization"):
        ours, theirs = getattr(fresh, name), getattr(cert, name)
        if ours != theirs:
            return False, f"replay gives {name}={ours}, the record {theirs}"
    return True, done
