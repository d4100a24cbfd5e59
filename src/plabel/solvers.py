"""Complete backtracking solvers and choosability certificates.

These are the ground-truth oracles the constructive labellers are checked
against. One search, with forward checking, most-constrained-element
ordering and a pigeonhole check on every neighbourhood, labels vertices with
distance-two constraints; a (p,1)-total instance is such an instance on
the once-subdivided graph, whose constraints are read off the graph itself.
The search keeps its own stack, so long inputs are not limited by Python's
recursion depth. On top of it sit the minimum span by an upward scan and
exhaustive / budgeted searches over normalized list assignments.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb

from .graphs import Graph, emit_graph6, parse_graph6
from .labelling import (
    _edge_positions,
    _json_check,
    _json_colors,
    _json_elements,
    _json_loads,
    check_lists,
    element_key,
    element_name,
    elements_of,
    is_valid,
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
    seconds: float

    @property
    def labelled(self) -> bool:
        return self.labelling is not None


def _search(domains, cons, p: int, groups):
    """Backtracking with forward checking; returns (assignment | None, nodes).

    Each domain is kept as an int bitmask over the sorted union of the colors
    in all domains (bit i is the i-th color), so sparse or huge colors cost no
    wider ints. Variable order: smallest current domain, ties broken by the
    number of unassigned constraint partners (more first) and then element
    order; all deterministic. Value order: ascending color. The degree
    tie-break matters in practice: without it some dense two-dozen-element
    instances thrash through millions of nodes. The keys live in a heap that
    is updated as domains and partners change; stale entries are skipped when
    they reach the top, and the heap is rebuilt once it holds more than
    4*elements+64 entries, so its memory stays linear.

    Each group is a (center, members) pair whose members must take pairwise
    distinct colors, each at least p away from the center's. A group fails
    when its members' domains hold fewer colors than it has members, or when
    every candidate color of the center leaves too few of them. Groups are
    checked before the first node and, after each assignment, those that
    contain the assigned element. The check removes no value, so it changes
    neither the order of the search nor its answer; it only cuts subtrees
    that hold no solution. The search runs on an explicit stack, so its depth
    is not bounded by Python's recursion limit.
    """
    values = sorted(set().union(*domains))
    bit = {c: 1 << i for i, c in enumerate(values)}
    # near[i]: the colors at distance < p from the i-th color (none at p = 0)
    near = [(1 << bisect_left(values, c + p)) - (1 << bisect_right(values, c - p)) if p else 0
            for c in values]
    masks = []
    for colors in domains:
        mask = 0
        for c in colors:
            mask |= bit[c]
        masks.append(mask)
    domains = masks
    count = len(domains)
    assigned: list[int | None] = [None] * count
    live = [len(partners) for partners in cons]
    heap = [(domains[i].bit_count(), -live[i], i) for i in range(count)]
    heapq.heapify(heap)
    heap_cap = 4 * count + 64
    # a one-member group can fail only at the root: once either end is
    # placed, forward checking has left the other end only compatible colors
    groups_of: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(count)]
    for group in groups:
        center, members = group
        if len(members) > 1:
            groups_of[center].append(group)
            for j in members:
                groups_of[j].append(group)

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

    def place(i: int, low: int):
        """Assign i the color of bit low and prune its unassigned partners;
        returns (ok, trail), the trail holding each changed domain's prior
        mask. Once a partner's domain is empty, the rest are only counted."""
        at = low.bit_length() - 1
        assigned[i] = values[at]
        trail = [(i, domains[i])]
        domains[i] = low
        apart, other = ~near[at], ~low
        ok = True
        for j, sep in cons[i]:
            live[j] -= 1
            if not ok or assigned[j] is not None:
                continue
            dom = domains[j]
            kept = dom & (apart if sep else other)
            if kept != dom:
                trail.append((j, dom))
                domains[j] = kept
                ok = kept != 0
        return ok, trail

    def unplace(i: int, trail) -> None:
        for j, dom in trail:
            domains[j] = dom
        for j, _ in cons[i]:
            live[j] += 1
        assigned[i] = None

    def push_keys(i: int) -> None:
        for j, _ in cons[i]:
            if assigned[j] is None:
                heapq.heappush(heap, (domains[j].bit_count(), -live[j], j))

    def select() -> int:
        nonlocal heap
        if len(heap) > heap_cap:
            heap = [(domains[i].bit_count(), -live[i], i)
                    for i in range(count) if assigned[i] is None]
            heapq.heapify(heap)
        while heap:
            size, neg_live, i = heap[0]
            if assigned[i] is None and size == domains[i].bit_count() and -neg_live == live[i]:
                return i
            heapq.heappop(heap)
        return -1

    for center, members in groups:
        if fails(center, members):
            return None, 0
    first = select()
    if first < 0:
        return [], 0
    nodes = 0
    # frame: [element, its untried colors as a mask, trail of the color whose
    # subtree is being searched, or None before the first color]
    stack = [[first, domains[first], None]]
    while stack:
        frame = stack[-1]
        var, rest, trail = frame
        if trail is not None:  # back from the subtree under the last color
            unplace(var, trail)
            push_keys(var)
            heapq.heappush(heap, (domains[var].bit_count(), -live[var], var))
        while rest:
            low = rest & -rest
            rest ^= low
            nodes += 1
            ok, trail = place(var, low)
            if ok:
                for center, members in groups_of[var]:
                    if fails(center, members):
                        break
                else:
                    break
            unplace(var, trail)
        else:
            stack.pop()
            continue
        frame[1:] = rest, trail
        push_keys(var)
        nxt = select()
        if nxt < 0:
            return list(assigned), nodes
        stack.append([nxt, domains[nxt], None])
    return None, nodes


def _lp1_model(g: Graph, p: int):
    """The partners and groups of g's vertex labelling, built in one pass.

    Per vertex of g, its partners are (other_vertex, needs_separation) pairs.
    needs_separation=True means |colors| >= p (adjacent vertices); False means
    plain inequality (vertices at distance exactly two). Distance-two pairs
    are linked first, through each common neighbour in turn, so each partner
    list holds its inequality pairs before its separation pairs. The order
    does not change the search; the reverse order visits the same nodes,
    about 1% slower.

    The groups are the (w, N(w)) pairs whose members must take pairwise
    distinct colors. Two neighbours of w are at distance two, or adjacent and
    so at least p >= 1 apart. At p = 0 adjacent neighbours may share a color,
    so a neighbourhood that holds an edge is left out.
    """
    cons: list[list[tuple[int, bool]]] = [[] for _ in range(g.n)]
    seen = [{v, *members} for v, members in enumerate(g.adj)]  # linked or adjacent
    groups = []
    for w, members in enumerate(g.adj):
        for a, b in itertools.combinations(members, 2):
            if b not in seen[a]:
                seen[a].add(b)
                seen[b].add(a)
                cons[a].append((b, False))
                cons[b].append((a, False))
        if members and (p > 0 or not any(
                g.has_edge(a, b) for a, b in itertools.combinations(members, 2))):
            groups.append((w, members))
    for partners, members in zip(cons, g.adj):
        partners.extend((v, True) for v in members)
    return cons, groups


@functools.lru_cache(maxsize=1)
def _total_model(g: Graph):
    """_lp1_model of the once-subdivided graph, as tuples, read off g: the
    edges at a vertex and the ends of an edge are at distance two, a vertex
    and its edges adjacent. No two neighbours are adjacent, so no pair
    repeats and no group depends on p. The model is kept for the next call
    on an equal graph."""
    n, edges = g.n, g.sorted_edges()
    at: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges, n):
        at[u].append(j)
        at[v].append(j)
    pairs = [(a, b, False) for ends in at for a, b in itertools.combinations(ends, 2)]
    pairs += [(u, v, False) for u, v in edges]
    pairs += [(w, j, True) for w, ends in enumerate(at) for j in ends]
    cons: list[list[tuple[int, bool]]] = [[] for _ in range(n + len(edges))]
    for a, b, sep in pairs:
        cons[a].append((b, sep))
        cons[b].append((a, sep))
    groups = [(w, tuple(ends)) for w, ends in enumerate(at) if ends] + list(enumerate(edges, n))
    return tuple(map(tuple, cons)), tuple(groups)


def _solve(cons, groups, p: int, domains):
    """Vertex labelling from the domains under the partners cons and the
    groups. Returns (assignment | None, nodes, seconds)."""
    start = time.monotonic()
    assignment, nodes = _search(domains, cons, p, groups)
    return assignment, nodes, time.monotonic() - start


def solve_list(g: Graph, p: int, lists) -> SolveResult:
    """Complete search for a list-respecting (p,1)-total labelling.

    The lists are a dict keyed by element or a list of color sets by element
    position (vertex v at v, the j-th sorted edge at n+j), as check_lists
    takes them. The search runs on the once-subdivided graph's constraints,
    read off g (its i-th element in element order is vertex i), and keeps
    each domain as a bitmask over the colors in all lists. The returned
    labelling, when present, is re-checked against the direct validity
    predicate and the lists before being handed back.
    """
    if p < 0:
        raise ValueError("separation p must be non-negative")
    given = check_lists(g, lists)
    assignment, nodes, seconds = _solve(*_total_model(g), p, given)
    if assignment is None:
        return SolveResult(None, nodes, seconds)
    report = is_valid(g, p, assignment, total=True)
    if not report.ok or any(color not in colors for color, colors in zip(assignment, given)):
        raise AssertionError(f"solver produced an invalid labelling: {report.violations}")
    return SolveResult(dict(zip(elements_of(g), assignment)), nodes, seconds)


def solve_span(g: Graph, p: int, k: int) -> SolveResult:
    """Search for a (p,1)-total labelling into the color range {0..k}."""
    if k < 0:
        raise ValueError("max color k must be non-negative")
    return solve_list(g, p, [range(k + 1)] * (g.n + g.m))


def lp1_solve_span(g: Graph, p: int, k: int) -> SolveResult:
    """Vertex labelling into {0..k}: adjacent >= p apart, distance-2 distinct."""
    if p < 0 or k < 0:
        raise ValueError("p and k must be non-negative")
    assignment, nodes, seconds = _solve(*_lp1_model(g, p), p, [range(k + 1)] * g.n)
    if assignment is None:
        return SolveResult(None, nodes, seconds)
    labels = dict(enumerate(assignment))
    if not lp1_is_valid(g, p, labels).ok:
        raise AssertionError("vertex-labelling solver produced an invalid labelling")
    return SolveResult(labels, nodes, seconds)


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


def element_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Element-index permutations induced by graph automorphisms.

    Element i is vertex i of the once-subdivided graph. Brute force over
    vertex permutations; beyond _AUTOMORPHISM_MAX_VERTICES only the identity
    is returned (enumeration callers are desk-scale anyway).
    """
    if g.n > _AUTOMORPHISM_MAX_VERTICES:
        return [tuple(range(g.n + g.m))]
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
    return perms


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
    without a witness). The universe bound is always recorded because no
    universe reduction is known for these searches.
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
    if k < 1:
        raise ValueError("list size k must be at least 1")
    universe = 2 * k if universe is None else universe
    if universe < k - 1:
        raise ValueError("universe too small to hold a k-list")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in ("lex", "random"):
        raise ValueError(f"unknown search mode {mode!r}")
    g6 = emit_graph6(g)
    checked = 0
    if mode == "lex":
        stats = {"capped": False}
        budget_hit = False
        for lists in _normalized_assignments(g, k, universe, stats=stats):
            if checked >= budget:
                budget_hit = True
                break
            checked += 1
            if not solve_list(g, p, lists).labelled:
                return Certificate(
                    "lower-witness", p, k, universe, g6, checked, assignment=lists,
                    budget=budget, mode=mode,
                )
        return Certificate(
            "exhausted", p, k, universe, g6, checked, budget=budget, mode=mode,
            complete=not budget_hit and not stats["capped"],
        )
    import random as _random

    rng = _random.Random(f"witness:{seed}")
    elems = elements_of(g)
    while checked < budget:
        lists = {x: sorted(rng.sample(range(universe + 1), k)) for x in elems}
        shift = min((min(v) for v in lists.values()), default=0)
        lists = {x: set(c - shift for c in v) for x, v in lists.items()}
        checked += 1
        if not solve_list(g, p, lists).labelled:
            return Certificate(
                "lower-witness", p, k, universe, g6, checked, assignment=lists,
                budget=budget, mode=mode, seed=seed,
            )
    return Certificate(
        "exhausted", p, k, universe, g6, checked, budget=budget, mode=mode, seed=seed,
    )


def certify_choosable(g: Graph, p: int, k: int, universe: int | None = None) -> Certificate:
    """Exhaustively decide k-choosability relative to the universe {0..U}.

    Upper-certified means every normalized k-assignment was labelled; the
    certificate records the universe bound and the normalization rules, since
    the claim is only as strong as the universe swept. Refuses instances
    whose raw enumeration would be too large.
    """
    if k < 1:
        raise ValueError("list size k must be at least 1")
    universe = 2 * k if universe is None else universe
    if universe < k - 1:
        raise ValueError("universe too small to hold a k-list")
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
    g6 = emit_graph6(g)
    checked = 0
    for lists in _normalized_assignments(g, k, universe):
        checked += 1
        if not solve_list(g, p, lists).labelled:
            return Certificate(
                "lower-witness", p, k, universe, g6, checked, assignment=lists,
            )
    return Certificate("upper-certified", p, k, universe, g6, checked, complete=True)


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
