"""Elements, (p,1)-total labellings, list assignments, and the validity predicates.

A labelling assigns non-negative integer colors to elements (vertices and
edges) of a host graph. Validity is a predicate, not a type invariant:
solvers and labellers freely build partial or broken candidates and ask
is_valid at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import Graph, IncidenceMap

__all__ = [
    "Vertex",
    "Edge",
    "Element",
    "element_key",
    "elements_of",
    "element_name",
    "element_from_name",
    "p_ball",
    "Violation",
    "ValidationReport",
    "is_valid",
    "respects_lists",
    "lp1_is_valid",
    "transport_labelling",
    "pull_back_labelling",
    "transport_lists",
    "pull_back_lists",
    "full_lists",
    "check_lists",
    "labelling_to_json",
    "labelling_from_json",
    "lists_to_json",
    "lists_from_json",
]


@dataclass(frozen=True)
class Vertex:
    v: int


@dataclass(frozen=True)
class Edge:
    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"loop edge at {self.u}")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)


Element = Vertex | Edge


def element_key(x: Element) -> tuple:
    """Total order: all vertices (by index) before all edges (lexicographic)."""
    if isinstance(x, Vertex):
        return (0, x.v, -1)
    return (1, x.u, x.v)


@lru_cache(maxsize=1)
def _elements(g: Graph) -> tuple[Element, ...]:
    """Every element of g in the element total order, kept for the next call
    on an equal graph."""
    return (*map(Vertex, range(g.n)), *(Edge(u, v) for u, v in g.sorted_edges()))


def elements_of(g: Graph) -> list[Element]:
    """Every element of g in the element total order."""
    return list(_elements(g))


def element_name(x: Element) -> str:
    if isinstance(x, Vertex):
        return f"v:{x.v}"
    return f"e:{x.u}-{x.v}"


def element_from_name(name: str) -> Element:
    try:
        tag, rest = name.split(":", 1)
        if tag == "v":
            return Vertex(int(rest))
        if tag == "e":
            u, v = rest.split("-", 1)
            return Edge(int(u), int(v))
    except ValueError:
        pass
    raise ValueError(f"bad element key {name!r}; expected 'v:ID' or 'e:U-V'")


def p_ball(x: int, p: int) -> set[int]:
    """The 2p-1 integers at distance < p from x; empty when p = 0.

    Members may be negative; that is harmless in set-difference use.
    """
    if p < 0:
        raise ValueError("separation p must be non-negative")
    if p == 0:
        return set()
    return set(range(x - (p - 1), x + p))


@dataclass(frozen=True)
class Violation:
    family: str  # vertex-vertex | edge-edge | vertex-edge | unlabelled | adjacent | distance-2
    first: object
    second: object | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def _edge_positions(g: Graph) -> dict[tuple[int, int], int]:
    """Element position of every edge of g, keyed by both orientations: the
    j-th edge in sorted order is at position n+j, after the n vertices."""
    positions = {}
    for j, (u, v) in enumerate(g.sorted_edges(), g.n):
        positions[u, v] = positions[v, u] = j
    return positions


def is_valid(g: Graph, p: int, labelling, total: bool = False) -> ValidationReport:
    """Check the three constraint families on labelled elements only.

    (i) adjacent vertices get distinct colors, (ii) adjacent edges get
    distinct colors, (iii) an edge and an incident vertex differ by >= p.
    With total=True additionally every element must be labelled. All
    violations are reported, not just the first. The labelling is a dict
    keyed by elements, or a list of colors by element position (vertex v at
    v, the j-th sorted edge at n+j), None where unlabelled.
    """
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
    def element(i: int) -> Element:
        return Vertex(i) if i < n else Edge(*edges[i - n])
    # incident[w]: the labelled edges at w, in element order
    same, close = [], []  # vertex-vertex and vertex-edge violations
    incident: list[list[int]] = [[] for _ in range(n)]
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
    # two adjacent edges of a simple graph share exactly one vertex, so every
    # adjacent pair is visited exactly once here
    clash = [Violation("edge-edge", element(a), element(b))
             for labelled in incident for a, b in combinations(labelled, 2)
             if colors[a] == colors[b]]
    violations = same + clash + close
    if total:
        violations += [Violation("unlabelled", element(i))
                       for i, color in enumerate(colors) if color is None]
    return ValidationReport(ok=not violations, violations=tuple(violations))


def respects_lists(labelling: dict, lists: dict) -> bool:
    """True iff every labelled element's color belongs to its list."""
    for x, color in labelling.items():
        if x not in lists:
            raise ValueError(f"no list for element {element_name(x)}")
        if color not in lists[x]:
            return False
    return True


def lp1_is_valid(g: Graph, p: int, labels: dict) -> ValidationReport:
    """Vertex-labelling check: adjacent labels differ by >= p, labels at
    distance exactly two are distinct. Only labelled vertices are checked."""
    if p < 0:
        raise ValueError("separation p must be non-negative")
    for v in labels:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside graph with n={g.n}")
    violations: list[Violation] = []
    for u, v in g.sorted_edges():
        if u in labels and v in labels and abs(labels[u] - labels[v]) < p:
            violations.append(Violation("adjacent", u, v))
    dist2 = set()
    for w in range(g.n):
        for a, b in combinations(g.adj[w], 2):
            if not g.has_edge(a, b):
                dist2.add((a, b) if a < b else (b, a))
    for a, b in sorted(dist2):
        if a in labels and b in labels and labels[a] == labels[b]:
            violations.append(Violation("distance-2", a, b))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# --- transport along an incidence map ---------------------------------------


def _to_derived(im: IncidenceMap, values: dict, copy) -> dict:
    """Re-key values by derived vertex. The i-th element of the base graph, in
    element order, is derived vertex i: incidence_graph keeps every vertex
    index and numbers the subdivision vertex of the j-th sorted edge n+j."""
    position = {x: i for i, x in enumerate(elements_of(im.base))}
    return {position[x]: copy(value) for x, value in values.items()}


def _to_base(im: IncidenceMap, values: dict, copy) -> dict:
    elems = elements_of(im.base)
    out: dict = {}
    for w, value in values.items():
        if not (isinstance(w, int) and 0 <= w < len(elems)):
            raise ValueError(f"derived vertex {w} has no preimage")
        out[elems[w]] = copy(value)
    return out


def transport_labelling(im: IncidenceMap, labelling: dict) -> dict:
    """Carry element colors of the base graph onto derived vertices."""
    return _to_derived(im, labelling, lambda color: color)


def pull_back_labelling(im: IncidenceMap, labels: dict) -> dict:
    """Inverse of transport_labelling; together they form a bijection."""
    return _to_base(im, labels, lambda color: color)


def transport_lists(im: IncidenceMap, lists: dict) -> dict:
    return _to_derived(im, lists, set)


def pull_back_lists(im: IncidenceMap, vlists: dict) -> dict:
    return _to_base(im, vlists, set)


# --- list-assignment helpers -------------------------------------------------


def full_lists(g: Graph, colors) -> dict:
    """The assignment giving every element the same color set."""
    pool = frozenset(colors)
    return {x: pool for x in elements_of(g)}


def check_lists(g: Graph, lists, minimum: int | None = None) -> list:
    """Require a non-empty list for every element, optionally of a minimum size.

    The lists are a dict keyed by element, naming every element of g and no
    other, or a list of color sets by element position (vertex v at v, the
    j-th sorted edge at n+j). Returns the caller's lists by element position.
    """
    by_position = isinstance(lists, list)
    if by_position and len(lists) != g.n + g.m:
        raise ValueError(f"{len(lists)} lists for the {g.n + g.m} elements of the graph")
    out = list(lists) if by_position else [lists.get(x) for x in _elements(g)]
    for i, colors in enumerate(out):
        if not colors or (minimum is not None and len(colors) < minimum):
            x = _elements(g)[i]
            if colors is None and not by_position and x not in lists:
                raise ValueError(f"missing list for element {element_name(x)}")
            if not colors:
                raise ValueError(f"empty list for element {element_name(x)}")
            raise ValueError(
                f"list for {element_name(x)} has {len(colors)} colors; need at least {minimum}"
            )
    # every element has its list, so any further key names no element of g
    if not by_position and len(lists) != len(out):
        known = set(_elements(g))
        foreign = next(x for x in lists if x not in known)
        name = element_name(foreign) if isinstance(foreign, (Vertex, Edge)) else repr(foreign)
        raise ValueError(f"list for {name}, which is not an element of the graph")
    return out


# --- JSON serialization -------------------------------------------------------
#
# Labelling files: {"p": int, "labels": {"v:ID": int, "e:U-V": int}}.
# List files mirror that with arrays: {"p": int, "lists": {...: [colors]}}.
# Keys are written in the element total order, bit-exactly.


def labelling_to_json(p: int, labelling: dict) -> str:
    ordered = {
        element_name(x): labelling[x] for x in sorted(labelling, key=element_key)
    }
    return json.dumps({"p": p, "labels": ordered}, indent=2) + "\n"


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string",
               bool: "true or false"}


def _json_object(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {json.dumps(key)[:40]}")
        obj[key] = value
    return obj


def _json_loads(text: str):
    """json.loads, but a repeated key in any object is an error, not a silent override."""
    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except RecursionError:
        raise ValueError("JSON input nests too deeply") from None


def _json_check(value, kind: type, what: str):
    """Return value if it has the JSON type kind (true/false is no integer here);
    otherwise raise ValueError naming what was expected."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {json.dumps(value)[:40]}")


def _json_color(value, name: str) -> int:
    color = _json_check(value, int, f"color of {name}")
    if color < 0:
        raise ValueError(f"color of {name} must be non-negative, got {color}")
    return color


def _json_colors(value, name: str) -> set[int]:
    colors = _json_check(value, list, f"list of {name}")
    return {_json_color(c, name) for c in colors}


def _json_elements(entries: dict, read) -> dict:
    """Key each entry by its element, its value read as read(value, name).

    Two names for one element ("e:0-1" and "e:1-0") are an error, not an
    override by the later one.
    """
    out = {}
    for name, value in entries.items():
        x = element_from_name(name)
        if x in out:
            raise ValueError(f"{name!r} names {element_name(x)}, which an earlier key named")
        out[x] = read(value, name)
    return out


def labelling_from_json(text: str) -> tuple[int, dict]:
    obj = _json_check(_json_loads(text), dict, "labelling file")
    p = _json_check(obj["p"], int, "p")
    labels = _json_check(obj["labels"], dict, "labels")
    return p, _json_elements(labels, _json_color)


def lists_to_json(p: int, lists: dict) -> str:
    ordered = {
        element_name(x): sorted(lists[x]) for x in sorted(lists, key=element_key)
    }
    return json.dumps({"p": p, "lists": ordered}, indent=2) + "\n"


def lists_from_json(text: str) -> tuple[int, dict]:
    obj = _json_check(_json_loads(text), dict, "list file")
    p = _json_check(obj["p"], int, "p")
    lists = _json_check(obj["lists"], dict, "lists")
    return p, _json_elements(lists, _json_colors)
