"""Simple undirected graphs: construction, standard families, edge subdivision, and text formats."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Graph",
    "GraphParseError",
    "IncidenceMap",
    "incidence_graph",
    "make_path",
    "make_star",
    "make_random_tree",
    "make_random_maximal_outerplanar",
    "parse_graph",
    "emit_graph",
    "parse_edge_list",
    "emit_edge_list",
    "parse_graph6",
    "emit_graph6",
]

FORMATS = ("edge-list", "graph6")


class GraphParseError(ValueError):
    """Malformed graph text; records the 1-based line and 0-based offset when known."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", offset {offset}" if offset is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.offset = offset


class Graph:
    """Immutable simple graph on vertices 0..n-1 with a normalized edge set.

    Edges are stored as pairs (u, v) with u < v; adjacency lists are sorted
    tuples. Values are safe to share between threads once constructed.
    Connectivity is not an invariant; callers that need it ask is_connected().
    The sorted edge list is built on first use and kept; the maximum degree
    is computed once, on construction.
    """

    __slots__ = ("n", "edges", "adj", "_sorted_edges", "_max_degree")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            normalized.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(normalized)
        neigh: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            neigh[u].append(v)
            neigh[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in neigh)
        self._sorted_edges = None
        self._max_degree = max(map(len, self.adj), default=0)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        if self._sorted_edges is None:
            self._sorted_edges = tuple(sorted(self.edges))
        return list(self._sorted_edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=True)
class IncidenceMap:
    """Result of subdividing every edge of a base graph once.

    vertex_image maps base vertices to themselves in the derived graph;
    edge_image maps each base edge to its subdivision vertex. The two
    ranges are disjoint and cover all derived vertices.
    """

    base: Graph
    derived: Graph
    vertex_image: dict
    edge_image: dict


def incidence_graph(g: Graph) -> IncidenceMap:
    """Replace every edge by a path of length 2.

    Base vertices keep their indices; subdivision vertices are numbered
    n..n+m-1 in the order of g.sorted_edges(), the order in which the
    element positions hold the edges, so the construction is deterministic.
    """
    derived_edges = []
    edge_image = {}
    for w, (u, v) in enumerate(g.sorted_edges(), g.n):
        edge_image[(u, v)] = w
        derived_edges.append((u, w))
        derived_edges.append((w, v))
    derived = Graph(g.n + g.m, derived_edges)
    return IncidenceMap(
        base=g,
        derived=derived,
        vertex_image={v: v for v in range(g.n)},
        edge_image=edge_image,
    )


@lru_cache(maxsize=1)
def make_path(k: int) -> Graph:
    """Path on k vertices 0-1-...-(k-1), kept for the next call with the same
    argument; graphs are immutable, so callers may share it."""
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


@lru_cache(maxsize=1)
def make_star(n: int) -> Graph:
    """Star with center 0 and leaves 1..n, kept for the next call with the
    same argument; graphs are immutable, so callers may share it."""
    if n < 1:
        raise ValueError("a star needs at least one leaf")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


@lru_cache(maxsize=1)
def make_random_tree(n: int, seed: int) -> Graph:
    """Random tree by attaching each vertex to a uniformly random earlier one.

    Pure function of (n, seed): the same arguments always give the same tree,
    and the last one is kept for the next call with them. Graphs are
    immutable, so callers may share it.
    """
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    rng = random.Random(f"tree:{n}:{seed}")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def make_random_maximal_outerplanar(n: int, seed: int) -> Graph:
    """Random triangulation of a convex polygon, built by repeated ear insertion.

    Starts from a triangle and inserts each new vertex as an ear on a randomly
    chosen edge of the current outer cycle, so the result is maximal
    outerplanar by construction: 2n-3 edges and a Hamiltonian outer cycle.
    Deterministic given (n, seed).
    """
    if n < 3:
        raise ValueError("a maximal outerplanar graph needs at least 3 vertices")
    return _grow_by_ears(n, random.Random(f"mop:{n}:{seed}"))[0]


def _grow_by_ears(n: int, rng: random.Random, cap: int | None = None):
    """A triangle grown to n vertices, each new vertex an ear on a random edge
    of the outer cycle whose ends both have degree below cap. Returns the
    graph and its outer cycle, or None once no such edge is left."""
    cycle, edges, degree = [0, 1, 2], [(0, 1), (1, 2), (0, 2)], [2, 2, 2] + [0] * (n - 3)
    for v in range(3, n):
        # an ear at pos sits on the outer edge cycle[pos], cycle[pos + 1]
        ears = range(len(cycle)) if cap is None else [
            pos for pos, a in enumerate(cycle)
            if degree[a] < cap and degree[cycle[(pos + 1) % len(cycle)]] < cap]
        if not ears:
            return None
        pos = rng.choice(ears)
        a, b = cycle[pos], cycle[(pos + 1) % len(cycle)]
        edges += [(a, v), (b, v)]
        degree[a], degree[b], degree[v] = degree[a] + 1, degree[b] + 1, 2
        cycle.insert(pos + 1, v)
    return Graph(n, edges), cycle


# --- edge-list format -------------------------------------------------------
#
# UTF-8 lines "u v" with 0-based indices; '#' starts a comment; blank lines
# ignored. The emitter writes a "# n=<count>" header so graphs with isolated
# vertices round-trip; the parser honors that header when present.


def emit_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    edges = []
    n_hint = None
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n_hint = int(body[2:])
                except ValueError:
                    raise GraphParseError("bad vertex-count header", line=lineno) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("expected 'u v'", line=lineno, offset=raw.index(line))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("vertex indices must be integers", line=lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError("vertex indices must be non-negative", line=lineno)
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", line=lineno)
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = max_seen + 1
    if n_hint is not None:
        if n_hint < n:
            raise GraphParseError(f"header n={n_hint} smaller than largest index {max_seen}")
        n = n_hint
    return Graph(n, edges)


# --- graph6 format ----------------------------------------------------------


def emit_graph6(g: Graph) -> str:
    """Encode as a standard graph6 string (no header, no trailing newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this graph6 encoder")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        chars.append(chr(word + 63))
    return prefix + "".join(chars)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphParseError("empty graph6 string")
    pos = 0
    first = ord(s[0]) - 63
    if first < 0 or ord(s[0]) > 126:
        raise GraphParseError("invalid graph6 byte", offset=0)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphParseError("graph6 long-long form not supported", offset=1)
        if len(s) < 4:
            raise GraphParseError("truncated graph6 size field", offset=len(s))
        n = 0
        for i in range(1, 4):
            b = ord(s[i]) - 63
            if b < 0 or b > 63:
                raise GraphParseError("invalid graph6 byte", offset=i)
            n = (n << 6) | b
        pos = 4
    else:
        n = first
        pos = 1
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - pos != nchars:
        raise GraphParseError(
            f"graph6 body for n={n} needs {nchars} bytes, got {len(s) - pos}", offset=pos
        )
    bits = []
    for i in range(pos, len(s)):
        b = ord(s[i]) - 63
        if b < 0 or b > 63:
            raise GraphParseError("invalid graph6 byte", offset=i)
        bits.extend((b >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    if any(bits[nbits:]):
        raise GraphParseError("nonzero padding bits in graph6 body")
    return Graph(n, edges)


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    raise ValueError(f"unknown graph format {fmt!r}; expected one of {FORMATS}")


def emit_graph(g: Graph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        return emit_edge_list(g)
    if fmt == "graph6":
        return emit_graph6(g) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}; expected one of {FORMATS}")
