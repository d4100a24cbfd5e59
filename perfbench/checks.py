"""The benchmark's own output checks.

`labelling_problem` is an independent conflict predicate in the spirit of
tests/oracle.py: it uses its own element encoding and walks the constraints
directly, sharing no code with `plabel.labelling.is_valid`.
"""

from __future__ import annotations

import hashlib


def _key(x) -> tuple:
    return ("e", x.u, x.v) if hasattr(x, "u") else ("v", x.v)


def labelling_problem(n: int, edges, p: int, labelling: dict, lists: dict | None = None):
    """None when `labelling` is a valid (p,1)-total labelling of the graph
    respecting `lists`; otherwise a one-line reason."""
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    colors = {_key(x): c for x, c in labelling.items()}
    wanted = {("v", i) for i in range(n)} | {("e", u, v) for u, v in edges}
    if set(colors) != wanted:
        return "labelling does not cover exactly the graph's elements"
    for key, c in colors.items():
        if not isinstance(c, int) or c < 0:
            return f"{key} has color {c!r}"
    at_vertex: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        ce = colors["e", u, v]
        if colors["v", u] == colors["v", v]:
            return f"adjacent vertices {u} and {v} share a color"
        if abs(colors["v", u] - ce) < p or abs(colors["v", v] - ce) < p:
            return f"edge {u}-{v} is closer than {p} to an end"
        at_vertex[u].append(ce)
        at_vertex[v].append(ce)
    for w, seen in at_vertex.items():
        if len(set(seen)) != len(seen):
            return f"two edges at vertex {w} share a color"
    if lists is not None:
        for x, c in labelling.items():
            if c not in lists[x]:
                return f"{_key(x)} leaves its list"
    return None


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]
