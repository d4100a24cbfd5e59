"""Spans around calls into plabel's public functions, and the per-layer metrics.

The package binds names with `from .x import y`, so a function is reachable
under several module attributes (`plabel.solvers.solve_list`,
`plabel.constructive.solve_list`, `plabel.harness.solve_list`, ...). The
tracer replaces every such binding with one wrapper, which records a span
(name, start, end, parent) in memory. Spans are written out once, after the
run. Self time is a span's duration minus the part its child spans cover.

Leaf helpers that run once per element (`p_ball`, `elements_of`,
`element_key`, `element_name`) are not wrapped: their cost would dominate the
trace and their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from math import comb

# public functions traced, by module; the module is the layer
TRACED = {
    "graphs": (
        "make_path", "make_star", "make_random_tree", "make_random_maximal_outerplanar",
        "emit_graph6", "parse_graph6",
    ),
    "labelling": (
        "is_valid", "lp1_is_valid", "check_lists", "respects_lists", "full_lists",
        "labelling_to_json", "lists_to_json",
    ),
    "harness": (
        "random_k_assignment", "make_instance", "mop_with_degree", "run_property_suite",
        "run_oracle_suite", "hunt_counterexamples",
    ),
    "constructive": (
        "label_path_greedy", "label_tree_dfs", "label_star_list", "label_star_span",
        "label_outerplanar_list", "find_configuration",
    ),
    "solvers": (
        "solve_list", "lp1_solve_span", "solve_span", "min_span", "min_colors",
        "lp1_min_span", "find_bad_assignment", "certify_choosable", "recheck_certificate",
    ),
    "cli": ("main",),
}
# methods traced on their class: (module, class, method)
TRACED_METHODS = (
    ("harness", "Report", "to_json_text"),
    ("harness", "Report", "to_csv_text"),
)
LAYERS = tuple(TRACED)

SOLVES = {"solvers.solve_list", "solvers.lp1_solve_span"}
ENUMS = {"solvers.find_bad_assignment", "solvers.certify_choosable"}
LABELLERS = {f"constructive.{name}" for name in TRACED["constructive"]} - {
    "constructive.find_configuration"
}
INSTANCES = {
    "graphs.make_path", "graphs.make_star", "graphs.make_random_tree",
    "graphs.make_random_maximal_outerplanar", "harness.make_instance",
    "harness.mop_with_degree",
}
REPORTS = {"harness.Report.to_json_text", "harness.Report.to_csv_text"}


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every plabel module attribute bound to `original` at `replacement`.

    Returns (module, attribute, original) triples for undoing the change.
    """
    undo = []
    for key, mod in sorted(sys.modules.items()):
        if key != "plabel" and not key.startswith("plabel."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, replacement)
    return undo


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str = ""
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args: tuple, kwargs: dict, result) -> dict:
    return {"nodes": result.nodes, "labelled": result.labelled}


def _enum_attrs(args: tuple, kwargs: dict, result) -> dict:
    g = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    attrs = {"checked": result.checked, "complete": result.complete}
    if result.complete:
        attrs["raw"] = comb(result.universe + 1, k) ** (g.n + g.m)
    return attrs


# exact counts read off a call's arguments and result
ANNOTATE = {**{name: _solve_attrs for name in SOLVES}, **{name: _enum_attrs for name in ENUMS}}


class Tracer:
    """Records one span per call of a wrapped function; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span.attrs = annotate(args, kwargs, result)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded plabel modules."""
        for layer, names in TRACED.items():
            home = sys.modules[f"plabel.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                self._restore += rebind(original, self.wrap(f"{layer}.{fname}", original))
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"plabel.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "error": s.error, **(s.attrs or {})})
                         + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _outermost(spans: list[Span], names: set) -> list[Span]:
    """Spans named in `names` with no ancestor also named there."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from one traced pass."""
    selfs = self_times(spans)

    def total(names) -> float:
        return sum((s.duration for s in _outermost(spans, set(names))), 0.0)

    def self_of(names) -> float:
        return sum((t for s, t in zip(spans, selfs) if s.name in names), 0.0)

    def count(names) -> int:
        return sum(1 for s in spans if s.name in names)

    solves = [s for s in spans if s.name in SOLVES]
    finished = [s for s in solves if s.attrs]  # a solve that raised has no result
    nodes = sum(s.attrs["nodes"] for s in finished)
    solve_s = sum(s.duration for s in solves)
    refuted = [s for s in finished if not s.attrs["labelled"]]
    complete = [s for s in spans if s.name in ENUMS and s.attrs and s.attrs["complete"]]
    raw = sum(s.attrs["raw"] for s in complete)
    mops = [s for s in spans if s.name == "graphs.make_random_maximal_outerplanar"
            and s.parent >= 0 and spans[s.parent].name == "harness.mop_with_degree"]
    out = {
        "harness.draw_lists_s": (total({"harness.random_k_assignment"}), "s"),
        "labelling.is_valid_s": (total({"labelling.is_valid"}), "s"),
        "labelling.is_valid_calls": (count({"labelling.is_valid"}), "count"),
        "labelling.list_checks_s": (
            total({"labelling.check_lists", "labelling.respects_lists"}), "s"),
        "constructive.label_self_s": (self_of(LABELLERS), "s"),
        "constructive.labellings": (count(LABELLERS), "count"),
        "graphs.instance_s": (total(INSTANCES), "s"),
        "graphs.instance_yield": (
            count({"harness.mop_with_degree"}) / len(mops) if mops else 0.0, "1"),
        "solvers.nodes": (nodes, "count"),
        "solvers.nodes_per_s": (nodes / solve_s if solve_s else 0.0, "1/s"),
        "solvers.refutations": (len(refuted), "count"),
        "solvers.refute_s": (sum((s.duration for s in refuted), 0.0), "s"),
        "solvers.solve_calls": (len(solves), "count"),
        "solvers.solve_self_s": (self_of(SOLVES), "s"),
        "solvers.nodes_per_solve": (nodes / len(solves) if solves else 0.0, "count"),
        "solvers.enum_self_s": (self_of(ENUMS), "s"),
        "solvers.enum_yield": (
            sum(s.attrs["checked"] for s in complete) / raw if raw else 0.0, "1"),
        "harness.report_s": (total(REPORTS), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(
            (t for s, t in zip(spans, selfs) if s.name.split(".", 1)[0] == layer), 0.0), "s")
    return out
