"""Experiment orchestration: oracle tables, property suites, and witness hunts.

Everything here is deterministic: per-instance randomness is derived from the
master seed and the instance coordinates, rows are assembled in instance-id
order, and serialized reports contain no wall-clock fields, so a fixed spec
and seed reproduce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations
from math import ceil, log

from .constructive import (
    OuterplanarAudit,
    TheoremViolation,
    label_outerplanar_list,
    label_path_greedy,
    label_star_list,
    label_tree_dfs,
)
from .graphs import (
    Graph,
    _grow_by_ears,
    emit_graph6,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
)
from .labelling import Edge, Vertex, _elements, full_lists, lists_to_json
from .solvers import find_bad_assignment, lp1_min_span, min_colors, solve_list

__all__ = [
    "ExperimentSpec",
    "Report",
    "run_oracle_suite",
    "run_property_suite",
    "hunt_counterexamples",
    "random_k_assignment",
    "required_list_size",
    "make_instance",
    "mop_with_degree",
    "small_connected_graphs",
    "emit_dot",
]

CSV_COLUMNS = ("instance", "family", "n", "p", "k", "outcome", "span", "fallbacks", "nodes")
# a property trial whose index is a multiple of this, if small, is re-solved exactly
_CROSS_CHECK_EVERY = 50


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a graph family, size and p ranges, assignment policy,
    trial count, master seed, and a solver budget for adversarial searches."""

    family: str
    sizes: tuple[int, ...]
    p_values: tuple[int, ...]
    policy: str = "random-k"
    trials: int = 1000
    seed: int = 0
    budget: int = 200
    universe: int | None = None

    def __post_init__(self):
        if not self.sizes or not self.p_values:
            raise ValueError("sizes and p_values must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.policy not in ("full-range", "random-k", "adversarial-search"):
            raise ValueError(f"unknown assignment policy {self.policy!r}")


@dataclass
class Report:
    """Instance rows plus verdicts, with the run parameters embedded.

    The meta block records everything needed to regenerate any row offline:
    the suite name and the full experiment coordinates. Rows are serialized
    in instance-id order and contain no wall-clock fields, so identical
    parameters produce byte-identical artifacts.
    """

    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def add_row(self, instance, family, n, p, k, outcome, span="", **extra) -> None:
        self.rows.append({"instance": instance, "family": family, "n": n, "p": p, "k": k,
                          "outcome": outcome, "span": span, **extra})

    def check(self, claim, instance, expected, actual, passed=None, certificate=None) -> None:
        """Append a verdict; it passes when actual == expected unless passed says otherwise."""
        verdict = {"claim": claim, "instance": instance, "expected": expected, "actual": actual,
                   "pass": actual == expected if passed is None else passed}
        if certificate is not None:
            verdict["certificate"] = certificate
        self.verdicts.append(verdict)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: str(r.get("instance", "")))

    def to_json_text(self) -> str:
        obj = {
            "ok": self.ok,
            "meta": self.meta,
            "rows": self.sorted_rows(),
            "verdicts": self.verdicts,
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in self.sorted_rows():
            writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
        return buf.getvalue()


def _rng(*parts) -> random.Random:
    return random.Random("|".join(str(x) for x in parts))


def random_k_assignment(g: Graph, k: int, universe: int, rng: random.Random) -> dict:
    """Each element independently draws a k-subset of {0..universe}.

    The sets, and the generator's state afterwards, are those of
    set(rng.sample(range(universe + 1), k)) per element. Below sample's own
    switch from its pool branch to its set branch, sample's getrandbits calls
    are made here directly, without its per-call overhead, and each pick
    costs one store into the pool.
    """
    if universe + 1 < k:
        raise ValueError("universe too small for a k-list")
    n = universe + 1
    if k < 0 or n > 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        return {x: set(rng.sample(range(n), k)) for x in _elements(g)}
    getrandbits = rng.getrandbits
    draws = [(m, m.bit_length(), m - 1) for m in range(n, n - k, -1)]
    colors = list(range(n))
    lists = {}
    # the pick leaves the live pool pool[:m]; its last slot moves into the hole
    for x in _elements(g):
        pool = colors[:]
        picks = lists[x] = set()
        for m, bits, last in draws:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picks.add(pool[j])
            pool[j] = pool[last]
    return lists


def mop_with_degree(n: int, seed: int, min_delta: int = 0, max_delta: int | None = None) -> Graph:
    """Maximal outerplanar graph on n vertices with maximum degree in
    [min_delta, max_delta]. Without max_delta, a deterministic retry over
    sub-seeds of make_random_maximal_outerplanar. With it, seeded ears on
    outer edges below the cap, or, where those run out, the zig-zag strip,
    whose maximum degree (at most 4) is the least possible."""
    if max_delta is None:
        for attempt in range(10000):
            g = make_random_maximal_outerplanar(n, seed * 10007 + attempt)
            if g.max_degree >= min_delta:
                return g
    elif n >= 3:
        grown = _grow_by_ears(n, random.Random(f"mop-cap:{n}:{seed}"), max_delta)
        strip = [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n]
        g = grown[0] if grown else Graph(n, strip)
        if min_delta <= g.max_degree <= max_delta:
            return g
    raise ValueError(
        f"no maximal outerplanar graph on {n} vertices with degree in "
        f"[{min_delta}, {max_delta}] found from seed {seed}"
    )


@dataclass(frozen=True)
class Family:
    """One constructive family: least p, least size at each p, list-size rule,
    instance maker and labeller. Makers and labellers name the module-level
    functions in a lambda, so rebinding those names (as a tracer does) reaches them."""

    min_p: int
    min_size: Callable  # p -> least size
    list_size: Callable  # (g, p) -> k
    make: Callable  # (size, p, seed, trial) -> Graph
    label: Callable  # (g, p, lists, audit) -> labelling


FAMILIES = {
    "path": Family(
        1, lambda p: 1, lambda g, p: 2 * p + 1,
        lambda n, p, seed, trial: make_path(n),
        lambda g, p, lists, audit: label_path_greedy(g, p, lists),
    ),
    "tree": Family(
        1, lambda p: 1, lambda g, p: max(g.max_degree, 2) + 2 * p - 1,
        lambda n, p, seed, trial: make_random_tree(n, seed * 1000003 + trial),
        lambda g, p, lists, audit: label_tree_dfs(g, p, lists),
    ),
    # size is the leaf count
    "star": Family(
        2, lambda p: 3, lambda g, p: (g.n - 1) + 2 * p - 1,
        lambda n, p, seed, trial: make_star(n),
        lambda g, p, lists, audit: label_star_list(g, p, lists),
    ),
    # Delta >= p+3 needs p+4 vertices
    "outerplanar": Family(
        1, lambda p: p + 4, lambda g, p: g.max_degree + 2 * p - 1,
        lambda n, p, seed, trial: mop_with_degree(n, seed * 1000003 + trial, min_delta=p + 3),
        lambda g, p, lists, audit: label_outerplanar_list(g, p, lists, audit=audit),
    ),
}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


def required_list_size(family: str, g: Graph, p: int) -> int:
    """The guaranteed-sufficient list size for each constructive labeller."""
    return _family(family).list_size(g, p)


def make_instance(family: str, size: int, p: int, seed: int, trial: int) -> Graph:
    return _family(family).make(size, p, seed, trial)


# --- oracle tables ---------------------------------------------------------------


# One row per family: name, instance stem, least size, maker (size -> graph),
# color count (g, p -> chi), closed form (size, p -> chi), and whether the span
# must also sit in the bipartite band [Delta+p-1, Delta+p]. The stars' size is
# their leaf count.
_ORACLE = (
    ("path", "path-k", 2, lambda k: make_path(k), lambda g, p: min_colors(g, p),
     lambda k, p: p + 2 if k == 2 else p + 3, False),
    ("star", "star-n", 1, lambda n: make_star(n), lambda g, p: min_colors(g, p),
     lambda n, p: n + p if p < n else n + p + 1, True),
    ("vertex-path", "vertexpath-k", 2, lambda k: make_path(k),
     lambda g, p: lp1_min_span(g, p) + 1,
     lambda k, p: p + 1 if k == 2 else (p + 2 if k <= 4 else p + 3), False),
)


def run_oracle_suite(p_values=(1, 2, 3, 4), sizes=(1, 2, 3, 4, 5, 6, 7, 8)) -> Report:
    """Exact solver against the closed forms for paths and stars, plus the
    distance-two vertex-labelling table for paths. Any mismatch fails."""
    if not p_values or not sizes:
        raise ValueError("p_values and sizes must be non-empty")
    if any(p < 1 for p in p_values):
        raise ValueError("the closed forms need p >= 1")
    if any(n < 1 for n in sizes):
        raise ValueError("the closed forms need sizes >= 1")
    report = Report(meta={"suite": "oracle", "p_values": list(p_values), "sizes": list(sizes)})
    for family, stem, least, make, count, closed, band in _ORACLE:
        for p in p_values:
            for size in sizes:
                if size < least:
                    continue
                g = make(size)
                chi = count(g, p)
                inst = f"oracle-{stem}{size:02d}-p{p}"
                report.add_row(inst, family, g.n, p, chi - 1, "solved", chi - 1)
                report.check(f"{family}-color-count", inst, closed(size, p), chi)
                if band:
                    low = g.max_degree + p - 1
                    report.check(f"{family}-bipartite-band", inst, f"[{low},{low + 1}]",
                                 chi - 1, passed=low <= chi - 1 <= low + 1)
    return report


# --- property suites ---------------------------------------------------------------


def _counterexample(g: Graph, p: int, lists: dict) -> dict:
    return {"graph": emit_graph6(g), "p": p, "lists": json.loads(lists_to_json(p, lists))}


def _instance(spec: ExperimentSpec, p: int, trial: int):
    """Property trial `trial` at p: its size, instance id, graph and guaranteed list size."""
    size = spec.sizes[trial % len(spec.sizes)]
    g = make_instance(spec.family, size, p, spec.seed, trial)
    k = required_list_size(spec.family, g, p)
    return size, f"props-{spec.family}-n{size:02d}-p{p}-t{trial:04d}", g, k


def _hunt(report: Report, inst: str, family: str, g: Graph, p: int, k: int,
          universe: int | None, budget: int):
    """A lexicographic witness hunt and its report row. Returns the outcome
    and, for a lower witness, its certificate as JSON data."""
    cert = find_bad_assignment(g, p, k, universe=universe, budget=budget, mode="lex")
    report.add_row(inst, family, g.n, p, k, cert.kind, nodes=cert.checked)
    return cert.kind, json.loads(cert.to_json()) if cert.kind == "lower-witness" else None


def run_property_suite(spec: ExperimentSpec) -> Report:
    """Run a constructive labeller over random assignments of the guaranteed
    size; assert zero failures. Small instances are periodically cross-checked
    against the complete solver. The adversarial-search policy runs a witness
    hunt at the guaranteed size instead and expects exhaustion, since a bad
    assignment there would contradict a proven bound.

    Trials run outermost and the p values inside each, so every p of a trial
    meets the same memoized graph, its element tuple and its automorphisms.
    Each (trial, p) seeds its own list generator, and each p value's verdicts
    are buffered and reported in p-value order, so the report bytes are those
    of a loop over p outermost."""
    family = _family(spec.family)
    if any(p < family.min_p for p in spec.p_values):
        raise ValueError(f"family {spec.family!r} needs p >= {family.min_p}")
    least = max(map(family.min_size, spec.p_values))
    if min(spec.sizes) < least:
        raise ValueError(f"family {spec.family!r} needs size >= {least}")
    report = Report(meta={"suite": "props", **asdict(spec)})
    adversarial = spec.policy == "adversarial-search"
    # by position in spec.p_values: that p value's trial verdicts and counts
    checks = [Report() for _ in spec.p_values]
    failures, violations, full_resolves = ([0] * len(spec.p_values) for _ in range(3))
    for trial in range(spec.trials):
        for at, p in enumerate(spec.p_values):
            size, inst, g, k = _instance(spec, p, trial)
            if adversarial:
                kind, witness = _hunt(report, inst, spec.family, g, p, k, spec.universe, spec.budget)
                if witness is not None:
                    failures[at] += 1
                    checks[at].check(f"{spec.family}-guarantee-adversarial", inst, "exhausted",
                                     kind, certificate=witness)
                continue
            rng = _rng(spec.seed, spec.family, size, p, trial)
            if spec.policy == "full-range":
                lists = full_lists(g, range(k))
            else:
                universe = spec.universe if spec.universe is not None else k + 2 * p
                lists = random_k_assignment(g, k, universe, rng)
            audit = OuterplanarAudit()
            try:
                labelling = family.label(g, p, lists, audit)
            except (AssertionError, TheoremViolation) as exc:
                failures[at] += 1
                violations[at] += isinstance(exc, TheoremViolation)
                report.add_row(inst, spec.family, g.n, p, k, "failed", fallbacks=audit.full_resolves)
                checks[at].check(f"{spec.family}-labelling", inst, "labelled",
                                 f"{type(exc).__name__}: {exc}",
                                 certificate=_counterexample(g, p, lists))
                continue
            full_resolves[at] += audit.full_resolves
            colors = labelling.values()
            report.add_row(inst, spec.family, g.n, p, k, "labelled", max(colors) - min(colors),
                           fallbacks=audit.full_resolves)
            if trial % _CROSS_CHECK_EVERY == 0 and g.n + g.m <= 12:
                if not solve_list(g, p, lists).labelled:
                    checks[at].check(f"{spec.family}-solver-agreement", inst, "labelable",
                                     "solver-infeasible", certificate=_counterexample(g, p, lists))
    for at, p in enumerate(spec.p_values):
        report.verdicts += checks[at].verdicts
        summary = f"props-{spec.family}-p{p}"
        if adversarial:
            report.check(f"{spec.family}-zero-witnesses-p{p}", summary, 0, failures[at])
            continue
        report.check(f"{spec.family}-zero-failures-p{p}", summary, 0, failures[at])
        report.check(f"{spec.family}-zero-research-events-p{p}", summary, 0,
                     violations[at] + full_resolves[at])
    return report


# --- counterexample hunts ---------------------------------------------------------


def _hunt_graph(conjecture: str, spec: ExperimentSpec, trial: int, p: int):
    """Hunt trial `trial` at p: its graph and list size, or None for a size
    the outerplanar regime skips."""
    size = spec.sizes[trial % len(spec.sizes)]
    if conjecture == "outerplanar":
        # the open regime: outerplanar with maximum degree at most p+2. A
        # maximal outerplanar graph on n >= 3 vertices has degree sum 4n-6 and
        # at least two vertices of degree 2, so at p=1 (maximum degree 3)
        # 4n-6 <= 3n-2 leaves only n = 3 and 4
        if size < 3 or (p == 1 and size > 4):
            return None
        g = mop_with_degree(size, spec.seed * 1000003 + trial, max_delta=p + 2)
        return g, g.max_degree + 2 * p - 1
    # a tree, star or path by trial; the star on `size` vertices has size-1 leaves
    name = ("tree", "star", "path")[trial % 3]
    g = FAMILIES[name].make(max(1, size - 1) if name == "star" else size, p, spec.seed, trial)
    return g, g.max_degree + 2 * p


def hunt_counterexamples(conjecture: str, spec: ExperimentSpec) -> Report:
    """Search for bad k-assignments at the conjectured choosability bounds.

    "general" probes the bound Delta+2p over mixed small graphs;
    "outerplanar" probes Delta+2p-1 on outerplanar graphs in the open
    low-degree regime (maximum degree at most p+2). The expected outcome is
    exhaustion within budget; a lower witness is a research event, emitted
    with its full certificate and failing the run so a human looks at it. A
    positive control (a star at one below its known choosability) checks
    that the witness machinery can actually find one.

    As in run_property_suite, trials run outermost and the p values inside,
    and the verdicts are reported in p-value order, then the control.
    """
    if conjecture not in ("general", "outerplanar"):
        raise ValueError("conjecture must be 'general' or 'outerplanar'")
    if any(p < 1 for p in spec.p_values):
        raise ValueError("the conjectured bounds need p >= 1")
    # trial t runs size t mod len(sizes); outerplanar hunts skip the sizes that
    # _hunt_graph skips, so each p must keep one
    sizes = spec.sizes[: spec.trials]
    if conjecture == "outerplanar" and max(sizes) < 3:
        raise ValueError("an outerplanar hunt needs a size >= 3 among its trials")
    if conjecture == "outerplanar" and 1 in spec.p_values and not {3, 4} & set(sizes):
        raise ValueError("an outerplanar hunt at p=1 needs a size of 3 or 4 among its trials")
    report = Report(meta={"suite": "hunt", "conjecture": conjecture, **asdict(spec)})
    # by position in spec.p_values: that p value's verdicts
    checks = [Report() for _ in spec.p_values]
    for trial in range(spec.trials):
        for at, p in enumerate(spec.p_values):
            hunted = _hunt_graph(conjecture, spec, trial, p)
            if hunted is None:
                continue
            g, k = hunted
            inst = f"hunt-{conjecture}-n{g.n:02d}-p{p}-t{trial:04d}"
            kind, witness = _hunt(report, inst, "hunt", g, p, k, spec.universe, spec.budget)
            checks[at].check(f"conjecture-{conjecture}-survives", inst, "exhausted", kind,
                             certificate=witness)
    for buffered in checks:
        report.verdicts += buffered.verdicts
    # positive control: a star one list-slot below its known choosability
    control_n, control_p = 3, 2
    kind, _ = _hunt(report, "hunt-control-star", "hunt", make_star(control_n), control_p,
                    control_n + 1, None, spec.budget)
    report.check("witness-machinery-control", "hunt-control-star", "lower-witness", kind)
    return report


# --- small-graph enumeration (for exhaustive bridges) -------------------------------


def small_connected_graphs(max_n: int) -> list[Graph]:
    """All connected graphs with at most max_n vertices, one per isomorphism
    class, by brute-force canonicalization. Desk scale only."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            if not g.is_connected():
                continue
            canon = min(
                tuple(sorted(tuple(sorted((sig[u], sig[v]))) for u, v in edges))
                for sig in permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            out.append(g)
    return out


# --- DOT rendering -------------------------------------------------------------------


def emit_dot(g: Graph, labelling: dict | None = None) -> str:
    """Graphviz text with colors attached as vertex/edge labels."""
    lines = ["graph G {"]
    labelling = labelling or {}
    for v in range(g.n):
        color = labelling.get(Vertex(v))
        attr = f' [label="{v}:{color}"]' if color is not None else f' [label="{v}"]'
        lines.append(f"  {v}{attr};")
    for u, v in g.sorted_edges():
        color = labelling.get(Edge(u, v))
        attr = f' [label="{color}"]' if color is not None else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
