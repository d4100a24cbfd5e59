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
from dataclasses import dataclass, field
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
    emit_graph6,
    make_path,
    make_random_maximal_outerplanar,
    make_random_tree,
    make_star,
)
from .labelling import Edge, Vertex, elements_of, full_lists, lists_to_json
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


def _spec_meta(spec: ExperimentSpec) -> dict:
    return {
        "family": spec.family,
        "sizes": list(spec.sizes),
        "p_values": list(spec.p_values),
        "policy": spec.policy,
        "trials": spec.trials,
        "seed": spec.seed,
        "budget": spec.budget,
        "universe": spec.universe,
    }


def random_k_assignment(g: Graph, k: int, universe: int, rng: random.Random) -> dict:
    """Each element independently draws a k-subset of {0..universe}.

    The sets, and the generator's state afterwards, are those of
    set(rng.sample(range(universe + 1), k)) per element. Below sample's own
    switch from its pool branch to its set branch, sample's getrandbits calls
    are made here directly, without its per-call overhead.
    """
    if universe + 1 < k:
        raise ValueError("universe too small for a k-list")
    n = universe + 1
    if k < 0 or n > 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        return {x: set(rng.sample(range(n), k)) for x in elements_of(g)}
    getrandbits = rng.getrandbits
    draws = [(m, m.bit_length()) for m in range(n, n - k, -1)]
    colors = list(range(n))
    lists = {}
    for x in elements_of(g):
        pool = colors[:]
        chosen = set()
        for m, bits in draws:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            chosen.add(pool[j])
            pool[j] = pool[m - 1]
        lists[x] = chosen
    return lists


def mop_with_degree(n: int, seed: int, min_delta: int = 0, max_delta: int | None = None) -> Graph:
    """Deterministic retry over sub-seeds until the degree constraint holds."""
    for attempt in range(10000):
        g = make_random_maximal_outerplanar(n, seed * 10007 + attempt)
        if g.max_degree >= min_delta and (max_delta is None or g.max_degree <= max_delta):
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
    for p in p_values:
        for k in sizes:
            if k < 2:
                continue
            chi = min_colors(make_path(k), p)
            expected = p + 2 if k == 2 else p + 3
            inst = f"oracle-path-k{k:02d}-p{p}"
            report.rows.append(
                {"instance": inst, "family": "path", "n": k, "p": p, "k": chi - 1,
                 "outcome": "solved", "span": chi - 1}
            )
            report.verdicts.append(
                {"claim": "path-color-count", "instance": inst,
                 "expected": expected, "actual": chi, "pass": chi == expected}
            )
    for p in p_values:
        for n in sizes:
            if n < 1:
                continue
            chi = min_colors(make_star(n), p)
            lam = chi - 1
            expected = n + p if p < n else n + p + 1
            inst = f"oracle-star-n{n:02d}-p{p}"
            report.rows.append(
                {"instance": inst, "family": "star", "n": n + 1, "p": p, "k": lam,
                 "outcome": "solved", "span": lam}
            )
            report.verdicts.append(
                {"claim": "star-color-count", "instance": inst,
                 "expected": expected, "actual": chi, "pass": chi == expected}
            )
            # bipartite band: span within [Delta+p-1, Delta+p]
            report.verdicts.append(
                {"claim": "star-bipartite-band", "instance": inst,
                 "expected": f"[{n + p - 1},{n + p}]", "actual": lam,
                 "pass": n + p - 1 <= lam <= n + p}
            )
    for p in p_values:
        for k in sizes:
            if k < 2:
                continue
            chi = lp1_min_span(make_path(k), p) + 1
            expected = p + 1 if k == 2 else (p + 2 if k <= 4 else p + 3)
            inst = f"oracle-vertexpath-k{k:02d}-p{p}"
            report.rows.append(
                {"instance": inst, "family": "vertex-path", "n": k, "p": p, "k": chi - 1,
                 "outcome": "solved", "span": chi - 1}
            )
            report.verdicts.append(
                {"claim": "vertex-path-color-count", "instance": inst,
                 "expected": expected, "actual": chi, "pass": chi == expected}
            )
    return report


# --- property suites ---------------------------------------------------------------


def _counterexample(g: Graph, p: int, lists: dict) -> dict:
    return {"graph": emit_graph6(g), "p": p, "lists": json.loads(lists_to_json(p, lists))}


def run_property_suite(spec: ExperimentSpec) -> Report:
    """Run a constructive labeller over random assignments of the guaranteed
    size; assert zero failures. Small instances are periodically cross-checked
    against the complete solver."""
    family = _family(spec.family)
    if any(p < family.min_p for p in spec.p_values):
        raise ValueError(f"family {spec.family!r} needs p >= {family.min_p}")
    least = max(map(family.min_size, spec.p_values))
    if min(spec.sizes) < least:
        raise ValueError(f"family {spec.family!r} needs size >= {least}")
    report = Report(meta={"suite": "props", **_spec_meta(spec)})
    if spec.policy == "adversarial-search":
        return _adversarial_property_suite(spec, report)
    for p in spec.p_values:
        failures = 0
        violations = 0
        full_resolves = 0
        for trial in range(spec.trials):
            size = spec.sizes[trial % len(spec.sizes)]
            g = make_instance(spec.family, size, p, spec.seed, trial)
            k = required_list_size(spec.family, g, p)
            rng = _rng(spec.seed, spec.family, size, p, trial)
            if spec.policy == "full-range":
                lists = full_lists(g, range(k))
            else:
                universe = spec.universe if spec.universe is not None else k + 2 * p
                lists = random_k_assignment(g, k, universe, rng)
            inst = f"props-{spec.family}-n{size:02d}-p{p}-t{trial:04d}"
            audit = OuterplanarAudit()
            try:
                labelling = family.label(g, p, lists, audit)
            except (AssertionError, TheoremViolation) as exc:
                failures += 1
                if isinstance(exc, TheoremViolation):
                    violations += 1
                report.rows.append(
                    {"instance": inst, "family": spec.family, "n": g.n, "p": p, "k": k,
                     "outcome": "failed", "span": "", "fallbacks": audit.fallbacks}
                )
                report.verdicts.append(
                    {"claim": f"{spec.family}-labelling", "instance": inst,
                     "expected": "labelled", "actual": f"{type(exc).__name__}: {exc}",
                     "pass": False, "certificate": _counterexample(g, p, lists)}
                )
                continue
            full_resolves += audit.full_resolves
            colors = labelling.values()
            report.rows.append(
                {"instance": inst, "family": spec.family, "n": g.n, "p": p, "k": k,
                 "outcome": "labelled", "span": max(colors) - min(colors),
                 "fallbacks": audit.fallbacks}
            )
            if trial % _CROSS_CHECK_EVERY == 0 and g.n + g.m <= 12:
                if not solve_list(g, p, lists).labelled:
                    report.verdicts.append(
                        {"claim": f"{spec.family}-solver-agreement", "instance": inst,
                         "expected": "labelable", "actual": "solver-infeasible",
                         "pass": False, "certificate": _counterexample(g, p, lists)}
                    )
        report.verdicts.append(
            {"claim": f"{spec.family}-zero-failures-p{p}", "instance": f"props-{spec.family}-p{p}",
             "expected": 0, "actual": failures, "pass": failures == 0}
        )
        report.verdicts.append(
            {"claim": f"{spec.family}-zero-research-events-p{p}",
             "instance": f"props-{spec.family}-p{p}",
             "expected": 0, "actual": violations + full_resolves,
             "pass": violations + full_resolves == 0}
        )
    return report


def _adversarial_property_suite(spec: ExperimentSpec, report: Report) -> Report:
    """Witness hunts at the guaranteed list size: any bad assignment found
    there would contradict a proven bound, so the expectation is exhaustion."""
    for p in spec.p_values:
        witnesses = 0
        for trial in range(spec.trials):
            size = spec.sizes[trial % len(spec.sizes)]
            g = make_instance(spec.family, size, p, spec.seed, trial)
            k = required_list_size(spec.family, g, p)
            cert = find_bad_assignment(
                g, p, k, universe=spec.universe, budget=spec.budget, mode="lex"
            )
            inst = f"props-{spec.family}-n{size:02d}-p{p}-t{trial:04d}"
            report.rows.append(
                {"instance": inst, "family": spec.family, "n": g.n, "p": p, "k": k,
                 "outcome": cert.kind, "span": "", "nodes": cert.checked}
            )
            if cert.kind == "lower-witness":
                witnesses += 1
                report.verdicts.append(
                    {"claim": f"{spec.family}-guarantee-adversarial", "instance": inst,
                     "expected": "exhausted", "actual": "lower-witness", "pass": False,
                     "certificate": json.loads(cert.to_json())}
                )
        report.verdicts.append(
            {"claim": f"{spec.family}-zero-witnesses-p{p}",
             "instance": f"props-{spec.family}-p{p}",
             "expected": 0, "actual": witnesses, "pass": witnesses == 0}
        )
    return report


# --- counterexample hunts ---------------------------------------------------------


def _hunt_graphs(conjecture: str, spec: ExperimentSpec, p: int):
    for trial in range(spec.trials):
        size = spec.sizes[trial % len(spec.sizes)]
        if conjecture == "outerplanar":
            # the open regime: outerplanar with maximum degree at most p+2
            if size < 3:
                continue
            g = mop_with_degree(size, spec.seed * 1000003 + trial, max_delta=p + 2)
            yield trial, g, g.max_degree + 2 * p - 1
        else:
            kind = trial % 3
            if kind == 0:
                g = make_random_tree(size, spec.seed * 1000003 + trial)
            elif kind == 1:
                g = make_star(max(1, size - 1))
            else:
                g = make_path(size)
            yield trial, g, g.max_degree + 2 * p


def hunt_counterexamples(conjecture: str, spec: ExperimentSpec) -> Report:
    """Search for bad k-assignments at the conjectured choosability bounds.

    "general" probes the bound Delta+2p over mixed small graphs;
    "outerplanar" probes Delta+2p-1 on outerplanar graphs in the open
    low-degree regime (maximum degree at most p+2). The expected outcome is
    exhaustion within budget; a lower witness is a research event, emitted
    with its full certificate and failing the run so a human looks at it. A
    positive control (a star at one below its known choosability) checks
    that the witness machinery can actually find one.
    """
    if conjecture not in ("general", "outerplanar"):
        raise ValueError("conjecture must be 'general' or 'outerplanar'")
    if any(p < 1 for p in spec.p_values):
        raise ValueError("the conjectured bounds need p >= 1")
    # trial t runs size t mod len(sizes); outerplanar hunts skip sizes below 3
    if conjecture == "outerplanar" and max(spec.sizes[: spec.trials]) < 3:
        raise ValueError("an outerplanar hunt needs a size >= 3 among its trials")
    report = Report(meta={"suite": "hunt", "conjecture": conjecture, **_spec_meta(spec)})
    for p in spec.p_values:
        for trial, g, k in _hunt_graphs(conjecture, spec, p):
            inst = f"hunt-{conjecture}-n{g.n:02d}-p{p}-t{trial:04d}"
            cert = find_bad_assignment(
                g, p, k, universe=spec.universe, budget=spec.budget, mode="lex"
            )
            report.rows.append(
                {"instance": inst, "family": "hunt", "n": g.n, "p": p, "k": k,
                 "outcome": cert.kind, "span": "", "nodes": cert.checked}
            )
            verdict = {
                "claim": f"conjecture-{conjecture}-survives", "instance": inst,
                "expected": "exhausted", "actual": cert.kind,
                "pass": cert.kind == "exhausted",
            }
            if cert.kind == "lower-witness":
                verdict["certificate"] = json.loads(cert.to_json())
            report.verdicts.append(verdict)
    # positive control: a star one list-slot below its known choosability
    control_n, control_p = 3, 2
    g = make_star(control_n)
    cert = find_bad_assignment(g, control_p, control_n + 1, budget=spec.budget, mode="lex")
    report.rows.append(
        {"instance": "hunt-control-star", "family": "hunt", "n": g.n, "p": control_p,
         "k": control_n + 1, "outcome": cert.kind, "span": "", "nodes": cert.checked}
    )
    report.verdicts.append(
        {"claim": "witness-machinery-control", "instance": "hunt-control-star",
         "expected": "lower-witness", "actual": cert.kind,
         "pass": cert.kind == "lower-witness"}
    )
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
