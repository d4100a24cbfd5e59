"""The three workloads: seeded passes of top-level calls into plabel.

A pass is a list of calls made from (seed, pass index) alone; the program
sees only the generated inputs. A run issues the calls of pass 0, 1, 2, ...
one after another (one client, closed loop) while time is left for another
whole pass, so every pass brings fresh inputs. Each call comes with a judge
that checks its output outside the timed region.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench.checks import digest, labelling_problem
from perfbench.tracing import rebind

P = 2


@dataclass
class Verdict:
    """The judged outcome of one call.

    `problem` is None for a good call. `wrong` marks a returned output that
    failed its check, as opposed to a call that raised. `unsolved` marks a
    call whose search gave up, by running past its time limit or out of
    recursion depth: it returned no answer, and no wrong one, so it is not
    a failed call but counts against the solved fraction. `summary` is what
    is compared against the recorded values of the default seed. `follow`
    holds calls to issue right after this one.
    """

    problem: str | None = None
    items: int = 0
    summary: object = None
    wrong: bool = False
    unsolved: bool = False
    follow: list = field(default_factory=list)


def bad(problem: str) -> Verdict:
    return Verdict(problem=problem, wrong=True)


@dataclass
class Call:
    label: str
    fn: Callable[[], object]
    judge: Callable[[object], Verdict]
    limit: float | None = None


@dataclass
class Context:
    """Per-run state: the imported package, the output directory, and the
    labellings captured from the constructive labellers during a call."""

    pl: object
    out: Path
    captured: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    LABELLERS = ("label_path_greedy", "label_tree_dfs", "label_star_list",
                 "label_outerplanar_list")

    def capture_labellings(self) -> None:
        """Record (graph, p, lists, labelling) for every labeller call, so the
        judge can re-check labellings that the props report does not carry."""
        for name in self.LABELLERS:
            original = getattr(self.pl.constructive, name)

            def recorder(g, p, lists, *args, _fn=original, **kwargs):
                labelling = _fn(g, p, lists, *args, **kwargs)
                self.captured.append((g, p, lists, labelling))
                return labelling

            self._restore += rebind(original, recorder)

    def release(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def random_mop(n: int, rng: random.Random, max_degree: int | None = None,
               min_degree: int = 0) -> list[tuple[int, int]]:
    """Edges of a random maximal outerplanar graph on n >= 3 vertices.

    A triangle grows by ears: each new vertex joins both ends of an edge of
    the outer cycle. With `max_degree`, only edges whose ends are both below
    it take an ear. Draws repeat until the maximum degree is at least
    `min_degree`. The benchmark makes its graphs itself, so that its inputs
    stay the same when the package's own generators change.
    """
    while True:
        cycle, edges, degree = [0, 1, 2], [(0, 1), (1, 2), (0, 2)], [2, 2, 2] + [0] * (n - 3)
        for v in range(3, n):
            free = [i for i in range(len(cycle))
                    if max_degree is None or max(degree[cycle[i]],
                                                 degree[cycle[(i + 1) % len(cycle)]]) < max_degree]
            if not free:
                break
            i = rng.choice(free)
            a, b = cycle[i], cycle[(i + 1) % len(cycle)]
            edges += [(a, v), (b, v)]
            degree[a] += 1
            degree[b] += 1
            degree[v] = 2
            cycle.insert(i + 1, v)
        else:
            if max(degree) >= min_degree:
                return edges


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random tree: each vertex joins a uniformly random earlier one."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def _quiet_main(pl, argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return pl.cli.main(argv)


# --- props -----------------------------------------------------------------------

PROPS_WHY = (
    "constructive labellers, validation, list drawing and instance generation do "
    "all the work and the solver almost none"
)
TREE_SIZES = range(3, 51)
TREE_PS = (1, 2, 3)
TREE_TRIALS = 16
OP_SIZES = range(6, 31)
OP_PS = (2,)
OP_TRIALS = 64


def _props_call(ctx: Context, family: str, n: int, ps: tuple, trials: int, seed: int) -> Call:
    out = ctx.out / "props-report.json"
    argv = ["props", "--family", family, "--size-min", str(n), "--size-max", str(n),
            "--p-values", *map(str, ps), "--trials", str(trials), "--seed", str(seed),
            "--out", str(out)]
    rows_wanted = trials * len(ps)

    def fn():
        ctx.captured.clear()
        return _quiet_main(ctx.pl, argv)

    def judge(rc) -> Verdict:
        if rc != 0:
            return bad(f"exit code {rc}")
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        rows = report["rows"]
        if not report["ok"]:
            return bad("report is not ok")
        if len(rows) != rows_wanted or any(r["outcome"] != "labelled" for r in rows):
            return bad(f"expected {rows_wanted} labelled rows")
        if len(ctx.captured) != rows_wanted:
            return bad(f"{len(ctx.captured)} labellings for {rows_wanted} rows")
        for g, p, lists, labelling in ctx.captured:
            problem = labelling_problem(g.n, g.edges, p, labelling, lists)
            if problem:
                return bad(problem)
        return Verdict(items=len(rows), summary=digest(text))

    return Call(f"{family}-n{n:02d}", fn, judge)


def props_pass(ctx: Context, seed: int, index: int) -> list[Call]:
    """One sweep of `plabel props` through cli.main: one call per (family, size)."""
    rng = random.Random(f"props:{seed}:{index}")
    specs = [("tree", n, TREE_PS, TREE_TRIALS) for n in TREE_SIZES]
    specs += [("outerplanar", n, OP_PS, OP_TRIALS) for n in OP_SIZES]
    rng.shuffle(specs)
    return [_props_call(ctx, *spec, _seed(rng)) for spec in specs]


# --- span ------------------------------------------------------------------------

SPAN_WHY = (
    "a few deep exact searches dominate, with one validation per case; the "
    "recursion crash and stalled refutations stay in as unsolved cases"
)
# per-case time limits: here nearly every refutation on these maximal
# outerplanar graphs ends within 0.5 s or runs on for minutes, min_span
# mostly ends within 20 ms or stalls for minutes, and the path solves take
# up to about 0.5 s. The rare case that ends close to a limit may count as
# done in one run and as timed out in another.
MOP_LIMIT_S = 0.75
PATH_LIMIT_S = 5.0
SPAN_SIZES = range(8, 17)
SPAN_EASY_DELTA = 5
SPAN_EASY_PER_SIZE = 3
SPAN_DEEP_DELTA = 6
SPAN_MIN_SPANS_PER_PASS = 3
SPAN_STALL_SIZES = (13, 14, 15, 16)
SPAN_STALL_MIN_DELTA = 8
SPAN_PATHS = (100, 200, 300, 400)
# solving this path raises RecursionError after about a second, which counts
# as unsolved; it comes every other pass, so that fewer than ten of these
# crashes fall in a run and the tail latency stays among the timed-out calls
SPAN_CRASH_PATH = 600


def _min_span_call(ctx: Context, label: str, g) -> Call:
    floor = g.max_degree + P - 1

    def judge(lam) -> Verdict:
        if not floor <= lam <= 2 * g.max_degree + P - 1:
            return bad(f"span {lam} outside [{floor}, {2 * g.max_degree + P - 1}]")
        return Verdict(items=1, summary=lam)

    return Call(f"min_span-{label}", lambda: ctx.pl.min_span(g, P), judge, MOP_LIMIT_S)


def _refute_call(ctx: Context, label: str, g) -> Call:
    k = g.max_degree + P - 2

    def judge(result) -> Verdict:
        # k is below the pigeonhole bound Delta+p-1, so a labelling is a solver bug
        if result.labelled:
            return bad(f"labelled at k={k}, below the degree bound")
        return Verdict(items=1, summary="infeasible")

    return Call(f"refute-{label}", lambda: ctx.pl.solve_span(g, P, k), judge, MOP_LIMIT_S)


def _path_call(ctx: Context, n: int) -> Call:
    g = ctx.pl.make_path(n)

    def judge(result) -> Verdict:
        if not result.labelled:
            return bad("path reported infeasible at k=4")
        problem = labelling_problem(g.n, g.edges, P, result.labelling)
        return bad(problem) if problem else Verdict(items=1, summary="labelled")

    return Call(f"path-{n}", lambda: ctx.pl.solve_span(g, P, 4), judge, PATH_LIMIT_S)


def _oracle_call(ctx: Context) -> Call:
    out = ctx.out / "oracle-report.json"

    def judge(rc) -> Verdict:
        if rc != 0:
            return bad(f"exit code {rc}")
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        if not report["ok"]:
            return bad("oracle report is not ok")
        # the whole table counts as one case, like every other span call
        return Verdict(items=1, summary=digest(text))

    return Call("oracle", lambda: _quiet_main(ctx.pl, ["oracle", "--out", str(out)]),
                judge, PATH_LIMIT_S)


def span_pass(ctx: Context, seed: int, index: int) -> list[Call]:
    """Exact cases decided one call at a time, each under its time limit.

    Every size in SPAN_SIZES gets SPAN_EASY_PER_SIZE graphs of maximum
    degree SPAN_EASY_DELTA and one of degree SPAN_DEEP_DELTA, each refuted
    at Delta+p-2. The first refutations take milliseconds and are most of
    the calls, so the median latency falls among them; the deeper ones take
    up to a few tenths of a second and a few run past the limit. SPAN_MIN_SPANS_PER_PASS of the
    deeper graphs, taking the sizes in turn, also get a min_span scan, and
    about a quarter of those stall at the degree bound. Each pass adds one
    graph of degree at least SPAN_STALL_MIN_DELTA, whose refutation stalls.
    Drawing graphs by degree and capping the min_span scans keeps the
    number of stalls per pass steady across seeds, so completed cases take
    most of the time. The paths are solved at p=2, k=4.
    """
    rng = random.Random(f"span:{seed}:{index}")
    first = index * SPAN_MIN_SPANS_PER_PASS
    scanned = {SPAN_SIZES[(first + j) % len(SPAN_SIZES)] for j in range(SPAN_MIN_SPANS_PER_PASS)}
    calls = []
    for n in SPAN_SIZES:
        for j in range(SPAN_EASY_PER_SIZE):
            g = ctx.pl.Graph(n, random_mop(n, rng, SPAN_EASY_DELTA, SPAN_EASY_DELTA))
            calls.append(_refute_call(ctx, f"n{n}-easy{j}", g))
        g = ctx.pl.Graph(n, random_mop(n, rng, SPAN_DEEP_DELTA, SPAN_DEEP_DELTA))
        calls.append(_refute_call(ctx, f"n{n}-deep", g))
        if n in scanned:
            calls.append(_min_span_call(ctx, f"n{n}-deep", g))
    n = SPAN_STALL_SIZES[index % len(SPAN_STALL_SIZES)]
    g = ctx.pl.Graph(n, random_mop(n, rng, min_degree=SPAN_STALL_MIN_DELTA))
    calls.append(_refute_call(ctx, f"n{n}-stall", g))
    paths = SPAN_PATHS + ((SPAN_CRASH_PATH,) if index % 2 == 0 else ())
    calls += [_path_call(ctx, n) for n in paths]
    calls.append(_oracle_call(ctx))
    rng.shuffle(calls)
    return calls


# --- choose ----------------------------------------------------------------------

CHOOSE_WHY = (
    "tens of thousands of tiny list solves plus assignment enumeration, so "
    "per-solve setup cost shows rather than deep search"
)
HUNT_SIZES = range(3, 9)
HUNT_ROUNDS = 3
HUNT_BUDGET = 200
CONTROL = dict(leaves=3, k=4)
STAR_RANDOM = dict(leaves=3, k=5, budget=3000, calls=2)
CERTIFY = dict(path=2, k=4, universe=6)


def _recheck_call(ctx: Context, label: str, cert) -> Call:
    def judge(outcome) -> Verdict:
        ok, detail = outcome
        return Verdict(items=1, summary=ok) if ok else bad(f"recheck failed: {detail}")

    return Call(f"recheck-{label}", lambda: ctx.pl.recheck_certificate(cert), judge)


def _bad_assignment_call(ctx: Context, label: str, g, k: int, **kwargs) -> Call:
    budget = kwargs["budget"]

    def judge(cert) -> Verdict:
        if cert.kind not in ("lower-witness", "exhausted"):
            return bad(f"unexpected certificate kind {cert.kind}")
        if not 1 <= cert.checked <= budget or cert.k != k or cert.p != P:
            return bad("certificate fields disagree with the call")
        follow = [_recheck_call(ctx, label, cert)] if cert.kind == "lower-witness" else []
        return Verdict(items=cert.checked, summary=f"{cert.kind}/{cert.checked}", follow=follow)

    return Call(f"hunt-{label}", lambda: ctx.pl.find_bad_assignment(g, P, k, **kwargs), judge)


def _certify_call(ctx: Context) -> Call:
    g = ctx.pl.make_path(CERTIFY["path"])
    k, universe = CERTIFY["k"], CERTIFY["universe"]

    def judge(cert) -> Verdict:
        if cert.kind != "upper-certified" or not cert.complete:
            return bad(f"certification ended {cert.kind}")
        return Verdict(items=cert.checked, summary=f"{cert.kind}/{cert.checked}")

    return Call("certify-P2", lambda: ctx.pl.certify_choosable(g, P, k, universe), judge)


def choose_pass(ctx: Context, seed: int, index: int) -> list[Call]:
    """Witness hunts at the general conjecture's bound Delta+2p over the hunt
    graphs (trees, stars and paths on 3-8 vertices), the star positive
    control one list slot below its choosability, random-mode star hunts,
    and one exhaustive certification. Witnesses are rechecked by follow-up
    calls. Two random hunts per pass put the tail latency in the middle of
    their group rather than at its edge."""
    rng = random.Random(f"choose:{seed}:{index}")
    pl = ctx.pl
    calls = []
    for r in range(HUNT_ROUNDS):
        for t, size in enumerate(HUNT_SIZES):
            if t % 3 == 0:
                g = pl.Graph(size, random_tree(size, rng))
            elif t % 3 == 1:
                g = pl.make_star(size - 1)
            else:
                g = pl.make_path(size)
            calls.append(_bad_assignment_call(
                ctx, f"general-n{size}-{r}", g, g.max_degree + 2 * P, budget=HUNT_BUDGET))
    calls.append(_bad_assignment_call(
        ctx, "control", pl.make_star(CONTROL["leaves"]), CONTROL["k"], budget=HUNT_BUDGET))
    calls += [_bad_assignment_call(
        ctx, f"star-random{j}", pl.make_star(STAR_RANDOM["leaves"]), STAR_RANDOM["k"],
        budget=STAR_RANDOM["budget"], mode="random", seed=_seed(rng))
        for j in range(STAR_RANDOM["calls"])]
    calls.append(_certify_call(ctx))
    rng.shuffle(calls)
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_pass: Callable[[Context, int, int], list[Call]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("props", PROPS_WHY, props_pass),
        Workload("span", SPAN_WHY, span_pass),
        Workload("choose", CHOOSE_WHY, choose_pass),
    )
}
