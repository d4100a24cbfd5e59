"""Command-line front end.

Exit codes: 0 success, 1 property/verdict failure, 2 usage or input error,
3 a TheoremViolation research event.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from .constructive import OuterplanarAudit, TheoremViolation, label_star_span
from .graphs import FORMATS, GraphParseError, emit_graph, incidence_graph, make_star, parse_graph
from .harness import (
    FAMILIES,
    ExperimentSpec,
    emit_dot,
    hunt_counterexamples,
    run_oracle_suite,
    run_property_suite,
)
from .labelling import full_lists, labelling_to_json, lists_from_json
from .solvers import (
    Certificate,
    _min_span_scan,
    certify_choosable,
    find_bad_assignment,
    recheck_certificate,
    solve_list,
    solve_span,
)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_graph(args):
    if not args.graph:
        raise ValueError("--graph is required for this command")
    return parse_graph(_read(args.graph), args.format)


def _load_lists(args):
    p_file, lists = lists_from_json(_read(args.lists))
    p = args.p if args.p is not None else p_file
    return p, lists


def cmd_solve(args) -> int:
    g = _load_graph(args)
    if args.k is None:
        lam, result = _min_span_scan(g, args.p)
        print(f"lambda={lam} chi={lam + 1}")
    else:
        result = solve_span(g, args.p, args.k)
        if not result.labelled:
            print(f"infeasible with colors in 0..{args.k} ({result.nodes} nodes)")
            return 0
        print(f"labelled with colors in 0..{args.k} ({result.nodes} nodes)")
    _write_out(labelling_to_json(args.p, result.labelling), args.out)
    if args.dot:
        Path(args.dot).write_text(emit_dot(g, result.labelling), encoding="utf-8")
    return 0


def cmd_list_solve(args) -> int:
    g = _load_graph(args)
    p, lists = _load_lists(args)
    result = solve_list(g, p, lists)
    if result.labelled:
        print(f"labelled ({result.nodes} nodes)")
        _write_out(labelling_to_json(p, result.labelling), args.out)
        return 0
    print(f"infeasible ({result.nodes} nodes)")
    return 0


def cmd_choosability(args) -> int:
    g = _load_graph(args)
    if args.exhaustive:
        cert = certify_choosable(g, args.p, args.k, args.universe)
    else:
        cert = find_bad_assignment(
            g, args.p, args.k, args.universe,
            budget=args.budget, mode=args.mode, seed=args.seed,
        )
    print(f"{cert.kind} after {cert.checked} assignments (U={cert.universe})")
    _write_out(cert.to_json(), args.out)
    return 0


def cmd_recheck(args) -> int:
    cert = Certificate.from_json(_read(args.certificate))
    ok, detail = recheck_certificate(cert)
    print(("ok: " if ok else "FAILED: ") + detail)
    return 0 if ok else 1


def cmd_construct(args) -> int:
    audit = None  # star-span runs no reduction, so it writes no audit trail
    if args.family == "star-span":
        if args.n is None:
            raise ValueError("--n is required for star-span")
        labelling = label_star_span(args.n, args.p)
        g, p = make_star(args.n), args.p
    else:
        g = _load_graph(args)
        family = FAMILIES[args.family]
        if args.lists:
            p, lists = _load_lists(args)
        else:
            p = args.p
            k = family.list_size(g, p)
            lists = full_lists(g, range(k))
            print(f"using full lists 0..{k - 1}", file=sys.stderr)
        audit = OuterplanarAudit()
        labelling = family.label(g, p, lists, audit)
    _write_out(labelling_to_json(p, labelling), args.out)
    if args.audit and audit is not None:
        trail = {"configurations": [s["kind"] for s in audit.steps], **asdict(audit)}
        Path(args.audit).write_text(json.dumps(trail, indent=2) + "\n", encoding="utf-8")
    if args.dot:
        Path(args.dot).write_text(emit_dot(g, labelling), encoding="utf-8")
    return 0


def cmd_incidence(args) -> int:
    g = _load_graph(args)
    im = incidence_graph(g)
    _write_out(emit_graph(im.derived, args.format), args.out)
    if args.map:
        mapping = {
            "vertex_image": {str(v): w for v, w in sorted(im.vertex_image.items())},
            "edge_image": {f"{u}-{v}": w for (u, v), w in sorted(im.edge_image.items())},
        }
        Path(args.map).write_text(json.dumps(mapping, indent=2) + "\n", encoding="utf-8")
    return 0


def _finish_report(report, args) -> int:
    if args.out:
        Path(args.out).write_text(report.to_json_text(), encoding="utf-8")
    if args.csv:
        Path(args.csv).write_text(report.to_csv_text(), encoding="utf-8")
    failing = [v for v in report.verdicts if not v["pass"]]
    print(f"{len(report.verdicts) - len(failing)}/{len(report.verdicts)} checks passed")
    for v in failing[:10]:
        print(f"FAIL {v['claim']} [{v['instance']}]: expected {v['expected']}, got {v['actual']}")
    return 0 if report.ok else 1


def cmd_oracle(args) -> int:
    report = run_oracle_suite(
        p_values=tuple(range(args.p_min, args.p_max + 1)),
        sizes=tuple(range(args.size_min, args.size_max + 1)),
    )
    return _finish_report(report, args)


def cmd_props(args) -> int:
    family = FAMILIES[args.family]
    p_values = tuple(args.p_values or range(family.min_p, 4))
    size_min = args.size_min
    if size_min is None:
        size_min = max(3, family.min_size(max(p_values)))
    spec = ExperimentSpec(
        family=args.family,
        sizes=tuple(range(size_min, args.size_max + 1)),
        p_values=p_values,
        policy=args.policy,
        trials=args.trials,
        seed=args.seed,
        universe=args.universe,
    )
    return _finish_report(run_property_suite(spec), args)


def cmd_hunt(args) -> int:
    spec = ExperimentSpec(
        family="hunt",
        sizes=tuple(range(args.size_min, args.size_max + 1)),
        p_values=tuple(args.p_values),
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
        universe=args.universe,
    )
    return _finish_report(hunt_counterexamples(args.conjecture, spec), args)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="plabel",
        description="(p,1)-total labellings: exact solvers, constructive labellers, "
        "choosability certificates, and experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(sp):
        sp.add_argument("--graph", required=True, help="graph file")
        sp.add_argument("--format", choices=FORMATS, default="edge-list")

    sp = sub.add_parser("solve", help="minimum span, or feasibility at a given max color")
    add_graph_opts(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=None, help="max color; omit to minimize")
    sp.add_argument("--out", default=None)
    sp.add_argument("--dot", default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("list-solve", help="complete search against a list assignment")
    add_graph_opts(sp)
    sp.add_argument("--lists", required=True, help="list-assignment JSON file")
    sp.add_argument("--p", type=int, default=None, help="override the p recorded in the file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_list_solve)

    sp = sub.add_parser("choosability", help="witness search or exhaustive certification")
    add_graph_opts(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--universe", type=int, default=None, help="default 2k")
    sp.add_argument("--budget", type=int, default=20000)
    sp.add_argument("--mode", choices=("lex", "random"), default="lex")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_choosability)

    sp = sub.add_parser("recheck", help="re-validate a certificate from its file alone")
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_recheck)

    sp = sub.add_parser("construct", help="run a constructive labeller")
    sp.add_argument("--family", required=True, choices=(*FAMILIES, "star-span"))
    sp.add_argument("--graph", default=None)
    sp.add_argument("--format", choices=FORMATS, default="edge-list")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=None, help="leaf count for star-span")
    sp.add_argument("--lists", default=None, help="list-assignment JSON; default full lists")
    sp.add_argument("--out", default=None)
    sp.add_argument("--audit", default=None, help="write the reduction audit trail here")
    sp.add_argument("--dot", default=None)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("incidence", help="subdivide every edge once")
    add_graph_opts(sp)
    sp.add_argument("--out", default=None)
    sp.add_argument("--map", default=None, help="write the vertex/edge image maps here")
    sp.set_defaults(func=cmd_incidence)

    sp = sub.add_parser("oracle", help="exact solver against the closed-form tables")
    # the closed forms for paths hold for p >= 2 only (at p=1 ordinary total
    # coloring of a path needs just 3 colors); pass --p-min 1 to see that
    sp.add_argument("--p-min", type=int, default=2)
    sp.add_argument("--p-max", type=int, default=4)
    sp.add_argument("--size-min", type=int, default=1)
    sp.add_argument("--size-max", type=int, default=8)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("props", help="constructive guarantees over random assignments")
    sp.add_argument("--family", required=True, choices=tuple(FAMILIES))
    sp.add_argument("--p-values", type=int, nargs="+", default=None)
    sp.add_argument("--size-min", type=int, help="default: max(3, least size at the largest p)")
    sp.add_argument("--size-max", type=int, default=12)
    sp.add_argument("--policy", choices=("full-range", "random-k", "adversarial-search"),
                default="random-k")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--universe", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_props)

    sp = sub.add_parser("hunt", help="counterexample search at the conjectured bounds")
    sp.add_argument("--conjecture", required=True, choices=("general", "outerplanar"))
    sp.add_argument("--p-values", type=int, nargs="+", default=(2,))
    sp.add_argument("--size-min", type=int, default=3)
    sp.add_argument("--size-max", type=int, default=6)
    sp.add_argument("--trials", type=int, default=6)
    sp.add_argument("--budget", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--universe", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
