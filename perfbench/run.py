"""Seeded closed-loop benchmark for plabel.

    python3 perfbench/run.py --workload props|span|choose --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports plabel from `src/`.
One client in one process issues the workload's top-level calls one after
another and checks every output. With `--trace 0` it issues whole passes of
calls for up to `--seconds` and prints the end-to-end metrics. With
`--trace 1` it times each call of pass 0 untraced and traced, prints the
per-layer metrics and writes the spans to `perfbench/out/`. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

`--record` (default seed only) stores the run's outputs in
`perfbench/expected/` as the values later default-seed runs must reproduce.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from collections import deque  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
DEFAULT_SEED = 0
SETUP_EVERY_S = 2.0
TRACE_LIMIT_FACTOR = 4

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Call, Context, Verdict  # noqa: E402


class CallTimeout(BaseException):
    """Raised inside a call by SIGALRM when its time limit passes.

    A BaseException, so that no `except Exception` in the package swallows it.
    """


@contextmanager
def time_limit(seconds: float | None):
    """Interrupt the body after `seconds` with CallTimeout; in-process, no threads."""
    if not seconds:
        yield
        return

    def on_alarm(signum, frame):
        raise CallTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def execute(call: Call) -> tuple[float, Verdict]:
    """Issue one call, time it, and judge its output outside the timed region.

    A call that runs past its limit or out of recursion depth is unsolved.
    It keeps its measured latency, which for a timeout is at least the
    limit, so removing a stall can only lower the latency metrics.
    """
    start = time.perf_counter()
    try:
        with time_limit(call.limit):
            result = call.fn()
    except CallTimeout:
        return time.perf_counter() - start, Verdict(
            problem=f"timed out after {call.limit} s", unsolved=True)
    except RecursionError as exc:
        return time.perf_counter() - start, Verdict(
            problem=f"raised RecursionError: {exc}"[:200], unsolved=True)
    except Exception as exc:  # a crash in the program is a failed call, not a benchmark error
        return time.perf_counter() - start, Verdict(problem=f"raised {type(exc).__name__}: {exc}"[:200])
    elapsed = time.perf_counter() - start
    try:
        return elapsed, call.judge(result)
    except Exception as exc:  # an output the judge cannot read is a wrong output
        return elapsed, Verdict(problem=f"check raised {type(exc).__name__}: {exc}"[:200], wrong=True)


@dataclass
class Tally:
    """Per-call outcomes of one stretch of calls.

    `problems` names what went wrong in each failed call, `gave_up` what
    stopped each unsolved one.
    """

    latencies: list = field(default_factory=list)
    items: int = 0
    failed: int = 0
    wrong: int = 0
    unsolved: int = 0
    problems: dict = field(default_factory=dict)
    gave_up: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, call_id: str, elapsed: float, verdict: Verdict, expected: dict) -> None:
        if verdict.problem is None and call_id in expected and expected[call_id] != verdict.summary:
            verdict = Verdict(problem=f"output {verdict.summary!r} != recorded "
                                      f"{expected[call_id]!r}", wrong=True)
        self.latencies.append(elapsed)
        if verdict.problem is None:
            self.items += verdict.items
            self.outputs[call_id] = verdict.summary
        elif verdict.unsolved:
            self.unsolved += 1
            self.gave_up[call_id] = verdict.problem
        else:
            self.failed += 1
            self.wrong += verdict.wrong
            self.problems[call_id] = verdict.problem


def run_calls(calls, tally: Tally, expected: dict, pass_index: int = 0, between=None) -> None:
    """Issue calls in order, each one's follow-ups right after it. `between()`
    runs after each call, outside the timed region."""
    pending = deque(calls)
    while pending:
        call = pending.popleft()
        elapsed, verdict = execute(call)
        tally.add(f"{pass_index}:{call.label}", elapsed, verdict, expected)
        pending.extendleft(reversed(verdict.follow))
        if between is not None:
            between()


def run_passes(make_pass, first, tally: Tally, expected: dict, seconds: float,
               between=None) -> int:
    """Issue whole passes while the next one is expected to end within
    `seconds`; at least one. Returns the number of passes.

    The metrics then always cover whole passes: a run never stops part way
    through one, where the calls done so far would be an uneven sample.
    """
    start = time.perf_counter()
    calls, done = first, 0
    while True:
        run_calls(calls, tally, expected, done, between)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return done
        calls = make_pass(done)


def _plabel_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "plabel" or k.startswith("plabel.")}


def setup(workload, seed: int) -> tuple[Context, list[Call]]:
    """Import plabel afresh and build pass 0: the work before the first call."""
    for key in _plabel_modules():
        del sys.modules[key]
    pl = importlib.import_module("plabel")
    importlib.import_module("plabel.harness")
    importlib.import_module("plabel.cli")
    OUT.mkdir(exist_ok=True)
    ctx = Context(pl=pl, out=OUT)
    return ctx, workload.make_pass(ctx, seed, 0)


class SetupSampler:
    """Times setup again every SETUP_EVERY_S seconds of a run, between calls.

    Each sample imports plabel afresh and builds pass 0, then puts the
    modules in use back. Spreading the samples over the run exposes set-up
    time to the same machine conditions as the calls, and the median of the
    samples is the reported set-up time.
    """

    def __init__(self, workload, seed: int, first: float):
        self.workload, self.seed = workload, seed
        self.samples = [first]
        self.due = time.perf_counter() + SETUP_EVERY_S

    def __call__(self) -> None:
        if time.perf_counter() < self.due:
            return
        in_use = _plabel_modules()
        start = time.perf_counter()
        try:
            setup(self.workload, self.seed)
            self.samples.append(time.perf_counter() - start)
        finally:
            for key in _plabel_modules():
                del sys.modules[key]
            sys.modules.update(in_use)
        self.due = time.perf_counter() + SETUP_EVERY_S


def end_to_end(tally: Tally, busy: float, setups: list[float]) -> tuple[dict, dict]:
    tail = stats.tail(tally.latencies)
    metrics = {
        "items_per_s": (tally.items / busy, "1/s"),
        "call_p50_ms": (stats.median(tally.latencies) * 1000, "ms"),
        "call_tail_ms": (tail.value * 1000, "ms"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "solved_frac": (1 - tally.unsolved / tally.attempted, "1"),
    }
    details = {
        "fail_frac": tally.failed / tally.attempted,
        "unsolved": tally.unsolved,
        "tail_percentile": tail.percentile,
        "tail_beyond": tail.beyond,
        "samples": tail.samples,
        "busy_s": busy,
        "setup_samples_s": setups,
    }
    return metrics, details


def traced_pass(workload, ctx: Context, seed: int, expected: dict) -> tuple[dict, Tally, Tracer]:
    """Pass 0 with every call issued three times: once to warm up, then
    traced and untraced.

    The timed runs of a call are adjacent in time and which goes first
    alternates, so drifts in machine speed largely cancel out of the
    overhead ratio. Time limits are TRACE_LIMIT_FACTOR times longer here, so
    that a call finishing close to its limit ends the same way in every
    traced run and the exact counts repeat.
    """
    tracer = Tracer()
    tracer.install()
    try:
        # inputs are built inside the traced region so instance generation shows
        pending = deque(workload.make_pass(ctx, seed, 0))
    finally:
        tracer.uninstall()
    plain, traced = Tally(), Tally()
    turn = 0
    while pending:
        call = pending.popleft()
        if call.limit:
            call = replace(call, limit=call.limit * TRACE_LIMIT_FACTOR)
        execute(call)
        for with_trace in ((False, True) if turn % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                elapsed, verdict = execute(call)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).add(f"0:{call.label}", elapsed, verdict, expected)
        pending.extendleft(reversed(verdict.follow))
        turn += 1
    if traced.outputs != plain.outputs:
        traced.problems["trace"] = "traced calls gave other outputs than untraced ones"
        traced.failed += 1
        traced.wrong += 1
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = (sum(traced.latencies) / sum(plain.latencies) - 1, "1")
    combined = Tally(plain.latencies + traced.latencies, plain.items + traced.items,
                     plain.failed + traced.failed, plain.wrong + traced.wrong,
                     plain.unsolved + traced.unsolved,
                     {**plain.problems, **traced.problems},
                     {**plain.gave_up, **traced.gave_up}, traced.outputs)
    return metrics, combined, tracer


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "plabel" / "__init__.py").is_file():
        print(f"error: no plabel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    expected = {}
    path = EXPECTED / f"{workload.name}.json"
    if args.seed == DEFAULT_SEED and path.exists() and not args.record:
        expected = json.loads(path.read_text(encoding="utf-8"))["outputs"]

    ctx, first = setup(workload, args.seed)
    sampler = SetupSampler(workload, args.seed, time.perf_counter() - PROCESS_T0)
    if workload.name == "props":
        ctx.capture_labellings()

    if args.trace:
        metrics, tally, tracer = traced_pass(workload, ctx, args.seed, expected)
        half = tally.attempted // 2
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
        details = {"spans": len(tracer.spans), "untraced_busy_s": sum(tally.latencies[:half]),
                   "traced_busy_s": sum(tally.latencies[half:])}
    else:
        tally = Tally()
        passes = run_passes(lambda i: workload.make_pass(ctx, args.seed, i), first, tally,
                            expected, args.seconds, between=sampler)
        metrics, details = end_to_end(tally, sum(tally.latencies), sampler.samples)
        details["passes"] = passes
    ctx.release()

    if args.record:
        EXPECTED.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "outputs": tally.outputs},
                                   indent=0, sort_keys=True) + "\n", encoding="utf-8")

    env = environment(args.seed)
    record = {"workload": workload.name, "why": workload.why, "trace": args.trace,
              "seconds": args.seconds, "env": env, "details": details,
              "problems": dict(list(tally.problems.items())[:20]),
              "unsolved": dict(list(tally.gave_up.items())[:20]),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    for key, value in details.items():
        if key != "setup_samples_s":
            print(f"  ({key} = {value})")
    for call_id, problem in list(tally.problems.items())[:10]:
        print(f"  FAIL {call_id}: {problem}")
    for call_id, reason in list(tally.gave_up.items())[:10]:
        print(f"  UNSOLVED {call_id}: {reason}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record needs the default seed and --trace 0")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
