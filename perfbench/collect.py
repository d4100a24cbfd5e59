"""Run every workload over several seeds and summarise the results.

    python3 perfbench/collect.py [--seeds 10] [--seconds 60] [--workloads props,span,choose]
                                 [--out perfbench/baseline/origin.json]

Each run is its own process, one after another, so runs never compete for
the CPU. For every workload it runs `--seeds` untraced runs (seeds 1..N),
prints every end-to-end metric by name with its unit, then one traced run
(seed 1) for the per-layer metrics. The summary gives, per metric, the
values, the median and the interquartile spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.run import environment  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "values": values,
                 "median": stats.median(values)}
        if len(values) >= 2 and entry["median"]:
            entry["spread"] = stats.spread(values)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--workloads", default="props,span,choose")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    summary = {"env": environment(seed=None), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run(workload, seed, args.seconds, trace=0)
            runs.append(result)
            shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}: {shown}", flush=True)
        traced = run(workload, 1, args.seconds, trace=1)
        summary["workloads"][workload] = {
            "end_to_end": summarise(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "per_layer_seed_1": traced["metrics"],
        }
        for name, entry in summary["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {entry['median']:.6g} {entry['unit']}, "
                  f"spread {entry.get('spread', 0):.4f}", flush=True)
        for name, entry in traced["metrics"].items():
            print(f"  {workload} traced {name} = {entry['value']:.6g} {entry['unit']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
