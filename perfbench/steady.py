#!/usr/bin/env python3
"""Check how steady the benchmark's figures are.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--traced]

Runs each workload --runs times through run.py, seed first-seed, first-seed+1,
..., with tracing off, and prints for every end-to-end metric its median,
quartiles (statistics.quantiles(values, n=4)), min and max, and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. A spread
above a third of the bound is flagged "WIDE"; above the bound, "OVER".
With --traced, one more run per workload with tracing on prints its
end-to-end figures against the untraced medians (the tracing overhead) and
its per-layer figures. Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    last = done.stdout.rstrip("\n").split("\n")[-1]
    if done.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{workload} seed {seed}: run failed\n{done.stdout}")
    return json.loads(last), wall, done.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            result, wall, _ = run(workload, args.first_seed + i,
                                  args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: {wall:.1f} s wall, "
                  f"correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each; "
              f"failed share {sorted(shares)}; all correct "
              f"{all(r['correct'] for r in results)}")
        print(f"  {'metric':<13} {'median':>11} {'Q1':>11} {'Q3':>11} "
              f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ("OVER" if spread > bound else
                    "WIDE" if spread > bound / 3 else "")
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<13} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{min(values):>11.5g} {max(values):>11.5g} "
                  f"{spread:>7.1%} {bound:>6.2f} {unit} {flag}")
        if args.traced:
            result, wall, out = run(workload, args.first_seed, args.seconds, 1)
            # The traced run prints its end-to-end figures as
            # "traced NAME VALUE UNIT"; the difference from the untraced
            # median is the tracing overhead.
            print(f"  traced run ({wall:.1f} s wall), end-to-end figures "
                  f"against the untraced median:")
            for line in out.splitlines():
                parts = line.split()
                if len(parts) == 4 and parts[0] == "traced" and \
                        parts[1] in bounds:
                    med = statistics.median(
                        r["metrics"][parts[1]]["value"] for r in results)
                    value = float(parts[2])
                    print(f"    {parts[1]:<13} {value:>11.5g} vs {med:>11.5g}"
                          f" {parts[3]} ({value / med - 1:+.1%})")
            print("  per-layer figures:")
            for name, m in result["metrics"].items():
                if m["value"]:
                    print(f"    {name:<34} {m['value']:>14.6g} {m['unit']}")
        print(flush=True)


if __name__ == "__main__":
    main()
