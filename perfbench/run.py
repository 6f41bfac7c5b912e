#!/usr/bin/env python3
"""Build and run the getafix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads N] [--trace-out FILE]

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls find it built. The benchmark binary's human-readable lines are
passed through, and the last line printed is one JSON object:

    {"correct": B, "attempted": N, "failed": N,
     "metrics": {NAME: {"value": V, "unit": U}, ...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. A traced run also writes its spans as
Chrome trace-event JSON to <build>/traces/<workload>-seed<N>.json unless
--trace-out names another file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig3-conc", "fig2-seq", "serve-warm", "serve-churn")
# Beyond --seconds a run finishes its last round (up to 15 s on fig3-conc),
# its set-up, its checks and its explicit searches.
RUN_MARGIN_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "api" / "Solver.h").is_file():
        fail(f"no getafix sources under {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=0,
                    help="fig2-seq evaluator threads (default 2)")
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        trace_out = args.trace_out
        if not trace_out:
            (out / "traces").mkdir(exist_ok=True)
            trace_out = str(out / "traces" /
                            f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_out]

    timeout = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode} and no result")
    result = json.loads(lines[-1])

    # The binary and BENCHMARK.json must name the same metrics and units.
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
