#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default `.bench_build`); build output goes to
standard error. The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 1` runs the workload twice, untraced and then traced, and adds
`bench.trace_overhead_pct` to the traced run's per-layer metrics: how
much worse the traced run's headline end-to-end metric read
(`windows_per_s`, or `latency_ms` on replay_paced).

`--smoke` runs every workload of BENCHMARK.json for a few seconds, both
untraced and traced, and checks that every metric of BENCHMARK.json
prints with its unit and that no operation failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return target_dir() / "release" / "perfbench"


def run_once(binary, workload, seed, seconds, traced):
    """Runs the binary once; returns (info, result) parsed from its output."""
    work = target_dir() / "perfbench-work"
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
        "--dir", str(work),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"run.py: {workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"run.py: {workload} printed no result")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def measure(binary, workload, seed, seconds, traced):
    """One benchmark run: the info object and the result object."""
    if not traced:
        return run_once(binary, workload, seed, seconds, False)
    plain_info, _ = run_once(binary, workload, seed, seconds, False)
    info, result = run_once(binary, workload, seed, seconds, True)
    if workload == "replay_paced":
        name, worse = "latency_ms", lambda plain, traced: traced / plain - 1
    else:
        name, worse = "windows_per_s", lambda plain, traced: plain / traced - 1
    overhead = 100 * worse(float(plain_info[name]), float(info[name]))
    result["metrics"]["bench.trace_overhead_pct"]["value"] = overhead
    return info, result


def smoke(binary, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            info, result = measure(binary, w["name"], 0, seconds, traced)
            where = f"{w['name']} (trace {int(traced)})"
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: {result['failed']} failed, correct={result['correct']}")
            print(f"{where}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"info {json.dumps(info)}", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["collect", "engine", "replay_max", "replay_paced"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="short run of every workload, checked")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke")
    binary = build()
    if args.smoke:
        return smoke(binary, 7)
    info, result = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
