#!/usr/bin/env python3
"""Run one workload of the netmeter-sentinel benchmark.

    python3 perfbench/run.py --workload fleet_4x12 --seed 1 --seconds 55 --trace 0

Builds the benchmark binary (release, offline) into $CARGO_TARGET_DIR
(default .bench_build at the repository root), generates the workload's
inputs from the seed, runs them, checks the result digest against
perfbench/digests.json when that file records the seed, and prints a
manifest line and, last, one JSON result line. --trace 1 prints the
per-layer metrics instead of the end-to-end ones. --smoke runs the
workload at a tiny size (see smoke.py). perfbench/README.md has the
details.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pv_only_n500", "fleet_4x12")
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def fnv1a64(data):
    value = 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{value:016x}"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        fail("the repository sources are missing next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()

    binary = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        gen = [binary, "gen", "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            gen.append("--smoke")
        made = subprocess.run(gen, capture_output=True, timeout=60)
        if made.returncode != 0:
            fail(f"gen failed: {made.stderr.decode(errors='replace')}")
        inputs = os.path.join(work, "inputs.json")
        with open(inputs, "wb") as out:
            out.write(made.stdout)
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        ran = subprocess.run(
            [binary, "run", "--inputs", inputs, "--workdir", os.path.join(work, "run"),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=max(remaining, 60))
        if ran.returncode != 0:
            fail(f"run failed: {ran.stderr}")
        result = json.loads(ran.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired as err:
        fail(f"timed out: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = result["digest"]
    correct = result["correct"]
    recorded = None
    if not args.smoke:
        with open(os.path.join(HERE, "digests.json")) as table:
            recorded = json.load(table).get(args.workload, {}).get(str(args.seed))
        if recorded is not None and recorded != digest:
            print(f"run.py: digest {digest} differs from the recorded {recorded}",
                  file=sys.stderr)
            correct = False
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "config_fingerprint": fnv1a64(made.stdout),
        "revision": revision(),
        "host_cores": os.cpu_count(),
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "reps": result["reps"],
        "digest": digest,
        "recorded_digest": recorded,
        "failed_frac": result["failed"] / max(result["attempted"], 1),
        "obs_accuracy": result["obs_accuracy"],
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
