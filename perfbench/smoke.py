#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload it checks that every end-to-end metric (untraced) and
every per-layer metric (traced) named in BENCHMARK.json is printed with its
unit, that two repetitions of one seed give one digest (the traced run
holds an untraced and a traced repetition, and must also match an
untraced run), and that another seed gives another digest. Exits non-zero
on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    manifest = json.loads(lines[-2].removeprefix("manifest "))
    return manifest, json.loads(lines[-1])


def check_names(result, declared, what):
    for metric in declared:
        printed = result["metrics"].get(metric["name"])
        if printed is None or printed["unit"] != metric["unit"]:
            sys.exit(f"smoke: {what} metric {metric['name']} missing or mis-united: {printed}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    for workload in (w["name"] for w in spec["workloads"]):
        plain, result = run(workload, 1, 0)
        check_names(result, spec["end_to_end"], "end-to-end")
        traced, layered = run(workload, 1, 1)
        check_names(layered, spec["per_layer"], "per-layer")
        other, _ = run(workload, 2, 0)
        if not (result["correct"] and layered["correct"]):
            sys.exit(f"smoke: {workload} repetitions disagree on their digest")
        if plain["digest"] != traced["digest"]:
            sys.exit(f"smoke: {workload} traced and untraced digests differ")
        if plain["digest"] == other["digest"]:
            sys.exit(f"smoke: {workload} seeds 1 and 2 share a digest")
        print(f"smoke: {workload} ok (digest {plain['digest']})")


if __name__ == "__main__":
    main()
