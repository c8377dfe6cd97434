#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload oracle_campaign --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds `pacman-cli` and the benchmark
binary (release, offline) into $CARGO_TARGET_DIR (default `.bench_build`),
runs the workload, and prints the benchmark's output; the last line is
the JSON result. Traced runs (`--trace 1`) also leave a Perfetto-loadable
span file under `.bench_out/`. Exits non-zero without a result line when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run is cut well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Two executor workers in every process: the benchmark host has two
    # cores and all load comes from this run.
    env = dict(os.environ, CARGO_TARGET_DIR=target, PACMAN_JOBS="2")
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "pacman-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
        if subprocess.run(cmd + extra, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"building {manifest} failed")

    release = os.path.join(target, "release")
    out_dir = os.path.join(ROOT, ".bench_out", f"{a.workload}-{a.seed}-{a.trace}")
    cmd = [
        os.path.join(release, "pacman-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--cli", os.path.join(release, "pacman-cli"),
        "--out", out_dir,
    ]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"the benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
