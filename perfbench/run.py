#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark is built with dune into
`.bench_build/` (never the shared dune cache), then `main.exe` runs the
workload; its report goes to stderr and its last stdout line is the JSON
result. With `--trace 1` the traced run's spans are written to
`.bench_build/perfbench-spans/<workload>.jsonl`. Exits non-zero, without a
result, when the build fails or the run does not finish in time.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        print("perfbench: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The single-threaded run is pinned to the highest-numbered CPU it may
    # use: CPU 0 usually takes the interrupts, which lengthen tail
    # latencies.
    pin = None
    if hasattr(os, "sched_getaffinity"):
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            pin = {max(allowed)}
    if args.trace == 1:
        spans_dir = os.path.join(BUILD_DIR, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".jsonl")]
    try:
        run = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
