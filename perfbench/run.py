#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package under perfbench/ is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). --trace 0 runs `perfbench`
(end-to-end metrics), --trace 1 runs `perfbench-traced` (per-layer
metrics). The last line of standard output is the JSON result; the exit
code is the binary's (0 only when every output was correct). A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = None
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    if trace not in ("0", "1"):
        print("perfbench: --trace 0 or --trace 1 is required", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = "perfbench-traced" if trace == "1" else "perfbench"
    run = subprocess.run([os.path.join(target, "release", binary)] + argv, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
