#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

perfbench/ is a Go module that uses the repository as a local replacement
for its `incdata` dependency.  This script builds it into .bench_build/
(with the Go build cache and temporary files there as well, so nothing is
written outside the checkout) and runs the binary with the given arguments.
The binary's standard output is passed through; its last line is the
result.  The exit status is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
