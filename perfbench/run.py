#!/usr/bin/env python3
"""Build the closed-loop PIR benchmark from source and run it.

    python3 perfbench/run.py --workload pim-point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py skew --seed 1 --seconds 5

Run from the root of a checkout. Everything the build and the run write
goes under .bench_build/ there: the Go build cache, the binary and the
span dumps of traced runs. The arguments are passed to the benchmark
binary unchanged; its last line of output is the result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# A run builds (seconds when cached) and then measures; the binary is
# stopped if it outlives this.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
