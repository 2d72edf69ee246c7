#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig7-nocout --seed 1 --seconds 30 --trace 0

The Go toolchain's caches, the binary and every run artifact go under
.bench_build/ in the current directory, so nothing is written outside it.
Arguments pass through to the perfbench binary; see main.go for its flags.
The last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(build, "home", ".cache"),
        PPROF_TMPDIR=os.path.join(build, "pprof"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    out = os.path.join(build, "perfbench-out")
    return subprocess.run([binary, "-out", out] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
