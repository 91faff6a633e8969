#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload apps --seed 1 --seconds 15 --trace 0

The Go build, its caches and every temporary file stay under .bench_build/
in the current directory. The arguments go to the benchmark binary, whose
last line of output is the JSON result (see perfbench/main.go).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gomodcache", "tmp", "home")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=dirs["gocache"],
        GOMODCACHE=dirs["gomodcache"],
        GOPATH=os.path.join(dirs["home"], "go"),
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        HOME=dirs["home"],
        XDG_CONFIG_HOME=os.path.join(dirs["home"], ".config"),
        XDG_CACHE_HOME=os.path.join(dirs["home"], ".cache"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
