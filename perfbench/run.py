#!/usr/bin/env python3
"""Build the benchmark program and the skoped daemon from source, then run
one benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

Build outputs, the Go build cache and the daemons' temporary stores go
to $CARGO_TARGET_DIR (default .bench_build) inside the repository. The
last line of standard output is the result JSON; any failure exits
non-zero without printing one.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(out, name) for name in ("bin", "gocache", "gopath", "tmp", "work")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    bench = os.path.join(dirs["bin"], "perfbench")
    skoped = os.path.join(dirs["bin"], "skoped")
    for target, pkg in ((bench, "."), (skoped, "skope/cmd/skoped")):
        try:
            built = subprocess.run(["go", "build", "-o", target, pkg], cwd=here, env=env,
                                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: building {pkg}: {err}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print(f"perfbench: building {pkg} failed", file=sys.stderr)
            return 1
    cmd = [bench, *sys.argv[1:], "--skoped", skoped, "--workdir", dirs["work"]]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
