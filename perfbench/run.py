#!/usr/bin/env python3
"""Build damocles_server and the benchmark from this checkout, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); the benchmark's working files go to `.bench_work`.
The benchmark's own output, ending in one JSON line, goes to stdout; build
output goes to stderr. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    for extra in (["--bin", "damocles_server"], ["--manifest-path", "perfbench/Cargo.toml"]):
        build = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "damocles-perfbench"),
        *sys.argv[1:],
        "--server",
        os.path.join(release, "damocles_server"),
        "--work",
        os.path.join(ROOT, ".bench_work"),
    ]
    return subprocess.run(bench, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
