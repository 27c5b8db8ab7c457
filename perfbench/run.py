#!/usr/bin/env python3
"""Build and run the qcat end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload explore|revisit|ingest --seed N \
        [--seconds S] [--trace 0|1] [--data-seed N] [--out DIR]

The benchmark is built from source with cargo (offline, release
profile) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset,
and then run with the given arguments. Build output goes to standard
error, so the last line of standard output is the result object. The
exit code is the benchmark's: non-zero when the build fails, the
arguments are wrong, or an output check finds a mismatch.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "qcat-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
