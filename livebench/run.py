#!/usr/bin/env python3
"""Build the live-daemon benchmark and run one workload.

    python3 livebench/run.py --workload locate|refresh|sense --seed N --seconds S --trace 0|1

Run from the repository root. Builds `livebench` and `taflocd` from source
(offline, into $CARGO_TARGET_DIR, default .bench_build), then runs the
benchmark binary with the given arguments. Cargo's output goes to stderr so
the last line of stdout is the benchmark's JSON result. Exits non-zero when
the build, a correctness check or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("livebench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "livebench")
    tmp = os.path.join(HERE, "tmp")
    code = subprocess.run([exe] + sys.argv[1:] + ["--tmp", tmp], env=env).returncode
    try:
        os.rmdir(tmp)  # only when empty: every run deletes its own dirs
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
