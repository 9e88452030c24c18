#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload interactive_small --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build), then run with the
given arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """Commit of the checkout, or "unknown" when git cannot name one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "eugene-perfbench")
    args = sys.argv[1:] + [
        "--commit",
        commit(),
        "--out",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run([exe] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
