#!/usr/bin/env python3
"""Build and run the CLAMShell benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <megasweep|stream|learn> \
        --seed N --seconds S --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), then runs the timed
binary (`--trace 0`) or the traced one (`--trace 1`) with the given
arguments. The last line of standard output is the result JSON. Cargo's
output goes to standard error. Exits non-zero, without a result, if the
build fails (for example when the repository's crates are missing).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision of the repository, else a hash of its sources."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            return "git-" + top[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for base in ("crates", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main(argv):
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench-trace" if trace == "1" else "perfbench")
    workdir = os.path.join(target, "perfbench-work")
    sys.stdout.flush()
    run = subprocess.run([exe, *argv, "--workdir", workdir, "--rev", revision()])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
