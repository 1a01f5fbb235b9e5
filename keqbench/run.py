#!/usr/bin/env python3
"""Build keqbench from source and run it.

Usage, from the root of a keq checkout:

    python3 keqbench/run.py --workload keqd-cold --seed 1 --seconds 10 --trace 0

Configures and builds keqbench/ (and keq's src/ libraries) into
.bench_build/keqbench as RelWithDebInfo, then runs the benchmark binary
with the given arguments plus the host/build metadata it cannot learn
itself (git commit when the checkout is a git repository, and a digest
of the sources either way). The benchmark's stdout passes through
unchanged; its last line is the result JSON. Build output goes to
stderr. Any build failure exits nonzero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

WORK_DIR = ".bench_build"
BUILD_DIR = os.path.join(WORK_DIR, "keqbench")
SOURCE_DIRS = ("src", "keqbench")


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "keqbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "keqbench"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return result.returncode or 1
    return 0


def main():
    if not os.path.isdir("src") or not os.path.isfile("keqbench/CMakeLists.txt"):
        sys.stderr.write("keqbench: run from the root of a keq checkout "
                         "(src/ and keqbench/ must exist)\n")
        return 2
    status = build()
    if status != 0:
        sys.stderr.write("keqbench: build failed\n")
        return status
    command = [os.path.join(BUILD_DIR, "keqbench"), *sys.argv[1:],
               "--work-dir", WORK_DIR,
               "--git-commit", git_commit(),
               "--source-digest", source_digest()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
