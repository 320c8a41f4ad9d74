#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload sweep-gnp100k --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It configures and builds e2ebench/ (which
pulls in the library from the root CMakeLists.txt) into
.bench_build/e2ebench, runs the benchmark's own arithmetic tests, then runs
one workload and passes its output through: the last line is the JSON
result.  Exit status is non-zero when the build, the self-test or any
correctness check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = ".bench_out"  # relative to ROOT: keeps the service's socket path short
RUN_TIMEOUT_S = 175
# One malloc arena: with glibc's default (8 per core), the resident set
# depends on which arena each short-lived worker thread lands in, and
# service-mix's peak RSS jumps between ~40 and ~57 MB from run to run.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("e2ebench: build failed:", " ".join(cmd))
            return False
    return True


def git(*args):
    """stdout of a git command in ROOT, or None without git or a repository."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def revision():
    """The git revision, suffixed with a digest of the sources when they
    differ from it; without git, the digest alone."""
    rev = git("rev-parse", "--short=12", "HEAD")
    if rev and git("status", "--porcelain", "--", "src", "e2ebench") == "":
        return rev
    digest = source_digest()
    return f"{rev}+{digest}" if rev else digest


def source_digest():
    """Digest of the code that is built and run: src/ and e2ebench/'s
    sources, not its README or the steadiness records."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("steadiness", "__pycache__"))
            for name in sorted(filenames):
                if top == "e2ebench" and not name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-gnp100k", "service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        return 1
    if subprocess.run([os.path.join(BUILD, "e2ebench_selftest")]).returncode != 0:
        log("e2ebench: self-test failed; not measuring")
        return 1
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", revision(), "--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, **MALLOC_ENV))
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
