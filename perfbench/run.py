#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first call configures and builds
the library and the benchmark binary from source under .bench_build/
(or $CARGO_TARGET_DIR, if set); later calls only rebuild what changed.
Build output goes to stderr. Stdout carries the binary's report line
and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 for a completed run (a wrong answer shows as
"correct": false), 2 when the checkout or the build is unusable, 1 when
the benchmark binary fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("wide-small", "deep-large")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def tool_env():
    # Keep git (called by the root CMakeLists.txt and below) from
    # searching for a repository above the checkout.
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def cached_source_dir(bdir):
    """The source directory a build directory was configured for."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt"),
                  encoding="utf-8") as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(bdir):
    """Configures (once) and builds ppsc_bench; returns its path or None."""
    source = cached_source_dir(bdir)
    if source is not None and os.path.realpath(source) != os.path.realpath(
            BENCH_DIR):
        # Configured from another checkout path; CMake cannot reuse it.
        shutil.rmtree(bdir)
        source = None
    steps = []
    if source is None:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "ppsc_bench", "-j",
                  str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=tool_env(), check=False).returncode != 0:
            return None
    return os.path.join(bdir, "ppsc_bench")


def git_rev():
    if shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, env=tool_env(),
                          check=False)
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: tiny inputs, for the benchmark's tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in ("CMakeLists.txt", "include/ppsc", "src")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"no ppsc source tree at {ROOT} (missing {', '.join(missing)})")
        return 2
    binary = build(build_dir())
    if binary is None:
        log("build failed")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--git-rev", git_rev()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
