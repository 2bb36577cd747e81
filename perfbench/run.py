#!/usr/bin/env python3
"""Runs one workload of the resest benchmark and prints its result.

    python3 perfbench/run.py --workload wire-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which builds the resest
library and resest_server from the sources next to it) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness in a fresh scratch directory under .bench_work/, and passes its
output through: one line per metric, a fingerprint line, and as the last
line the JSON result. Exits non-zero when the sources are missing, the
build fails, the harness times out, or any answer failed its oracle check.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wire-cold", "optimizer-hot", "admission-mixed")
HARNESS_TIMEOUT_S = 165


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "resest_server"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 2)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "resest", "resest_server"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for required in ("CMakeLists.txt", "src/server/resest_server_main.cc",
                     "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("missing %s: run from a full resest checkout" % required)

    harness, server = build()
    workdir = os.path.join(ROOT, ".bench_work", "%s-s%d-t%s-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--server", server, "--workdir", workdir,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    # The harness and the server it spawns share a fresh process group, so a
    # timeout can stop both.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S, 3)
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write(out)
        fail("harness exited %d without a result line" % proc.returncode, 4)
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    record = os.path.join(results_dir, "%s-s%d-t%s.txt" % (
        args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        f.write("# %s\n" % time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        f.write(out)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode if proc.returncode else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
