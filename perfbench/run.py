#!/usr/bin/env python3
"""The RegionML benchmark: one command per workload run.

    python3 perfbench/run.py --workload corpus-run --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the RegionML library, the rmld daemon and the rmlbench
benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild only what changed. rmlbench then runs the
workload and its last line of standard output, a JSON object with the
keys correct, attempted, failed and metrics, is printed as this
script's last line. --trace 1 makes a traced run: per-layer metrics
instead of end-to-end ones, and a Chrome trace under <build>/traces.

Workloads, metrics and the layer map are in perfbench/README.md and
BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus-run", "compile-cold", "daemon-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "core",
                                       "Pipeline.h")):
        log("the RegionML sources (src/) are not next to perfbench/; "
            "run from the root of a full checkout")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes that touch every path (self-test)")
    ap.add_argument("--oracle", default=os.path.join(HERE, "oracle"),
                    help="oracle directory (self-test plants a wrong one)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        log("build failed")
        return 1

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "rmlbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--oracle", args.oracle, "--workdir", work,
           "--rmld", os.path.join(build_dir, "rmld")]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also takes down the daemon child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1
    finally:
        for path in glob.glob(os.path.join(work, "trace-*.json")):
            shutil.move(path, os.path.join(traces, os.path.basename(path)))
        shutil.rmtree(work, ignore_errors=True)
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"rmlbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"rmlbench printed no result line: {lines[-1]!r}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
