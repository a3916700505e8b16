#!/usr/bin/env python3
"""Build and run the tuner benchmark.

    python3 tunerbench/run.py --workload <ga_adpcm|cold_suite|warm_serve> \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is built from source
(tunerbench/CMakeLists.txt compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; scratch files live there too and are
removed afterwards. The binary prints a human-readable report and, as the
last stdout line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ga_adpcm", "cold_suite", "warm_serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("tunerbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build tuner_bench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tuner_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tuner_bench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the ilc sources (src/) are not next to tunerbench/")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.abspath(os.path.join(root, out_root))
    binary = build(os.path.join(out_root, "tunerbench"))

    work = os.path.join(out_root, "tunerbench-work-%d" % os.getpid())
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work", work]
    # Own process group: a timeout stops the binary and its KB-preparing
    # child together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("benchmark run timed out")
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("benchmark run failed (exit %d)" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
