#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-golden    # re-record the default-seed digests

The first call configures and builds perfbench/ (which compiles ../src) in
.bench_build/perfbench as a Release build; later calls only check that the
build is up to date. Build output goes to stderr, so the benchmark's last
stdout line stays its JSON result. Any further arguments are passed to the
benchmark program unchanged (see bench.cpp).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "isoee_perfbench")
GOLDEN = os.path.join(HERE, "golden_digests.txt")
WORKLOADS = ["study_ft", "study_cg_wide", "whatif_tcp"]
DEFAULT_SEED = "42"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected ../src); nothing to benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", BUILD, "--target", "isoee_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args):
    """Runs the benchmark program, streaming its stdout; returns its exit code."""
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench-work-%d" % os.getpid())
    cmd = [BINARY] + args + ["--work-dir", work_dir]
    if "--golden" not in args:
        cmd += ["--golden", GOLDEN]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv):
    build()
    if argv == ["--build-only"]:
        return 0
    if argv == ["--write-manifest"]:
        manifest = subprocess.run([BINARY, "--manifest"], check=True, capture_output=True,
                                  text=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
            out.write(manifest)
        return 0
    if argv == ["--record-golden"]:
        # Record into a new file and replace the golden one only once every
        # workload has succeeded, so a failure leaves the old digests intact.
        recording = GOLDEN + ".new"
        if os.path.exists(recording):
            os.remove(recording)
        for workload in WORKLOADS:
            code = run_binary(["--workload", workload, "--seed", DEFAULT_SEED, "--seconds", "1",
                               "--trace", "0", "--golden", recording, "--record-golden"])
            if code != 0:
                if os.path.exists(recording):
                    os.remove(recording)
                return code
        os.replace(recording, GOLDEN)
        return 0
    return run_binary(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
