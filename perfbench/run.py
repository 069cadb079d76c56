#!/usr/bin/env python3
"""Builds the cb end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload profile|diagnose|served_logs \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark links the repository's own libraries (built from ../src into
.bench_build/ at the checkout root) and drives the cb user paths in a single
process. Build output goes to stderr; the benchmark's last stdout line is its
JSON result. Logs, the daemon socket and trace files go to .bench_out/.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = ".bench_out"  # relative to ROOT: keeps the daemon's socket path short


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no cb sources next to perfbench/ (expected ../src)")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", *gen, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    if not selftest and not args:
        sys.exit(__doc__)
    build()
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so the benchmark is the only process left to wait
    # for and set-up time counts from its own start.
    if selftest:
        exe = os.path.join(BUILD, "perfbench_selftest")
        os.execv(exe, [exe, "--out-dir", OUT])
    exe = os.path.join(BUILD, "cb_perfbench")
    os.execv(exe, [exe, *args, "--out-dir", OUT])


if __name__ == "__main__":
    main()
