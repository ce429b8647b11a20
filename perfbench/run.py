#!/usr/bin/env python3
"""Build and run the REACH benchmark for one workload.

Usage, from the root of a REACH checkout:

    python3 perfbench/run.py --workload eca_session --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) in Release mode
into .bench_build/perfbench, runs reach_perfbench with a scratch directory
under .perfbench_scratch/, and removes that directory on every exit path. The
program's last line of standard output is the result JSON. With
--trace-dir DIR the traced run's spans, registry snapshot and per-layer
table are kept in DIR; otherwise they go with the scratch directory.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SCRATCH_ROOT = ".perfbench_scratch"


class Stopped(Exception):
    pass


def on_signal(signum, _frame):
    raise Stopped(signum)


def run_child(cmd, **kwargs):
    """Runs `cmd` to completion; a signal to us stops it and waits for it."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = child.communicate()
    except Stopped:
        child.terminate()
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    return child.returncode, out


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(src_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no REACH sources (src/CMakeLists.txt) in the current directory")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "reach_perfbench"])
    for cmd in steps:
        code, out = run_child(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if code != 0:
            sys.stderr.write(out[-8000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "reach_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args()

    reach_vars = sorted(k for k in os.environ if k.startswith("REACH_"))
    if reach_vars:
        fail("refusing to run with " + ", ".join(reach_vars) +
             " set: the benchmark measures the shipped defaults only")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    scratch = os.path.join(SCRATCH_ROOT, str(os.getpid()))
    try:
        binary = build(os.path.dirname(os.path.abspath(__file__)))
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", scratch]
        if args.trace_dir:
            cmd += ["--trace-dir", args.trace_dir]
        os.makedirs(scratch)
        code, _ = run_child(cmd)
    except Stopped as stop:
        code = 128 + stop.args[0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
