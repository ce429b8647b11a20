#!/usr/bin/env python3
"""Steadiness check: run each workload back to back with different seeds.

Usage, from the root of a REACH checkout:

    python3 perfbench/steady.py --runs 10 --seconds 10 [--workloads eca_session,mixed_rw]

For every end-to-end metric it prints the median, the quartiles, the
spread (third minus first quartile, as a share of the median; the figure
the benchmark's bounds apply to) and the coefficient of variation. For
every run it prints the log-force latency the program measured after the
window (storage.wal.fsync_ns.p50), so that a throttled host disk shows as
throttling rather than as a regression. Exits non-zero if a run fails or
reports an incorrect result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_config():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        if line.startswith('{"run_info"'):
            info = json.loads(line)["run_info"]
    return result, info


def main():
    config = bench_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        print(f"== {workload}: {args.runs} runs of {args.seconds} s")
        print(f"{'seed':>6} {'fsync_p50_us':>12} {'attempted':>9} "
              f"{'failed':>6} correct")
        for i in range(args.runs):
            seed = 1 + i
            try:
                result, info = run_once(workload, seed, args.seconds)
            except RuntimeError as e:
                print(f"run failed: {e}")
                ok = False
                continue
            fsync_ns = info.get("storage.wal.fsync_ns.p50") or 0
            print(f"{seed:>6} {fsync_ns / 1e3:>12.1f} {result['attempted']:>9} "
                  f"{result['failed']:>6} {result['correct']}")
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, metric in info.get("ungated", {}).items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'cv':>7} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            cv = statistics.stdev(vals) / statistics.mean(vals)
            bound = bounds.get(name)
            flag = ("" if bound is None or name == "setup_s" or
                    spread <= bound / 3 else " <")
            print(f"{name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>7.3f} {cv:>7.3f} {bound or '-':>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
