#!/usr/bin/env python3
"""Performance benchmark of the SIMR simulator: one workload, one run.

usage: run.py --workload NAME --seed N --seconds S --trace 0|1

Builds simr_perfbench from the repository's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), then starts it PROCESSES times, each
time in a fresh process on one worker thread; S seconds is only a cap,
after which no further process starts. Every process runs the whole
workload once with inputs made from the seed, checks each operation's
output and prints its host times and the digests of everything it
simulated.

With --trace 0 the result holds the end-to-end metrics: times are the
sum over operations of each operation's fastest time across the run's
processes, memory the median process. With --trace 1 the processes
alternate between untraced and traced runs; the result holds the
per-layer metrics of the traced runs (medians) and
bench.trace_overhead_s, the traced minus the untraced wall time of the
whole workload.

The result is correct when every operation passed its check, every
process of the run printed the same digests (traced ones too), and, in
traced runs, the span file passes tools/check_trace.py and the layers'
self times cover at least 90% of the chip workloads' wall time.

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("reproduce_cold", "design_warm", "cluster_1024")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("sim_kreq_per_s", "kreq/s"))
# Layer self times must explain this share of a traced chip workload.
MIN_COVERAGE = 0.9
COVERED_WORKLOADS = ("reproduce_cold", "design_warm")
# Processes per run, whatever the program's speed: each operation's
# fastest time is taken over this many samples. Each workload's process
# takes 1.2-1.7 s, so a run takes 20-27 s and reaches the 40 s cap only
# if the host slows it by half again.
PROCESSES = 16
PROCESS_TIMEOUT_S = 150


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build simr_perfbench; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "simr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode:
            sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(out, "simr_perfbench")


def run_once(binary, workload, seed, spans=None):
    """One workload process; returns its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", spans]
    # Default caches and toggles, one worker: no SIMR_* setting of the
    # caller's environment reaches the workload.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMR_")}
    env["SIMR_THREADS"] = "1"
    launched = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {PROCESS_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: no output (exit {p.returncode})")
    rec = json.loads(lines[-1])
    rec["exit"] = p.returncode
    # Launch to main(), on the process's own CLOCK_MONOTONIC reading.
    rec["startup_s"] = rec["main_s"] - launched
    return rec


def check_spans(path):
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    p = subprocess.run([sys.executable, checker, path],
                       stdout=sys.stderr, stderr=sys.stderr)
    return p.returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    binary = build()
    spans = os.path.join(build_dir(),
                         f"spans-{a.workload}-{a.seed}.json")
    plain, traced = [], []
    start = time.monotonic()
    while len(plain) + len(traced) < PROCESSES:
        want_traced = a.trace == 1 and len(traced) < len(plain)
        rec = run_once(binary, a.workload, a.seed,
                       spans if want_traced else None)
        (traced if want_traced else plain).append(rec)
        print(json.dumps({k: rec[k] for k in (
            "workload", "seed", "traced", "wall_s", "setup_s", "startup_s",
            "run_s", "ops", "ops_failed", "digest", "reuse_digest")}))
        capped = time.monotonic() - start >= a.seconds
        if capped and (a.trace == 0 or traced):
            print(f"cap of {a.seconds} s reached after "
                  f"{len(plain) + len(traced)} processes", file=sys.stderr)
            break

    recs = plain + traced
    digests = {(r["digest"], r["reuse_digest"], r["sim_requests"])
               for r in recs}
    correct = (len(digests) == 1 and
               all(r["exit"] == 0 and r["ops_failed"] == 0 for r in recs))
    if a.trace == 0:
        values = end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["bench.trace_overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) -
            statistics.median(r["run_s"] for r in plain))
        correct = correct and check_spans(spans)
        if a.workload in COVERED_WORKLOADS:
            correct = correct and all(
                r["layers"]["bench.coverage"] >= MIN_COVERAGE for r in traced)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layers.items()}
    digest, reuse, _ = sorted(digests)[0]
    print(f"digest {a.workload} seed={a.seed}: {digest} "
          f"reuse={reuse} processes={len(recs)}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["ops"] for r in recs),
                      "failed": sum(r["ops_failed"] for r in recs),
                      "metrics": metrics}))


def fastest(recs, key):
    """Sum over operations of each operation's fastest time in `recs`."""
    return sum(min(times) for times in zip(*(r[key] for r in recs)))


def end_to_end(recs):
    """End-to-end metrics of a run from its untraced processes.

    Contention for a shared host's last-level cache only ever slows an
    operation down, mostly in bursts shorter than a process, so each
    operation's fastest time over the run's processes is its steadiest
    estimate; times are sums of those. Set-up is the fastest start-up
    (launch to main) plus the workload's set-up phase, estimated the
    same way. Memory is the median process.
    """
    wall = fastest(recs, "ops_s")
    return {
        "wall_s": wall,
        "cpu_s": fastest(recs, "ops_cpu_s"),
        "setup_s": (min(r["startup_s"] for r in recs) +
                    min(r["setup_rounds_s"] for r in recs) +
                    fastest(recs, "setup_ops_s")),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
        "sim_kreq_per_s": recs[0]["sim_requests"] / wall / 1e3,
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ns_per_op") or name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("ratio") or name.endswith("efficiency") or \
            name.endswith("fill") or name.endswith("coverage"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
