#!/usr/bin/env python3
"""The LAKE benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload linnos_io --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver (perfbench/driver, built with
CMake over ../src into .bench_build or $CARGO_TARGET_DIR) receives the
fixed workload parameters of perfbench/workloads.json and the seed, and
reports per-repetition numbers; this script turns them into the metrics
BENCHMARK.json names. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
budget. The driver runs with one compute thread (LAKE_CPU_THREADS=1):
with a pool of nproc threads every batch-32 GEMM layer waits for the
slowest worker, and on a shared machine that made fleet_serve's host
time swing 2-3x between runs. A traced run also re-runs the workload
once with LAKE_CPU_THREADS=nproc and demands identical virtual-time
results. Any
failed output check prints correct=false and exits 1; a failed build
exits 1 without a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Budget for the driver processes of one run, below the 180 s limit.
DRIVER_BUDGET_S = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        with open(log_path, "w") as log:
            if not os.path.exists(cache):
                cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    cmd += ["-G", "Ninja"]
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                    # Leave no half-configured tree for the next run.
                    if os.path.exists(cache):
                        os.remove(cache)
                    fail("cmake configure failed, see " + log_path)
            cmd = ["cmake", "--build", build_dir, "--target", "lake_perfbench",
                   "-j", str(nproc())]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed, see " + log_path)
    return build_dir, os.path.join(build_dir, "lake_perfbench")


def run_driver(exe, args, threads, deadline):
    # glibc moves its mmap threshold with allocation history, which made
    # page-fault cost and peak RSS depend on the seed; a fixed threshold
    # makes them repeat.
    env = dict(os.environ, LAKE_CPU_THREADS=str(threads),
               MALLOC_MMAP_THRESHOLD_=str(1 << 20))
    try:
        p = subprocess.run([exe] + args, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args))
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        fail("driver exited with %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if a.workload not in workloads:
        fail("unknown workload %r (have: %s)" % (a.workload, ", ".join(workloads)))
    wl = workloads[a.workload]

    build_dir, exe = build()
    deadline = time.monotonic() + DRIVER_BUDGET_S
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--rounds", str(wl["rounds"]["value"])]
    for name, p in sorted(wl["params"].items()):
        args += ["--param", "%s=%r" % (name, p["value"])]
    spans = os.path.join(build_dir, "spans-%s-%d.csv" % (a.workload, a.seed))
    run_args = args + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        run_args += ["--spans-out", spans]
    threads = nproc()
    res = run_driver(exe, run_args, 1, deadline)
    errors = list(res["errors"])

    # Host metrics are medians over rounds; set-up is the shared part
    # (e.g. model training) plus a round's own boot and inputs.
    reps = res["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    host = {
        "host_ops_per_s": [r["ops"] / r["timed_s"] for r in plain],
        "setup_s": [res["prepare_s"] + r["setup_s"] for r in plain],
    }
    detail = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
              "closed_loop": wl["closed_loop"], "rounds": res["rounds"],
              "reps": len(reps),
              "nproc": threads, "provenance": res["provenance"],
              "config": {k: v["value"] for k, v in wl["params"].items()},
              "metrics": {}}

    metrics = {}
    if a.trace == 0:
        for m in bench["end_to_end"]:
            name = m["name"]
            if name in res["v"]:
                value, count = res["v"][name], res["samples"].get(name, 1)
                detail["metrics"][name] = {"value": value, "unit": m["unit"],
                                           "samples": count, "clock": "virtual"}
            elif name in host:
                q1, med, q3 = quartiles(host[name])
                value = med
                detail["metrics"][name] = {"value": value, "unit": m["unit"],
                                           "samples": len(host[name]), "q1": q1,
                                           "q3": q3, "clock": "host",
                                           "per_round": host[name]}
            elif name == "peak_rss_mb":
                value = res["peak_rss_mb"]
                detail["metrics"][name] = {"value": value, "unit": m["unit"],
                                           "samples": 1, "clock": "host"}
            else:
                fail("the driver reports no %s" % name)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        # Per-layer metrics: medians over the traced reps; a layer the
        # workload never enters reports 0.
        known = {m["name"] for m in bench["per_layer"]}
        for r in traced:
            unknown = set(r["layer"]) - known
            if unknown:
                errors.append("driver reports undeclared metrics: " +
                              ", ".join(sorted(unknown)))
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "bench.trace_overhead":
                value = (statistics.median(r["timed_s"] / r["ops"] for r in traced) /
                         statistics.median(r["timed_s"] / r["ops"] for r in plain))
            else:
                vals = [r["layer"].get(name, 0.0) for r in traced]
                value = statistics.median(vals)
            metrics[name] = {"value": value, "unit": m["unit"]}
        detail["metrics"] = metrics
        detail["spans_csv"] = os.path.relpath(spans, ROOT)
        # LAKE_CPU_THREADS must not move any virtual-time result.
        single = run_driver(exe, args + ["--seconds", "0", "--trace", "0",
                                         "--verify-only"], threads, deadline)
        errors += single["errors"]
        if single["v_round0"] != res["v_round0"]:
            errors.append("virtual-time results differ between "
                          "LAKE_CPU_THREADS=1 and %d" % threads)

    detail["errors"] = errors
    print(json.dumps(detail, sort_keys=True))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    for e in errors:
        print("perfbench: check failed: " + e, file=sys.stderr)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
