#!/usr/bin/env bash
# Paired host-time comparison of the LAKE benchmark against a base revision:
#
#   bench/paired_runs.sh <base-rev> <workload> <pairs> [seed]
#
# Builds <base-rev> from a `git archive` snapshot under ${TMPDIR:-/tmp}
# (never a copy of a working tree: a copied .bench_build keeps a
# CMakeCache that points at the original sources, so the "base" would
# silently measure the current code). Then runs
# `python3 perfbench/run.py --workload W --seed S --seconds T` <pairs>
# times in each tree, alternating which tree goes first, each tree with
# its own absolute CARGO_TARGET_DIR. T is BENCHMARK.json's run_seconds.
#
# Prints, per end-to-end metric of BENCHMARK.json: the base and change
# medians with their quartiles, the ratio of medians (change/base) and
# in how many pairs the change was strictly better; then each side's
# median count of rounds (`reps`) per run, and each side's median minor
# page faults and system CPU seconds per run (getrusage RUSAGE_CHILDREN
# around each run.py call: the driver and, in each arm's first run, its
# incremental build). Exits 1 if any run fails or reports
# correct=false, 2 on a usage or setup error.
#
# CONTROL=1 runs a base-vs-base control instead: the "change" arm is a
# second build of the same <base-rev> snapshot (its own CARGO_TARGET_DIR),
# not the working tree. Its ratios and wins show what this machine's
# spread alone produces, to set a claimed gain against; five pairs once
# read 1.18x on a path no change touched.
set -euo pipefail

[[ $# == 3 || $# == 4 ]] || {
    echo "usage: $0 <base-rev> <workload> <pairs> [seed]" >&2
    exit 2
}
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SHA="$(git -C "$ROOT" rev-parse --verify -q "$1^{commit}")" ||
    { echo "$0: unknown revision $1" >&2; exit 2; }
WORKLOAD="$2"
PAIRS="$3"
SEED="${4:-1}"
CONTROL="${CONTROL:-0}"
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "$0: pairs must be >= 1" >&2; exit 2; }
[[ "$CONTROL" == 0 || "$CONTROL" == 1 ]] ||
    { echo "$0: CONTROL must be 0 or 1" >&2; exit 2; }
SECONDS_PER_RUN="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$ROOT/BENCHMARK.json")"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/lake-paired.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/base"
git -C "$ROOT" archive "$SHA" | tar -x -C "$WORK/base"
CHANGE_TREE="$ROOT"
CHANGE_NAME="working tree"
if [[ "$CONTROL" == 1 ]]; then
    CHANGE_TREE="$WORK/base"
    CHANGE_NAME="second build of base (CONTROL=1)"
fi

# Runs argv[2:] and appends its children's minor faults and system
# seconds, as one JSON line, to the file argv[1]; exits with its status.
RUSAGE_PY='
import json, resource, subprocess, sys
before = resource.getrusage(resource.RUSAGE_CHILDREN)
rc = subprocess.call(sys.argv[2:])
after = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(sys.argv[1], "a") as f:
    f.write(json.dumps({"minflt": after.ru_minflt - before.ru_minflt,
                        "sys_s": after.ru_stime - before.ru_stime}) + "\n")
sys.exit(rc)
'

# run <arm> <tree> <pair>: one benchmark run; its result line (the last
# stdout line) goes to $WORK/<arm>.jsonl, its detail line (the one
# before) to $WORK/<arm>.detail.jsonl and its rusage line to
# $WORK/<arm>.rusage.jsonl. A run that prints no result (a failed build
# or crash) ends the script; correct=false is counted at the end.
run() {
    local out="$WORK/$1.$3.out" rc=0
    (cd "$2" && CARGO_TARGET_DIR="$WORK/$1-build" python3 -c "$RUSAGE_PY" \
        "$WORK/$1.rusage.jsonl" python3 perfbench/run.py \
        --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
        --trace 0) > "$out" 2> "$out.err" || rc=$?
    if ! tail -n 1 "$out" | grep -q '"correct"'; then
        echo "$0: $1 run of pair $3 exited $rc without a result:" >&2
        tail -n 5 "$out.err" >&2
        exit 1
    fi
    tail -n 1 "$out" >> "$WORK/$1.jsonl"
    tail -n 2 "$out" | head -n 1 >> "$WORK/$1.detail.jsonl"
    echo "pair $3 $1: $(tail -n 1 "$out")" >&2
}

for ((p = 1; p <= PAIRS; ++p)); do
    if ((p % 2)); then
        run base "$WORK/base" "$p"
        run change "$CHANGE_TREE" "$p"
    else
        run change "$CHANGE_TREE" "$p"
        run base "$WORK/base" "$p"
    fi
done

echo "$WORKLOAD seed $SEED, $PAIRS pairs of ${SECONDS_PER_RUN} s runs; base ${SHA:0:12}, change = $CHANGE_NAME"
python3 - "$ROOT/BENCHMARK.json" "$WORK/base.jsonl" "$WORK/change.jsonl" \
    "$WORK/base.detail.jsonl" "$WORK/change.detail.jsonl" \
    "$WORK/base.rusage.jsonl" "$WORK/change.rusage.jsonl" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
base = [json.loads(l) for l in open(sys.argv[2])]
change = [json.loads(l) for l in open(sys.argv[3])]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{'metric':<16} {'base median [q1, q3]':<38} "
      f"{'change median [q1, q3]':<38} {'ratio':>7} {'wins':>6} {'ties':>5}")
for m in spec["end_to_end"]:
    name = m["name"]
    b = [r["metrics"][name]["value"] for r in base]
    c = [r["metrics"][name]["value"] for r in change]
    lower = m["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    ties = sum(x == y for x, y in zip(b, c))
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    ratio = cmed / bmed if bmed else float("nan")
    print(f"{name:<16} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':<38} "
          f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<38} "
          f"{ratio:>7.4f} {wins:>3}/{len(b):<2} {ties:>5}")

# Rounds the driver fitted into the run: a faster build fits more, and
# a driver that keeps per-round state (linnos_io keeps every round's
# latencies) then peaks higher in RSS for that reason alone.
for arm, path in (("base", sys.argv[4]), ("change", sys.argv[5])):
    reps = [json.loads(l)["reps"] for l in open(path)]
    q1, med, q3 = quartiles(reps)
    print(f"{arm}: reps median {med:g} [{q1:g}, {q3:g}]")
# Page faults and system time per run: heap churn that glibc trims and
# re-faults shows here before it shows in the ratios.
for arm, path in (("base", sys.argv[6]), ("change", sys.argv[7])):
    rus = [json.loads(l) for l in open(path)]
    _, flt, _ = quartiles([r["minflt"] for r in rus])
    _, sys_s, _ = quartiles([r["sys_s"] for r in rus])
    print(f"{arm}: minor faults median {flt:g}, sys s median {sys_s:.3f} per run")
for arm, rs in (("base", base), ("change", change)):
    print(f"{arm}: failed/attempted per pair "
          + " ".join(f"{r['failed']}/{r['attempted']}" for r in rs))
bad = [f"{arm} pair {i + 1}" for arm, rs in (("base", base), ("change", change))
       for i, r in enumerate(rs) if not r["correct"]]
if bad:
    print("correct=false in: " + ", ".join(bad))
    sys.exit(1)
EOF
