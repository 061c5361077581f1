#!/usr/bin/env bash
# Byte-identity check of the figure/table reproductions:
#
#   bench/stdout_diff.sh <base-rev> [build-dir]
#
# Builds <base-rev> from a `git archive` snapshot under ${TMPDIR:-/tmp}
# with the generator, CMAKE_BUILD_TYPE and LAKE_NATIVE_ARCH of the
# current build tree (default build/; a mismatch changes float codegen)
# and keeps that build for the next run: it is keyed by (sha, generator,
# build type, native arch) under ${TMPDIR:-/tmp}/lake-stdout-diff-cache,
# reused only when its stamp (written after a successful build) exists,
# and only the two most recently used builds are kept (so two runs must
# not share a TMPDIR at the same time). It then runs every bench/fig*
# and bench/table* plus ablation_hardware, `fleet_scaling --smoke`,
# `serve_slo --smoke`, the streamed arms (`LAKE_STREAMS=4`
# fig07_linnos_e2e and fig14_ecryptfs), examples/pagewarmth_demo (no
# fig/table entry runs trainLstm) and examples/io_latency_predictor of
# both builds in an empty directory and diffs stdout and exit code. The
# two builds of an entry run at the same time, each in its own
# directory; the SAME/DIFF/NEW lines come out in entry order. An
# entry's leading NAME=value words are set in the binary's environment;
# a binary named with a directory is found under the build tree, any
# other under bench/. Exits 1 on any difference, 2 on a usage or build
# error.
set -euo pipefail

[[ $# == 1 || $# == 2 ]] || { echo "usage: $0 <base-rev> [build-dir]" >&2; exit 2; }
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(cd "${2:-$ROOT/build}" && pwd)"
[[ -f "$BUILD/CMakeCache.txt" ]] || { echo "$0: $BUILD is not configured" >&2; exit 2; }
SHA="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
var() { sed -n "s/^$1:[A-Z]*=//p" "$BUILD/CMakeCache.txt"; }

GEN="$(var CMAKE_GENERATOR)"
TYPE="$(var CMAKE_BUILD_TYPE)"
NATIVE="$(var LAKE_NATIVE_ARCH)"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/lake-stdout-diff.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
build() {
    "$@" > "$WORK/build.log" 2>&1 || { tail -n 30 "$WORK/build.log" >&2; exit 2; }
}

# The base build, cached across runs. The stamp is written only after a
# successful build; without it the build is redone from scratch.
CACHE="${TMPDIR:-/tmp}/lake-stdout-diff-cache"
BASE="$CACHE/$SHA-${GEN// /_}-${TYPE:-none}-native_$NATIVE"
if [[ ! -f "$BASE/stamp" ]]; then
    rm -rf "$BASE"
    mkdir -p "$BASE/src"
    git -C "$ROOT" archive "$SHA" | tar -x -C "$BASE/src"
    build cmake -S "$BASE/src" -B "$BASE/build" -G "$GEN" \
        -DCMAKE_BUILD_TYPE="$TYPE" -DLAKE_NATIVE_ARCH="$NATIVE"
    build cmake --build "$BASE/build" -j "$(nproc)"
fi
touch "$BASE/stamp"
# Keep the two most recently used builds; drop older and unfinished ones.
for dir in "$CACHE"/*/; do
    dir="${dir%/}"
    [[ "$dir" == "$BASE" || -f "$dir/stamp" ]] || rm -rf "$dir"
done
ls -1t "$CACHE"/*/stamp | tail -n +3 | while read -r stamp; do
    rm -rf "$(dirname "$stamp")"
done
build cmake --build "$BUILD" -j "$(nproc)"

# run <out> <binary> [args...]: stdout and exit code into <out>.
run() {
    local out="$1" rc=0
    shift
    mkdir -p "$out.cwd"
    (cd "$out.cwd" && "$@") > "$out" 2> /dev/null || rc=$?
    echo "exit $rc" >> "$out"
}

entries=(ablation_hardware "fleet_scaling --smoke" "serve_slo --smoke"
         "LAKE_STREAMS=4 fig07_linnos_e2e" "LAKE_STREAMS=4 fig14_ecryptfs"
         examples/pagewarmth_demo examples/io_latency_predictor)
for exe in "$BUILD"/bench/fig* "$BUILD"/bench/table*; do
    [[ -f "$exe" && -x "$exe" ]] && entries+=("$(basename "$exe")")
done
status=0
for entry in "${entries[@]}"; do
    read -r -a words <<< "$entry"
    envs=()
    while [[ "${words[0]}" == *=* ]]; do
        envs+=("${words[0]}")
        words=("${words[@]:1}")
    done
    name="${words[0]}"
    [[ "$name" == */* ]] || name="bench/$name"
    args=("${words[@]:1}")
    out="$WORK/${entry//[^A-Za-z0-9_.-]/_}"
    if [[ ! -x "$BASE/build/$name" ]]; then
        echo "NEW   $entry"
        continue
    fi
    run "$out.base" env "${envs[@]}" "$BASE/build/$name" "${args[@]}" &
    run "$out.cur" env "${envs[@]}" "$BUILD/$name" "${args[@]}"
    wait
    if diff -u "$out.base" "$out.cur"; then
        echo "SAME  $entry"
    else
        echo "DIFF  $entry"
        status=1
    fi
done
exit "$status"
