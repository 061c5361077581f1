#!/usr/bin/env bash
# Byte-identity check of the figure/table reproductions:
#
#   bench/stdout_diff.sh <base-rev> [build-dir]
#
# Builds <base-rev> from a `git archive` snapshot under ${TMPDIR:-/tmp}
# with the generator, CMAKE_BUILD_TYPE and LAKE_NATIVE_ARCH of the
# current build tree (default build/; a mismatch changes float codegen),
# runs every bench/fig* and bench/table* plus ablation_hardware,
# `fleet_scaling --smoke` and `serve_slo --smoke` of both builds in an
# empty directory and diffs stdout and exit code. Exits 1 on any
# difference, 2 on a usage or build error.
set -euo pipefail

[[ $# == 1 || $# == 2 ]] || { echo "usage: $0 <base-rev> [build-dir]" >&2; exit 2; }
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(cd "${2:-$ROOT/build}" && pwd)"
[[ -f "$BUILD/CMakeCache.txt" ]] || { echo "$0: $BUILD is not configured" >&2; exit 2; }
SHA="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
var() { sed -n "s/^$1:[A-Z]*=//p" "$BUILD/CMakeCache.txt"; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/lake-stdout-diff.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/src"
git -C "$ROOT" archive "$SHA" | tar -x -C "$WORK/src"
build() {
    "$@" > "$WORK/build.log" 2>&1 || { tail -n 30 "$WORK/build.log" >&2; exit 2; }
}
build cmake -S "$WORK/src" -B "$WORK/build" -G "$(var CMAKE_GENERATOR)" \
    -DCMAKE_BUILD_TYPE="$(var CMAKE_BUILD_TYPE)" \
    -DLAKE_NATIVE_ARCH="$(var LAKE_NATIVE_ARCH)"
build cmake --build "$WORK/build" -j "$(nproc)"
build cmake --build "$BUILD" -j "$(nproc)"

# run <out> <binary> [args...]: stdout and exit code into <out>.
run() {
    local out="$1" rc=0
    shift
    mkdir -p "$out.cwd"
    (cd "$out.cwd" && "$@") > "$out" 2> /dev/null || rc=$?
    echo "exit $rc" >> "$out"
}

entries=(ablation_hardware "fleet_scaling --smoke" "serve_slo --smoke")
for exe in "$BUILD"/bench/fig* "$BUILD"/bench/table*; do
    [[ -f "$exe" && -x "$exe" ]] && entries+=("$(basename "$exe")")
done
status=0
for entry in "${entries[@]}"; do
    read -r name args <<< "$entry"
    if [[ ! -x "$WORK/build/bench/$name" ]]; then
        echo "NEW   $entry"
        continue
    fi
    run "$WORK/$name.base" "$WORK/build/bench/$name" $args
    run "$WORK/$name.cur" "$BUILD/bench/$name" $args
    if diff -u "$WORK/$name.base" "$WORK/$name.cur"; then
        echo "SAME  $entry"
    else
        echo "DIFF  $entry"
        status=1
    fi
done
exit "$status"
