#!/usr/bin/env bash
# Byte-identity check of the figure/table reproductions:
#
#   bench/stdout_diff.sh <base-rev> [build-dir]
#
# Builds <base-rev> from a `git archive` snapshot under ${TMPDIR:-/tmp}
# with the generator, CMAKE_BUILD_TYPE and LAKE_NATIVE_ARCH of the
# current build tree (default build/; a mismatch changes float codegen),
# runs every bench/fig* and bench/table* of both builds in an empty
# directory and diffs stdout and exit code. Exits 1 on any difference,
# 2 on a usage or build error.
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

# run <binary> <out>: stdout and exit code of <binary> into <out>.
run() {
    local rc=0
    mkdir -p "$2.cwd"
    (cd "$2.cwd" && "$1") > "$2" 2> /dev/null || rc=$?
    echo "exit $rc" >> "$2"
}

status=0
for exe in "$BUILD"/bench/fig* "$BUILD"/bench/table*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
    name="$(basename "$exe")"
    if [[ ! -x "$WORK/build/bench/$name" ]]; then
        echo "NEW   $name"
        continue
    fi
    run "$WORK/build/bench/$name" "$WORK/$name.base"
    run "$exe" "$WORK/$name.cur"
    if diff -u "$WORK/$name.base" "$WORK/$name.cur"; then
        echo "SAME  $name"
    else
        echo "DIFF  $name"
        status=1
    fi
done
exit "$status"
