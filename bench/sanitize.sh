#!/usr/bin/env bash
# One-command sanitizer run for the LAKE test suite.
#
#   bench/sanitize.sh [thread|address|undefined|address+undefined] [ctest args...]
#
# Configures a dedicated build tree under build-san-<name>/, builds the
# tests, and runs ctest. Extra arguments go to ctest verbatim, so
#
#   bench/sanitize.sh address -L faults
#
# runs just the fault-injection / malformed-command corpus under ASan.
set -euo pipefail

SAN="${1:-address}"
shift || true

case "$SAN" in
    thread|address|undefined|address+undefined) ;;
    *)
        echo "usage: $0 [thread|address|undefined|address+undefined] [ctest args...]" >&2
        exit 2
        ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# '+' is awkward in directory names; normalize for the build tree only.
BUILD="$ROOT/build-san-${SAN//+/-}"

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DLAKE_SANITIZE="$SAN"
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure "$@"

# Smoke-size perf benches (ctest -L perf), e.g. the remoting-pipeline
# bench: under sanitizers the timings are meaningless, but the runs
# drive the batched fast path end to end, so a wire/allocator bug
# surfaces here even if no unit test names it.
ctest --test-dir "$BUILD" --output-on-failure -L perf

# The observability suite (ctest -L obs) exercises the tracer's
# cross-thread ring merge and the lock-free metrics families — exactly
# the code TSan/ASan should sweep even though the default-off path
# makes it invisible to the rest of the suite.
ctest --test-dir "$BUILD" --output-on-failure -L obs

# The registry suite (ctest -L registry) hammers multi-threaded
# capture-while-commit and concurrent ScoreServer submission — the
# column store's relaxed-atomic live lanes plus the scoring service's
# two-lock flush path are precisely what `bench/sanitize.sh thread`
# exists to sweep. The label includes the `soa` suite below.
ctest --test-dir "$BUILD" --output-on-failure -L registry

# The streaming-DMA suite (ctest -L dma) drives the buffer pool's
# recycle/credit paths, the fault-injected sync that must release
# credits without leaking, and the dma_streaming smoke bench — the
# carve-out arithmetic and retire-on-failure path are what ASan/UBSan
# should sweep here.
ctest --test-dir "$BUILD" --output-on-failure -L dma

# The serving suite (ctest -L serve) runs the open-loop traffic
# generator with offer() and pump() racing from multiple threads
# against the ScoreServer's inline flush — the generator's
# pick-under-lock/submit-outside-lock dance and the completion
# callbacks re-entering its mutex are what `bench/sanitize.sh thread`
# exists to sweep, and the serve_slo smoke adds a full admission +
# DRR + shed sweep on top.
ctest --test-dir "$BUILD" --output-on-failure -L serve

# The column-store suite (ctest -L soa) stresses the registry's
# capture plane: relaxed-atomic column lanes written from many threads
# while a capture is open, slot recycling deferred behind pinned batch
# views across window wraps and truncates, and the registry_scoring
# smoke's capture→commit→submitView fast path — the atomic_ref lanes
# and the pin/unpin lifecycle are exactly what `bench/sanitize.sh
# thread -L soa` (and ASan for the shm carve-out arithmetic) exist to
# sweep.
ctest --test-dir "$BUILD" --output-on-failure -L soa

# The fleet suite (ctest -L fleet) runs K lakeD shards dispatching
# concurrently from per-thread serving stacks through one shared
# FleetMlp and FleetRouter — the policy-mutex/shard-mutex lock order,
# the relaxed pending-depth atomics, and the per-shard health latches
# are what `bench/sanitize.sh thread -L fleet` exists to sweep, and
# the fleet_scaling smoke adds the CuSetDevice muxing path under load.
ctest --test-dir "$BUILD" --output-on-failure -L fleet

# The crypto suite (ctest -L crypto) runs AES-GCM against NIST vectors
# and a bit-serial reference, plus eCryptfs over every cipher engine —
# the T-table and 256-entry GHASH-table indexing, the four-lane CTR
# buffers and the 56-bit shifts are what ASan/UBSan should sweep.
ctest --test-dir "$BUILD" --output-on-failure -L crypto

# The ML suite (ctest -L ml) runs every dense layer through the one
# packed path: packTranspose's ld/padding stride arithmetic, strided
# MatrixView batches, training on the inference layers, and the
# mlp_forward body reading its input rows in place from device memory
# — the indexing ASan/UBSan should sweep.
ctest --test-dir "$BUILD" --output-on-failure -L ml
