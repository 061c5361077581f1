#ifndef LAKE_STORAGE_E2E_H
#define LAKE_STORAGE_E2E_H

/**
 * @file
 * The §7.1 end-to-end study: ML-driven I/O rerouting on a 3-NVMe array.
 *
 * Reads arriving for a device are committed into that device's feature
 * registry and queued on that device's registry::ScoreServer (Listing
 * 4's flow: capture -> commit -> batch -> score -> act -> truncate).
 * When a batch closes — `batch_max` deep, or polled by the `quantum`
 * timer — the registered classifier scores it; reads predicted slow
 * are reissued round-robin to another device. Inference runs on the
 * CPU or through LAKE on the GPU per the installed execution policy,
 * and its cost lands on the I/O issue path, so the experiment exposes
 * both the benefit (rerouting around queue buildup) and the harm
 * (batch-formation and inference latency) the paper reports.
 */

#include <memory>
#include <string>
#include <vector>

#include "base/stats.h"
#include "base/time.h"
#include "channel/fault.h"
#include "core/lake.h"
#include "policy/mlgate.h"
#include "ml/mlp.h"
#include "storage/nvme.h"
#include "storage/trace.h"

namespace lake::storage {

/** Prediction configurations of Fig. 7. */
enum class E2eMode
{
    Baseline,     //!< kernel default: no prediction, no rerouting
    CpuNn,        //!< LinnOS: synchronous per-I/O inference on the CPU
    LakeNn,       //!< LAKE: batched inference, CPU/GPU by policy
    LakeAdaptive, //!< LakeNn + MlGate: skips ML while it is not paying
                  //!< (the paper's §7.1 future-work policy)
};

/** Printable mode name. */
const char *e2eModeName(E2eMode m);

/** Experiment knobs. */
struct E2eConfig
{
    E2eMode mode = E2eMode::Baseline;
    /** Trained predictor (ignored for Baseline). */
    const ml::Mlp *model = nullptr;
    /** Slow/fast latency threshold per device, microseconds. */
    double threshold_us = 300.0;
    /** Batch flush size for LakeNn. */
    std::size_t batch_max = 16;
    /** Batch flush quantum for LakeNn. */
    Nanos quantum = 20_us;
    /** Crossover batch size for the CPU/GPU policy. */
    std::size_t gpu_batch_threshold = 8;
    /** Modulation gate knobs (LakeAdaptive only). */
    policy::MlGate::Config gate;
    /** Device model. */
    NvmeSpec device = NvmeSpec::samsung980Pro();
    /** Experiment duration. */
    Nanos duration = 2_s;
    std::uint64_t seed = 42;
    /**
     * Arm the channel fault injector (after model upload, so boot-time
     * staging stays clean). Exercises the ISSUE-2 failure path: lakeLib
     * reports Status errors, inference falls back to the CPU, and with
     * enough consecutive failures the run latches degraded mode.
     */
    bool inject_faults = false;
    /** Fault mix when inject_faults is set. */
    channel::FaultSpec faults{};
    /**
     * Streaming DMA orchestration for the GPU inference path
     * (DESIGN.md §10), default off: LakeNn's classifier then splits
     * each batch across the orchestrator's streams with pooled
     * buffers. Off = the classic single-stream path, byte-identical
     * virtual time.
     */
    remote::StreamingConfig streaming{};
};

/** Per-run measurements (one Fig. 7 bar). */
struct E2eResult
{
    double avg_read_lat_us = 0.0;
    double p95_read_lat_us = 0.0;
    double p99_read_lat_us = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t inference_batches = 0;
    double avg_batch = 0.0;
    std::uint64_t gpu_batches = 0; //!< batches dispatched to the GPU
    std::uint64_t gated_batches = 0; //!< reads/batches that skipped ML
    std::uint64_t gate_closures = 0; //!< MlGate off-switches
    std::uint64_t remote_faults = 0; //!< failed RPC attempts (lakeLib)
    std::uint64_t remote_retries = 0; //!< retry attempts (lakeLib)
    std::uint64_t cpu_fallbacks = 0; //!< inferences forced onto the CPU
    bool degraded = false; //!< run ended in degraded (CPU-only) mode
};

/**
 * Runs one configuration over three devices.
 * @param per_device one trace spec per device (size 3); the "mixed"
 *        workloads of Fig. 7 pass different specs per slot
 */
E2eResult runE2e(const std::vector<TraceSpec> &per_device,
                 const E2eConfig &config);

} // namespace lake::storage

#endif // LAKE_STORAGE_E2E_H
