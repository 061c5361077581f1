#ifndef LAKE_POLICY_POLICY_H
#define LAKE_POLICY_POLICY_H

/**
 * @file
 * Execution policies: CPU-vs-accelerator decisioning.
 *
 * §4.2/§4.3: "LAKE allows on-the-fly switch between execution on CPU and
 * accelerator, at the function call granularity... through custom
 * execution policies" which also manage contention. A policy sees the
 * pending batch size and (rate-limited) GPU utilization and picks an
 * engine; the framework invokes it automatically before dispatching
 * inference (registry::score_features) or any LAKE-accelerated call.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.h"
#include "base/time.h"

namespace lake::policy {

/** Where to run the next call. */
enum class Engine
{
    Cpu,
    Gpu,
};

/** Printable engine name. */
const char *engineName(Engine e);

/** Everything a policy may consult for one decision. */
struct PolicyInput
{
    /** Number of inputs in the batch about to be processed. */
    std::size_t batch_size = 0;
    /** Current virtual time. */
    Nanos now = 0;
    /** Mean inter-arrival time of recent work, microseconds (0 if n/a). */
    double inter_arrival_us = 0.0;
};

/**
 * Rate-limited GPU utilization probe, supplied by the framework.
 * Implementations typically call the LAKE-remoted NVML API and therefore
 * cost real (virtual) time — which is exactly why policies rate-limit.
 */
using UtilProbe = std::function<double(Nanos now)>;

/** Base class for execution policies. */
class ExecPolicy
{
  public:
    virtual ~ExecPolicy() = default;

    /** Picks the engine for one call. */
    virtual Engine decide(const PolicyInput &in) = 0;

    /** Diagnostic name. */
    virtual const char *name() const = 0;
};

/** Unconditionally CPU (the no-accelerator baseline). */
class AlwaysCpuPolicy final : public ExecPolicy
{
  public:
    Engine decide(const PolicyInput &) override { return Engine::Cpu; }
    const char *name() const override { return "always-cpu"; }
};

/** Unconditionally GPU (ignores profitability and contention). */
class AlwaysGpuPolicy final : public ExecPolicy
{
  public:
    Engine decide(const PolicyInput &) override { return Engine::Gpu; }
    const char *name() const override { return "always-gpu"; }
};

/**
 * Pure profitability policy: GPU once the batch reaches the crossover
 * point for the workload (Table 3), CPU below it.
 */
class BatchThresholdPolicy final : public ExecPolicy
{
  public:
    /** @param batch_threshold minimum batch size for the GPU to win */
    explicit BatchThresholdPolicy(std::size_t batch_threshold);

    Engine decide(const PolicyInput &in) override;
    const char *name() const override { return "batch-threshold"; }

    /** The installed crossover point. */
    std::size_t threshold() const { return batch_threshold_; }

  private:
    std::size_t batch_threshold_;
};

/**
 * Degradation guard: wraps any policy and forces CPU execution while
 * the remoting path is unhealthy.
 *
 * The ISSUE-2 failure contract: when repeated remoting failures latch
 * the LAKE core into degraded mode, every accelerated call site must
 * keep working on the CPU. Reusing the Fig. 3 policy plumbing — this
 * is just another ExecPolicy — means nothing at the call sites
 * changes; the registry dispatch simply stops picking the GPU.
 */
class FallbackPolicy final : public ExecPolicy
{
  public:
    /** Health probe: true while remoting is degraded. */
    using Predicate = std::function<bool()>;
    /** Invoked whenever a GPU decision is overridden to CPU. */
    using Notify = std::function<void()>;

    /**
     * @param inner       the real policy, consulted when healthy
     * @param degraded    health probe (required)
     * @param on_fallback fallback-counter hook (may be null)
     */
    FallbackPolicy(std::unique_ptr<ExecPolicy> inner, Predicate degraded,
                   Notify on_fallback = nullptr);

    Engine decide(const PolicyInput &in) override;
    const char *name() const override { return "fallback"; }

    /**
     * Decisions forced to CPU while degraded. The counter is atomic so
     * a ScoreServer flush (which consults the policy from whichever
     * thread triggered the flush) can race a reader on the owner
     * thread without undefined behaviour.
     */
    std::uint64_t
    overrides() const
    {
        return overrides_.load(std::memory_order_relaxed);
    }
    /** The wrapped policy. */
    ExecPolicy &inner() { return *inner_; }

  private:
    std::unique_ptr<ExecPolicy> inner_;
    Predicate degraded_;
    Notify on_fallback_;
    std::atomic<std::uint64_t> overrides_{0};
};

/** Tunables of the Fig. 3 pseudocode. */
struct ContentionConfig
{
    /** Minimum time between NVML queries ("...5 ms elapsed..."). */
    Nanos probe_interval = 5_ms;
    /** Moving-average window (number of readings). */
    std::size_t avg_window = 4;
    /** Smoothed utilization (%) above which the GPU is contended. */
    double exec_threshold = 40.0;
    /** Profitability crossover batch size. */
    std::size_t batch_threshold = 8;
    /**
     * Max staleness of the smoothed window, in probe intervals:
     * when more than `stale_windows * probe_interval` elapsed since
     * the last probe, the moving-average window is dropped and
     * rebuilt from a fresh reading. Without this, the first
     * decision after a long idle gap averages readings of
     * arbitrary age against one fresh probe — a burst arriving
     * after the gap would be steered by utilization observed
     * before the gap. 0 disables the reset.
     */
    std::size_t stale_windows = 8;
};

/**
 * One device's rate-limited, staleness-bounded smoothed utilization:
 * the per-probe state of the Fig. 3 policy (moving average + last
 * probe time) factored out so a multi-device policy can hold one per
 * device instead of blending every device's readings into a single
 * stale signal (the pre-fleet bug).
 */
class UtilSmoother
{
  public:
    explicit UtilSmoother(const ContentionConfig &cfg) : avg_(cfg.avg_window)
    {
    }

    /**
     * One Fig. 3 probe step at @p now: applies the staleness reset,
     * rate-limits the (costly, remoted) @p probe call, and returns the
     * smoothed value.
     */
    double sample(const UtilProbe &probe, Nanos now,
                  const ContentionConfig &cfg);

    /** Current smoothed utilization (no probe). */
    double value() const { return avg_.value(); }

    void
    reset()
    {
        avg_.reset();
        probed_once_ = false;
    }

  private:
    MovingAverage avg_;
    Nanos last_probe_ = 0;
    bool probed_once_ = false;
};

/** A placement: the engine and, when Gpu, which fleet device. */
struct Placement
{
    Engine engine = Engine::Cpu;
    std::size_t device = 0;
};

/**
 * The Fig. 3 policy (contention management + profitability) across a
 * device fleet; built with one probe it is the single-GPU policy. One
 * UtilSmoother per device (bugfix: a single blended MovingAverage
 * cannot steer between devices), a pending-dispatch depth signal per
 * device, and sticky placement so a registry's captures keep landing
 * on the device that already holds its model.
 *
 * Thread-safe: shard worker threads may call place()/decide()
 * concurrently. Lock order is policy mutex -> shard mutex (the probes
 * call into their owning shard); callers must never hold a shard
 * mutex while calling in here.
 */
class FleetPlacementPolicy final : public ExecPolicy
{
  public:
    /** Pending (dispatched, uncompleted) batches on one device. */
    using DepthProbe = std::function<std::size_t(std::size_t device)>;
    /** True when a device must not be chosen (its shard is degraded). */
    using DeviceVeto = std::function<bool(std::size_t device)>;

    struct Config
    {
        ContentionConfig contention;
        /**
         * Utilization-points equivalent of one pending batch: the
         * placement score is `smoothed_util + depth_weight * depth`,
         * so queue depth breaks ties between equally idle devices.
         */
        double depth_weight = 5.0;
    };

    /** @param probes one utilization source per fleet device */
    FleetPlacementPolicy(std::vector<UtilProbe> probes, Config config);

    void setDepthProbe(DepthProbe p) { depth_ = std::move(p); }
    void setVeto(DeviceVeto v) { veto_ = std::move(v); }

    /**
     * Picks CPU or a device for one call, preferring @p sticky (the
     * caller's current placement). Samples the sticky device's
     * smoother on every decision — the exact Fig. 3 probe cadence —
     * and hunts across the other devices only when the sticky one is
     * contended, so a single-device fleet makes exactly the Fig. 3
     * decisions.
     */
    Placement place(const PolicyInput &in, std::size_t sticky);

    Engine decide(const PolicyInput &in) override;
    const char *name() const override { return "fleet-placement"; }

    std::size_t deviceCount() const { return probes_.size(); }

    /** Device @p d's current smoothed utilization (telemetry). */
    double smoothedUtilization(std::size_t d = 0);

  private:
    std::vector<UtilProbe> probes_;
    Config cfg_;
    std::vector<UtilSmoother> smoothers_;
    DepthProbe depth_;
    DeviceVeto veto_;
    /** decide()'s sticky seed when the caller tracks no placement. */
    std::atomic<std::size_t> last_device_{0};
    std::mutex mu_; //!< guards smoothers_ (probes run under it)
};

} // namespace lake::policy

#endif // LAKE_POLICY_POLICY_H
