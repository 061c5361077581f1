#ifndef LAKE_PERFBENCH_WORKLOAD_H
#define LAKE_PERFBENCH_WORKLOAD_H

/**
 * @file
 * What one workload repetition returns to the benchmark driver, and the
 * fixed parameters a workload reads (passed on the command line from
 * perfbench/workloads.json, never calibrated from the build).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace lake::perfbench {

/** Named numeric workload parameters; a missing name is fatal. */
class Params
{
  public:
    void set(const std::string &name, double v) { values_[name] = v; }
    double num(const std::string &name) const;
    std::size_t count(const std::string &name) const;
    std::uint64_t u64(const std::string &name) const;
    const std::map<std::string, double> &all() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

/** Outcome of one repetition: set-up, the timed phase, and its checks. */
struct RepOutput
{
    double setup_s = 0.0; //!< host s: boot, input generation, upload
    double timed_s = 0.0; //!< host s of the timed phase
    double ops = 0.0;     //!< ops completed in the timed phase
    /** Virtual latency of every op (pooled across rounds). */
    std::vector<double> lat_us;
    /** Virtual throughput: ops completed over virtual seconds. */
    double v_ops = 0.0;
    double v_seconds = 0.0;
    /**
     * Virtual-time results of this round. Deterministic for a seed:
     * repeats, traced repeats and any LAKE_CPU_THREADS must reproduce
     * them exactly.
     */
    std::map<std::string, double> v;
    /** Per-layer metrics (complete only on traced reps). */
    std::map<std::string, double> layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures; any entry fails the run. */
    std::vector<std::string> errors;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Set-up shared by every round because it does not depend on the
     * seed (e.g. training the fixed model). @return host seconds spent
     */
    virtual double prepare() { return 0.0; }

    /**
     * Sets up from scratch, runs the timed phase once and checks its
     * outputs. @p tr is null for untraced reps.
     */
    virtual RepOutput rep(std::uint64_t seed, Tracer *tr) = 0;

    /**
     * Checks that need a second program run (e.g. the same inputs
     * through the library's own experiment entry point); run once per
     * benchmark run, outside the timed phase.
     */
    virtual void crossCheck(std::uint64_t seed, const RepOutput &first,
                            std::vector<std::string> &errors)
    {
        (void)seed;
        (void)first;
        (void)errors;
    }
};

std::unique_ptr<Workload> makeLinnosIo(const Params &p);
std::unique_ptr<Workload> makeFleetServe(const Params &p);
std::unique_ptr<Workload> makeEcryptfsBulk(const Params &p);

/** Mean of @p total over @p n, 0 when n is 0. */
inline double
perOp(double total, double n)
{
    return n > 0 ? total / n : 0.0;
}

/**
 * Host-time layer budget of a traced rep: `<layer>.host_share` for every
 * layer (self host ns over the timed phase) and the unattributed share
 * (the driver's own code), so the shares sum to 1.
 */
void addLayerShares(const Tracer &tr, double ops,
                    std::map<std::string, double> &out);

} // namespace lake::perfbench

#endif // LAKE_PERFBENCH_WORKLOAD_H
