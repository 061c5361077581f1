#ifndef LAKE_BASE_STATS_H
#define LAKE_BASE_STATS_H

/**
 * @file
 * Measurement helpers used across the evaluation harnesses: running
 * moments, percentiles, windowed moving averages (the Fig. 3 policy),
 * rate meters (throughput timelines of Figs. 1/13) and busy-time
 * utilization integration (NVML model, Fig. 15).
 */

#include <cstddef>
#include <deque>
#include <vector>

#include "base/time.h"

namespace lake {

/** Single-pass mean / variance / min / max accumulator (Welford). */
class RunningStat
{
  public:
    /** Adds one sample. */
    void add(double x);

    /** Number of samples recorded so far. */
    std::size_t count() const { return n_; }
    /** Sample mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;
    /** Smallest sample; 0 when empty. */
    double min() const { return n_ ? min_ : 0.0; }
    /** Largest sample; 0 when empty. */
    double max() const { return n_ ? max_ : 0.0; }
    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Clears all state. */
    void reset() { *this = RunningStat(); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Percentile estimator that keeps every sample.
 *
 * The evaluation sweeps are small enough (at most a few million I/Os)
 * that exact percentiles are affordable and avoid sketch error bars.
 * Samples live in fixed-size chunks (a deque), so growing to millions
 * of them never holds the old and the doubled buffer at once, as a
 * vector's reallocation does.
 */
class PercentileTracker
{
  public:
    /** Adds one sample. */
    void
    add(double x)
    {
        samples_.push_back(x);
        // A sample appended after a percentile() call lands past the
        // sorted prefix; the flag must drop or later queries would
        // interpolate over partially-sorted data.
        sorted_ = false;
    }

    /**
     * Returns the p-th percentile (p in [0, 100]) by linear
     * interpolation between closest ranks; 0 when empty.
     */
    double percentile(double p) const;

    /** Number of samples. */
    std::size_t count() const { return samples_.size(); }

    /** Clears all samples. */
    void reset() { samples_.clear(); }

  private:
    mutable std::deque<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * Fixed-width moving average over the last N samples.
 *
 * This is the `mov_avg` primitive of the paper's Fig. 3 contention
 * policy: it smooths instantaneous GPU utilization readings.
 */
class MovingAverage
{
  public:
    /** @param window number of most recent samples averaged; must be > 0 */
    explicit MovingAverage(std::size_t window);

    /** Adds a sample and returns the updated average. */
    double add(double x);

    /** Current average; 0 when no samples yet. */
    double value() const;

    /** True once a full window of samples has been seen. */
    bool warm() const { return buf_.size() == window_; }

    /** Clears all state. */
    void reset();

  private:
    /**
     * Evictions between exact re-derivations of sum_. Incremental
     * add/subtract accumulates float error (catastrophically so when a
     * large outlier leaves the window); re-summing the — small — window
     * every period bounds the drift to what at most kRederivePeriod
     * updates can introduce, while keeping add() O(1) amortized.
     */
    static constexpr std::size_t kRederivePeriod = 1024;

    std::size_t window_;
    std::deque<double> buf_;
    double sum_ = 0.0;
    std::size_t evictions_ = 0; //!< since the last re-derivation
};

/**
 * Integrates busy intervals on a timeline into utilization percentages.
 *
 * The GPU device model records [start, end) busy spans here; the NVML
 * shim answers "percent busy over the last W nanoseconds", which is the
 * signal the contention policy and Fig. 15 consume.
 */
class BusyTracker
{
  public:
    /** Records a busy span; spans may arrive out of order but not nest. */
    void addBusy(Nanos start, Nanos end);

    /**
     * Percent of [now - window, now] that was busy, in [0, 100].
     * Spans only partially inside the window count partially.
     *
     * The probe also bounds memory: spans that ended before
     * now - max(window ever probed) can never contribute to a later
     * query (probe times are monotone in every caller), so they are
     * compacted away here — the scan then starts at the first span
     * still inside the window (binary search; spans are start-ordered
     * and non-nesting, so ends are ordered too) instead of walking the
     * whole busy history.
     */
    double utilization(Nanos now, Nanos window) const;

    /** Total busy time accumulated since creation or reset(). */
    Nanos totalBusy() const { return total_busy_; }

    /** Drops spans that ended before @p horizon to bound memory. */
    void compact(Nanos horizon);

    /** Spans currently retained (memory-bound probe, for tests). */
    std::size_t spanCount() const { return spans_.size(); }

    /** Clears all state. */
    void reset();

  private:
    struct Span
    {
        Nanos start;
        Nanos end;
    };

    /**
     * Mutable: utilization() is logically const (same value as an
     * uncompacted scan) but physically drops spans no future probe can
     * observe. Trackers are probed from one execution context at a
     * time (device timelines, sim resources), like the rest of the
     * class.
     */
    mutable std::deque<Span> spans_;
    mutable Nanos max_window_ = 0; //!< largest window ever probed
    /**
     * Latest probe time seen. The compaction above is only sound while
     * probe times are monotone (the documented contract); utilization()
     * asserts it, because a backwards probe after compaction would
     * silently under-report — the spans it should see are gone — and
     * its clamped `now - window` arithmetic would mask the bug.
     */
    mutable Nanos last_probe_now_ = 0;
    Nanos total_busy_ = 0;
};

/**
 * Converts discrete completion events into a throughput-over-time
 * series, bucketed at a fixed interval. Backs the Fig. 1 / Fig. 13
 * timeline plots.
 */
class RateMeter
{
  public:
    /** @param bucket width of one time bucket */
    explicit RateMeter(Nanos bucket);

    /** Records that @p amount units completed at time @p t. */
    void record(Nanos t, double amount);

    /** One bucket of the series: [time, units-per-second]. */
    struct Point
    {
        Nanos time;      //!< bucket start
        double rate;     //!< units per second within the bucket
    };

    /** The full series, one point per non-empty bucket, time-ordered. */
    std::vector<Point> series() const;

  private:
    Nanos bucket_;
    std::vector<double> sums_; //!< indexed by bucket number
};

} // namespace lake

#endif // LAKE_BASE_STATS_H
