#include "base/stats.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace lake {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        min_ = x;
        max_ = x;
        m2_ = 0.0;
        return;
    }
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
PercentileTracker::percentile(double p) const
{
    LAKE_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    // Fused by hand, not left to contraction: GCC picks which product
    // to fuse from the surrounding code (indexing a deque and a vector
    // fused different ones), and a percentile must not move by an ulp
    // when the storage does.
#if defined(__FP_FAST_FMA)
    return std::fma(samples_[lo], 1.0 - frac, samples_[hi] * frac);
#else
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
#endif
}

MovingAverage::MovingAverage(std::size_t window) : window_(window)
{
    LAKE_ASSERT(window > 0, "moving average window must be positive");
}

double
MovingAverage::add(double x)
{
    buf_.push_back(x);
    sum_ += x;
    if (buf_.size() > window_) {
        sum_ -= buf_.front();
        buf_.pop_front();
        if (++evictions_ >= kRederivePeriod) {
            evictions_ = 0;
            sum_ = 0.0;
            for (double v : buf_)
                sum_ += v;
        }
    }
    return value();
}

double
MovingAverage::value() const
{
    if (buf_.empty())
        return 0.0;
    return sum_ / static_cast<double>(buf_.size());
}

void
MovingAverage::reset()
{
    buf_.clear();
    sum_ = 0.0;
    evictions_ = 0;
}

void
BusyTracker::addBusy(Nanos start, Nanos end)
{
    LAKE_ASSERT(end >= start, "inverted busy span");
    if (end == start)
        return;
    total_busy_ += end - start;
    // Spans usually arrive time-ordered (a device services one launch at
    // a time), so insertion at the back is the common case.
    if (spans_.empty() || spans_.back().start <= start) {
        spans_.push_back({start, end});
        return;
    }
    auto it = std::lower_bound(
        spans_.begin(), spans_.end(), start,
        [](const Span &s, Nanos t) { return s.start < t; });
    spans_.insert(it, {start, end});
}

double
BusyTracker::utilization(Nanos now, Nanos window) const
{
    LAKE_ASSERT(window > 0, "utilization window must be positive");
    // Probes must be monotone: spans behind the compaction horizon are
    // gone, so answering an earlier `now` would silently under-count
    // busy time instead of wrapping — panic rather than mis-measure.
    LAKE_ASSERT(now >= last_probe_now_,
                "non-monotone utilization probe: now=%llu after %llu",
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(last_probe_now_));
    last_probe_now_ = now;
    max_window_ = std::max(max_window_, window);
    Nanos lo = now > window ? now - window : 0;
    // Probe times are monotone in every caller, so a span that ended
    // before now - (largest window ever asked for) cannot intersect
    // this probe or any later one; drop such spans here rather than
    // relying on an explicit compact() call nobody makes.
    Nanos keep = now > max_window_ ? now - max_window_ : 0;
    while (!spans_.empty() && spans_.front().end <= keep)
        spans_.pop_front();
    // Spans are start-ordered and never nest, so their ends are ordered
    // too: binary-search past everything that ends at or before lo
    // instead of rescanning the whole busy history each probe.
    auto it = std::partition_point(
        spans_.begin(), spans_.end(),
        [lo](const Span &s) { return s.end <= lo; });
    Nanos busy = 0;
    for (; it != spans_.end(); ++it) {
        if (it->start >= now)
            break; // starts are ordered: nothing later intersects
        Nanos a = std::max(it->start, lo);
        Nanos b = std::min(it->end, now);
        busy += b - a;
    }
    Nanos span = now - lo;
    if (span == 0)
        return 0.0;
    return 100.0 * static_cast<double>(busy) / static_cast<double>(span);
}

void
BusyTracker::compact(Nanos horizon)
{
    while (!spans_.empty() && spans_.front().end < horizon)
        spans_.pop_front();
}

void
BusyTracker::reset()
{
    spans_.clear();
    total_busy_ = 0;
    max_window_ = 0;
    // A reset tracker restarts its timeline (benchmark repetitions
    // reset the clock too), so the monotone-probe horizon restarts.
    last_probe_now_ = 0;
}

RateMeter::RateMeter(Nanos bucket) : bucket_(bucket)
{
    LAKE_ASSERT(bucket > 0, "rate meter bucket must be positive");
}

void
RateMeter::record(Nanos t, double amount)
{
    std::size_t idx = static_cast<std::size_t>(t / bucket_);
    if (idx >= sums_.size())
        sums_.resize(idx + 1, 0.0);
    sums_[idx] += amount;
}

std::vector<RateMeter::Point>
RateMeter::series() const
{
    std::vector<Point> out;
    out.reserve(sums_.size());
    double seconds = toSec(bucket_);
    for (std::size_t i = 0; i < sums_.size(); ++i)
        out.push_back({i * bucket_, sums_[i] / seconds});
    return out;
}

} // namespace lake
