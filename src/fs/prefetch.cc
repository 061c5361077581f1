#include "fs/prefetch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/logging.h"
#include "ml/sgd.h"

namespace lake::fs {

const char *
patternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Sequential: return "sequential";
      case AccessPattern::Strided:    return "strided";
      case AccessPattern::Random:     return "random";
      case AccessPattern::MixedZipf:  return "mixed-zipf";
    }
    return "?";
}

AccessStream
generateAccesses(AccessPattern pattern, std::size_t count,
                 std::uint64_t file_pages, Rng &rng)
{
    LAKE_ASSERT(file_pages > 64, "file too small for pattern generation");
    AccessStream out;
    out.reserve(count);

    switch (pattern) {
      case AccessPattern::Sequential: {
        std::uint64_t pos = rng.uniformInt(0, file_pages / 4);
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(pos % file_pages);
            // Occasional skip, as real sequential readers reposition.
            pos += rng.chance(0.02) ? rng.uniformInt(2, 16) : 1;
        }
        break;
      }
      case AccessPattern::Strided: {
        std::uint64_t stride = rng.uniformInt(4, 32);
        std::uint64_t pos = rng.uniformInt(0, file_pages / 4);
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(pos % file_pages);
            pos += stride;
            if (rng.chance(0.01))
                pos += rng.uniformInt(1, 3); // phase noise
        }
        break;
      }
      case AccessPattern::Random: {
        for (std::size_t i = 0; i < count; ++i)
            out.push_back(rng.uniformInt(0, file_pages - 1));
        break;
      }
      case AccessPattern::MixedZipf: {
        // Hot set + occasional sequential bursts: database-ish.
        std::uint64_t hot = std::max<std::uint64_t>(file_pages / 64, 16);
        std::size_t i = 0;
        while (i < count) {
            if (rng.chance(0.25)) {
                std::uint64_t pos = rng.uniformInt(0, file_pages - 1);
                std::size_t burst =
                    std::min<std::size_t>(count - i,
                                          rng.uniformInt(4, 12));
                for (std::size_t b = 0; b < burst; ++b, ++i)
                    out.push_back((pos + b) % file_pages);
            } else {
                // Approximate Zipf over the hot set by squaring a
                // uniform draw (mass concentrates near zero).
                double u = rng.uniform01();
                out.push_back(static_cast<std::uint64_t>(
                    u * u * static_cast<double>(hot)));
                ++i;
            }
        }
        break;
      }
    }
    return out;
}

void
extractPrefetchFeatures(const AccessStream &window,
                        float out[kPrefetchFeatures])
{
    std::fill(out, out + kPrefetchFeatures, 0.0f);
    if (window.size() < 2)
        return;
    std::size_t n = window.size() - 1;

    // Features 0..15: histogram of delta magnitudes in log2 buckets,
    // signed (forward 0..7, backward 8..15), normalized.
    // Features 16..19: +1/0/-stride/random ratios.
    // Features 20..27: reuse statistics and monotonicity.
    std::size_t fwd1 = 0, same_stride = 0, backward = 0, jumps = 0;
    std::int64_t prev_delta = 0;
    std::unordered_map<std::uint64_t, std::size_t> last_seen;
    double reuse_sum = 0.0;
    std::size_t reuse_count = 0;

    for (std::size_t i = 1; i < window.size(); ++i) {
        auto delta = static_cast<std::int64_t>(window[i]) -
                     static_cast<std::int64_t>(window[i - 1]);
        std::uint64_t mag =
            static_cast<std::uint64_t>(delta < 0 ? -delta : delta);
        int bucket = 0;
        while (mag > 1 && bucket < 7) {
            mag >>= 1;
            ++bucket;
        }
        out[delta < 0 ? 8 + bucket : bucket] += 1.0f;

        if (delta == 1)
            ++fwd1;
        else if (delta == prev_delta && delta != 0)
            ++same_stride;
        else if (delta < 0)
            ++backward;
        else if (delta > 64)
            ++jumps;
        prev_delta = delta;

        auto it = last_seen.find(window[i]);
        if (it != last_seen.end()) {
            reuse_sum += static_cast<double>(i - it->second);
            ++reuse_count;
        }
        last_seen[window[i]] = i;
    }

    for (int b = 0; b < 16; ++b)
        out[b] /= static_cast<float>(n);
    out[16] = static_cast<float>(fwd1) / n;
    out[17] = static_cast<float>(same_stride) / n;
    out[18] = static_cast<float>(backward) / n;
    out[19] = static_cast<float>(jumps) / n;

    out[20] = reuse_count
                  ? static_cast<float>(reuse_sum / reuse_count / n)
                  : 0.0f;
    out[21] = static_cast<float>(reuse_count) / n;
    out[22] = static_cast<float>(last_seen.size()) /
              static_cast<float>(window.size()); // distinct ratio

    // Features 23..30: quartile deltas of the access positions — cheap
    // spatial-locality summary.
    AccessStream sorted = window;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t span = sorted.back() - sorted.front() + 1;
    for (int q = 0; q < 8; ++q) {
        std::size_t idx = (sorted.size() - 1) * q / 7;
        out[23 + q] = static_cast<float>(
            static_cast<double>(sorted[idx] - sorted.front()) /
            static_cast<double>(span));
    }
}

std::vector<PrefetchSample>
buildPrefetchDataset(std::size_t per_class, std::size_t window, Rng &rng)
{
    std::vector<PrefetchSample> data;
    data.reserve(per_class * kPatternClasses);
    for (std::size_t cls = 0; cls < kPatternClasses; ++cls) {
        for (std::size_t i = 0; i < per_class; ++i) {
            AccessStream s =
                generateAccesses(static_cast<AccessPattern>(cls), window,
                                 1 << 20, rng);
            PrefetchSample sample;
            sample.x.resize(kPrefetchFeatures);
            extractPrefetchFeatures(s, sample.x.data());
            sample.pattern = static_cast<int>(cls);
            data.push_back(std::move(sample));
        }
    }
    std::shuffle(data.begin(), data.end(), rng.engine());
    return data;
}

ml::Mlp
trainPrefetchModel(const std::vector<PrefetchSample> &data,
                   std::size_t epochs, float lr, Rng &rng)
{
    LAKE_ASSERT(!data.empty(), "empty prefetch dataset");
    ml::Mlp net(ml::MlpConfig::kml(), rng);

    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    ml::trainMlp(net, std::move(order), 32, epochs, lr, 1.0f, rng,
                 [&](std::size_t i, float *row) {
                     std::copy(data[i].x.begin(), data[i].x.end(), row);
                     return data[i].pattern;
                 });
    return net;
}

ReadaheadOutcome
simulateReadahead(const AccessStream &stream, std::uint32_t ra_pages,
                  std::size_t cache_pages)
{
    ReadaheadOutcome out;
    if (stream.empty())
        return out;

    // FIFO page cache with a prefetched-but-unused marker.
    std::unordered_map<std::uint64_t, bool> cached; // page -> was_used
    std::vector<std::uint64_t> fifo;
    std::size_t head = 0;
    std::uint64_t hits = 0, prefetched = 0, prefetched_used = 0;

    auto insert = [&](std::uint64_t page, bool demand) {
        if (cached.count(page))
            return;
        if (cached.size() >= cache_pages && head < fifo.size()) {
            cached.erase(fifo[head]);
            ++head;
        }
        cached.emplace(page, demand);
        fifo.push_back(page);
    };

    for (std::uint64_t page : stream) {
        auto it = cached.find(page);
        if (it != cached.end()) {
            ++hits;
            if (!it->second) {
                it->second = true;
                ++prefetched_used;
            }
            continue;
        }
        // Demand miss: one disk read, plus the readahead window.
        ++out.disk_reads;
        insert(page, true);
        for (std::uint32_t r = 1; r <= ra_pages; ++r) {
            if (!cached.count(page + r)) {
                ++prefetched;
                ++out.disk_reads;
                insert(page + r, false);
            }
        }
    }

    out.hit_rate =
        static_cast<double>(hits) / static_cast<double>(stream.size());
    out.wasted_fraction =
        prefetched == 0
            ? 0.0
            : 1.0 - static_cast<double>(prefetched_used) /
                        static_cast<double>(prefetched);
    return out;
}

} // namespace lake::fs
