#include "storage/linnos.h"

#include <algorithm>
#include <deque>

#include "base/logging.h"
#include "base/stats.h"
#include "sim/simulator.h"

namespace lake::storage {

void
encodeLinnosFeatures(std::uint32_t pending,
                     const std::array<std::uint32_t, kLinnosHistory>
                         &lat_us,
                     float out[kLinnosFeatures])
{
    auto digits = [](std::uint32_t value, std::uint32_t ndigits,
                     float *dst) {
        std::uint32_t cap = 1;
        for (std::uint32_t i = 0; i < ndigits; ++i)
            cap *= 10;
        value = std::min(value, cap - 1);
        // Most significant digit first; scaled so each feature is
        // in [0, 0.9] (keeps the net's inputs comparable).
        for (std::uint32_t i = 0; i < ndigits; ++i) {
            cap /= 10;
            dst[i] = static_cast<float>((value / cap) % 10) * 0.1f;
        }
    };

    digits(pending, 3, out);
    for (std::size_t h = 0; h < kLinnosHistory; ++h)
        digits(lat_us[h], 7, out + 3 + h * 7);
}

const std::array<std::string, kLinnosHistory> kLinnosLatFeatures = {
    "io_lat0", "io_lat1", "io_lat2", "io_lat3"};

registry::Schema
linnosSchema()
{
    registry::Schema schema;
    schema.add("pend_ios");
    for (const std::string &f : kLinnosLatFeatures)
        schema.add(f);
    return schema;
}

registry::FeatureVector
randomLinnosRequest(Rng &rng, Nanos now)
{
    registry::FeatureVector fv;
    fv.ts_begin = now;
    fv.ts_end = now;
    fv.values[registry::featureKey("pend_ios")] = {rng.uniformInt(0, 31)};
    for (const std::string &f : kLinnosLatFeatures)
        fv.values[registry::featureKey(f)] = {rng.uniformInt(50, 2000)};
    return fv;
}

void
encodeLinnosRow(const registry::SoaStore::RowReader &row, float *out)
{
    // linnosSchema() column order: pend_ios, then the history.
    std::array<std::uint32_t, kLinnosHistory> hist{};
    for (std::size_t h = 0; h < kLinnosHistory; ++h)
        hist[h] = static_cast<std::uint32_t>(
            row.value(static_cast<std::uint32_t>(1 + h)));
    encodeLinnosFeatures(static_cast<std::uint32_t>(row.value(0)), hist,
                         out);
}

LinnosDataset
collectLinnosData(const TraceSpec &spec, const NvmeSpec &device,
                  Nanos duration, double quantile, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TraceEvent> trace = generateTrace(spec, duration, rng);

    sim::Simulator simulator;
    NvmeDevice dev(simulator, device, seed ^ 0x9e3779b97f4a7c15ull,
                   "train0");

    std::array<std::uint32_t, kLinnosHistory> history{};
    struct Pending
    {
        std::array<float, kLinnosFeatures> x;
        double latency_us;
    };
    std::vector<Pending> observed;
    observed.reserve(trace.size());

    for (const TraceEvent &ev : trace) {
        simulator.schedule(ev.at, [&, ev] {
            if (!ev.io.is_read) {
                dev.submit(ev.io, nullptr);
                return;
            }
            std::size_t slot = observed.size();
            observed.push_back(Pending{});
            encodeLinnosFeatures(
                static_cast<std::uint32_t>(dev.pending()), history,
                observed[slot].x.data());
            dev.submit(ev.io, [&, slot](Nanos lat) {
                observed[slot].latency_us = toUs(lat);
                for (std::size_t i = kLinnosHistory - 1; i > 0; --i)
                    history[i] = history[i - 1];
                history[0] = static_cast<std::uint32_t>(toUs(lat));
            });
        });
    }
    simulator.run();

    LinnosDataset out;
    PercentileTracker lats;
    for (const Pending &p : observed)
        lats.add(p.latency_us);
    // LinnOS thresholds at the latency CDF's inflection point. A raw
    // quantile would sit inside the normal-mode noise band (cache hit
    // vs flash read is a coin flip no feature can predict) whenever a
    // run contains few genuinely slow periods. Flooring the threshold
    // well above an ordinary flash read keeps the slow class
    // mechanistic — GC storms, write interference, deep queues — on
    // every workload.
    double flash_read_us = toUs(device.read_base);
    out.threshold_us = std::max(lats.percentile(quantile * 100.0),
                                1.8 * flash_read_us);

    std::size_t slow = 0;
    out.samples.reserve(observed.size());
    for (const Pending &p : observed) {
        LinnosSample s;
        s.x = p.x;
        s.slow = p.latency_us > out.threshold_us ? 1 : 0;
        slow += s.slow;
        out.samples.push_back(s);
    }
    out.slow_fraction = observed.empty()
                            ? 0.0
                            : static_cast<double>(slow) /
                                  static_cast<double>(observed.size());
    return out;
}

ml::Mlp
trainLinnosModel(const LinnosDataset &data, std::size_t extra_layers,
                 std::size_t epochs, float lr, Rng &rng)
{
    LAKE_ASSERT(!data.samples.empty(), "empty LinnOS training set");
    ml::Mlp net(ml::MlpConfig::linnos(extra_layers), rng);

    // Slow I/Os are the minority class (the labelling quantile puts
    // them at 15-20%); without rebalancing, SGD collapses to the
    // always-fast majority answer and the reroute path never fires.
    // Oversample the slow class to rough parity, LinnOS's own
    // false-submission-biased training in spirit.
    std::vector<std::size_t> slow_idx, fast_idx;
    for (std::size_t i = 0; i < data.samples.size(); ++i)
        (data.samples[i].slow ? slow_idx : fast_idx).push_back(i);

    std::vector<std::size_t> order;
    order.reserve(2 * fast_idx.size());
    order.insert(order.end(), fast_idx.begin(), fast_idx.end());
    order.insert(order.end(), slow_idx.begin(), slow_idx.end());
    if (!slow_idx.empty()) {
        std::size_t want = fast_idx.size() > slow_idx.size()
                               ? fast_idx.size() - slow_idx.size()
                               : 0;
        for (std::size_t i = 0; i < want; ++i)
            order.push_back(slow_idx[i % slow_idx.size()]);
    }

    constexpr std::size_t kBatch = 64;

    // Halve the step size each epoch: the class boundary sits in a
    // noisy region and a constant rate keeps the classifier swinging
    // between the two classes instead of settling.
    float epoch_lr = lr;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), rng.engine());
        for (std::size_t start = 0; start < order.size();
             start += kBatch) {
            std::size_t n =
                std::min(kBatch, order.size() - start);
            ml::Matrix x(n, kLinnosFeatures);
            std::vector<int> y(n);
            for (std::size_t i = 0; i < n; ++i) {
                const LinnosSample &s = data.samples[order[start + i]];
                std::copy(s.x.begin(), s.x.end(), x.row(i));
                y[i] = s.slow;
            }
            net.trainStep(x, y, epoch_lr);
        }
        epoch_lr *= 0.5f;
    }
    return net;
}

} // namespace lake::storage
