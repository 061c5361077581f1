#include "sched/mllb.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "base/logging.h"
#include "ml/sgd.h"

namespace lake::sched {

MiniScheduler::MiniScheduler(std::size_t cores, double avg_tasks, Rng &rng)
    : queues_(cores)
{
    LAKE_ASSERT(cores >= 2, "need at least two cores to balance");
    avg_tasks_ = avg_tasks;
    randomize(rng);
}

void
MiniScheduler::randomize(Rng &rng)
{
    for (std::size_t c = 0; c < queues_.size(); ++c) {
        queues_[c].clear();
        // Poisson-ish count via exponential rounding; some cores end up
        // empty, some with bursts — the imbalance CFS chases.
        auto n = static_cast<std::size_t>(rng.exponential(avg_tasks_));
        for (std::size_t i = 0; i < n; ++i) {
            Task t;
            t.load = static_cast<std::uint32_t>(
                rng.lognormalByMoments(1024.0, 700.0));
            t.last_cpu = static_cast<std::uint32_t>(
                rng.chance(0.7) ? c
                                : rng.uniformInt(0, queues_.size() - 1));
            t.ran_recently =
                static_cast<std::uint64_t>(rng.exponential(2e6));
            queues_[c].push_back(t);
        }
    }
}

std::uint64_t
MiniScheduler::coreLoad(std::size_t core) const
{
    std::uint64_t sum = 0;
    for (const Task &t : queues_[core])
        sum += t.load;
    return sum;
}

double
MiniScheduler::numaDistance(std::size_t a, std::size_t b) const
{
    std::size_t half = queues_.size() / 2;
    return (a < half) == (b < half) ? 1.0 : 2.1; // remote node penalty
}

MiniScheduler::Candidate
MiniScheduler::sampleCandidate(Rng &rng) const
{
    // Busiest source, least-loaded destination.
    std::size_t src = 0, dst = 0;
    std::uint64_t src_load = 0, dst_load = ~0ull;
    for (std::size_t c = 0; c < queues_.size(); ++c) {
        std::uint64_t load = coreLoad(c);
        if (load > src_load && !queues_[c].empty()) {
            src_load = load;
            src = c;
        }
        if (load < dst_load) {
            dst_load = load;
            dst = c;
        }
    }
    if (queues_[src].empty() || src == dst) {
        // Degenerate snapshot; emit a trivially-negative candidate.
        Candidate cand;
        cand.x.assign(kMllbFeatures, 0.0f);
        cand.migrate = 0;
        return cand;
    }

    const Task &task =
        queues_[src][rng.uniformInt(0, queues_[src].size() - 1)];

    // --- feature encoding (22 floats, scaled to O(1)) ----------------
    Candidate cand;
    cand.x.assign(kMllbFeatures, 0.0f);
    auto &x = cand.x;
    double scale = 1.0 / 4096.0;
    double numa = numaDistance(src, dst);
    bool cache_hot =
        task.last_cpu == src && task.ran_recently < 500'000;

    x[0] = static_cast<float>(src_load * scale);
    x[1] = static_cast<float>(dst_load * scale);
    x[2] = static_cast<float>((src_load - dst_load) * scale);
    x[3] = static_cast<float>(task.load * scale);
    x[4] = static_cast<float>(queues_[src].size()) * 0.1f;
    x[5] = static_cast<float>(queues_[dst].size()) * 0.1f;
    x[6] = cache_hot ? 1.0f : 0.0f;
    x[7] = static_cast<float>(task.ran_recently) / 5e6f;
    x[8] = task.last_cpu == dst ? 1.0f : 0.0f;
    x[9] = static_cast<float>(numa - 1.0);
    x[10] = static_cast<float>(src) / queues_.size();
    x[11] = static_cast<float>(dst) / queues_.size();
    // Load distribution context: min/max/mean over all cores.
    std::uint64_t mn = ~0ull, mx = 0, total = 0;
    for (std::size_t c = 0; c < queues_.size(); ++c) {
        std::uint64_t l = coreLoad(c);
        mn = std::min(mn, l);
        mx = std::max(mx, l);
        total += l;
    }
    x[12] = static_cast<float>(mn * scale);
    x[13] = static_cast<float>(mx * scale);
    x[14] = static_cast<float>(total * scale / queues_.size());
    x[15] = static_cast<float>((src_load - task.load) * scale);
    x[16] = static_cast<float>((dst_load + task.load) * scale);
    // Imbalance before/after this specific migration.
    double before = static_cast<double>(src_load) - dst_load;
    double after = (static_cast<double>(src_load) - task.load) -
                   (static_cast<double>(dst_load) + task.load);
    x[17] = static_cast<float>(before * scale);
    x[18] = static_cast<float>(after * scale);
    x[19] = static_cast<float>(std::abs(after) * scale);
    x[20] = static_cast<float>(queues_.size()) / 64.0f;
    x[21] = 1.0f; // bias input

    // --- ground truth -------------------------------------------------
    // Migration helps when it strictly reduces pairwise imbalance and
    // the cache/NUMA penalty does not eat the gain.
    double gain = std::abs(before) - std::abs(after);
    double penalty = (cache_hot ? 900.0 : 0.0) + (numa - 1.0) * 700.0;
    cand.migrate = gain > penalty ? 1 : 0;
    return cand;
}

std::vector<MiniScheduler::Candidate>
buildMllbDataset(std::size_t count, std::size_t cores, double avg_tasks,
                 Rng &rng)
{
    MiniScheduler sched(cores, avg_tasks, rng);
    std::vector<MiniScheduler::Candidate> data;
    data.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (i % 8 == 0)
            sched.randomize(rng);
        data.push_back(sched.sampleCandidate(rng));
    }
    return data;
}

ml::Mlp
trainMllbModel(const std::vector<MiniScheduler::Candidate> &data,
               std::size_t epochs, float lr, Rng &rng)
{
    LAKE_ASSERT(!data.empty(), "empty MLLB dataset");
    ml::Mlp net(ml::MlpConfig::mllb(), rng);

    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    ml::trainMlp(net, std::move(order), 32, epochs, lr, 1.0f, rng,
                 [&](std::size_t i, float *row) {
                     std::copy(data[i].x.begin(), data[i].x.end(), row);
                     return data[i].migrate;
                 });
    return net;
}

} // namespace lake::sched
