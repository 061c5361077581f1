#include "gpu/kernels.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/logging.h"
#include "base/thread_pool.h"

namespace lake::gpu {

KernelRegistry &
KernelRegistry::global()
{
    static KernelRegistry registry;
    return registry;
}

void
KernelRegistry::add(const std::string &name, Body body, Cost cost)
{
    LAKE_ASSERT(body && cost, "kernel '%s' missing body or cost",
                name.c_str());
    table_[name] = Entry{std::move(body), std::move(cost)};
}

bool
KernelRegistry::has(const std::string &name) const
{
    return table_.count(name) != 0;
}

const KernelRegistry::Entry *
KernelRegistry::find(const std::string &name) const
{
    auto it = table_.find(name);
    return it == table_.end() ? nullptr : &it->second;
}

CuResult
KernelRegistry::run(Device &dev, const LaunchConfig &cfg) const
{
    auto it = table_.find(cfg.kernel);
    if (it == table_.end())
        return CuResult::NotFound;
    return it->second.body(dev, cfg);
}

Nanos
KernelRegistry::cost(const Device &dev, const LaunchConfig &cfg) const
{
    auto it = table_.find(cfg.kernel);
    if (it == table_.end())
        return 0;
    return it->second.cost(dev, cfg);
}

std::vector<std::string>
KernelRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(table_.size());
    for (const auto &[name, entry] : table_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

namespace {

/**
 * Rejects element counts whose byte size would overflow 64 bits: the
 * wrapped product can slip past Device::resolve's range check and send
 * a body walking far out of bounds. Reachable from the wire (a garbled
 * launch arg), so this is a malformed-command defense, not pedantry.
 */
bool
sizeOverflows(std::uint64_t count, std::uint64_t elem_size)
{
    return count > std::numeric_limits<std::uint64_t>::max() / elem_size;
}

CuResult
vecAddBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    std::uint64_t n = cfg.u64Arg(3);
    if (sizeOverflows(n, sizeof(float)))
        return CuResult::InvalidValue;
    // Inputs resolve read-only; only the output moves its generation.
    auto *a = static_cast<const float *>(
        std::as_const(dev).resolve(cfg.u64Arg(0), n * sizeof(float)));
    auto *b = static_cast<const float *>(
        std::as_const(dev).resolve(cfg.u64Arg(1), n * sizeof(float)));
    auto *c = static_cast<float *>(
        dev.resolve(cfg.u64Arg(2), n * sizeof(float)));
    if (!a || !b || !c)
        return CuResult::LaunchFailed;
    // Host execution of the functor rides the pool (element-disjoint
    // chunks, so bit-identical at any thread count); the modeled
    // device time below is untouched.
    base::ThreadPool::global().parallelFor(
        0, n, 65536, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                c[i] = a[i] + b[i];
        });
    return CuResult::Success;
}

CuResult
saxpyBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    float alpha = cfg.floatArg(0);
    std::uint64_t n = cfg.u64Arg(3);
    if (sizeOverflows(n, sizeof(float)))
        return CuResult::InvalidValue;
    auto *x = static_cast<const float *>(
        std::as_const(dev).resolve(cfg.u64Arg(1), n * sizeof(float)));
    auto *y = static_cast<float *>(
        dev.resolve(cfg.u64Arg(2), n * sizeof(float)));
    if (!x || !y)
        return CuResult::LaunchFailed;
    base::ThreadPool::global().parallelFor(
        0, n, 65536, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                y[i] = alpha * x[i] + y[i];
        });
    return CuResult::Success;
}

constexpr std::size_t kPageSize = 4096;

CuResult
pageHashBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 3)
        return CuResult::InvalidValue;
    std::uint64_t npages = cfg.u64Arg(2);
    if (sizeOverflows(npages, kPageSize))
        return CuResult::InvalidValue;
    auto *in = static_cast<const std::uint8_t *>(
        std::as_const(dev).resolve(cfg.u64Arg(0), npages * kPageSize));
    auto *out = static_cast<std::uint64_t *>(
        dev.resolve(cfg.u64Arg(1), npages * sizeof(std::uint64_t)));
    if (!in || !out)
        return CuResult::LaunchFailed;
    // Pages hash independently, exactly like the real kernel's
    // one-thread-per-page mapping.
    base::ThreadPool::global().parallelFor(
        0, npages, 16, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a
                const std::uint8_t *page = in + p * kPageSize;
                for (std::size_t i = 0; i < kPageSize; ++i) {
                    h ^= page[i];
                    h *= 0x100000001b3ull;
                }
                out[p] = h;
            }
        });
    return CuResult::Success;
}

} // namespace

void
registerBuiltinKernels()
{
    static bool done = false;
    if (done)
        return;
    done = true;

    KernelRegistry &r = KernelRegistry::global();

    r.add("vec_add", vecAddBody,
          [](const Device &dev, const LaunchConfig &cfg) {
              std::uint64_t n = cfg.u64Arg(3);
              return dev.computeTime(static_cast<double>(n),
                                     n * 3 * sizeof(float));
          });

    r.add("saxpy", saxpyBody,
          [](const Device &dev, const LaunchConfig &cfg) {
              std::uint64_t n = cfg.u64Arg(3);
              return dev.computeTime(2.0 * static_cast<double>(n),
                                     n * 3 * sizeof(float));
          });

    r.add("page_hash", pageHashBody,
          [](const Device &dev, const LaunchConfig &cfg) {
              std::uint64_t npages = cfg.u64Arg(2);
              // Byte-serial hashing parallelizes across pages but not
              // within one: each thread walks its page dependently, so
              // the effective cost is ~10 ops/byte, calibrated to the
              // ~2e7 pages/s peak the Fig. 1 app sustains on the A100.
              double flops = 10.0 * static_cast<double>(npages) *
                             kPageSize;
              return dev.computeTime(flops, npages * kPageSize);
          });
}

} // namespace lake::gpu
