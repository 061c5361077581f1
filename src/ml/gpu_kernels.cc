#include "ml/gpu_kernels.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "gpu/kernels.h"
#include "ml/knn.h"
#include "ml/lstm.h"
#include "ml/mlp.h"

namespace lake::ml {

using gpu::CuResult;
using gpu::Device;
using gpu::LaunchConfig;

namespace {

/** Reads a little-endian u32 at @p pos from device-resident bytes. */
bool
peek32(const Device &dev, gpu::DevicePtr base, std::size_t pos,
       std::uint32_t *out)
{
    const void *p = dev.resolve(base + pos, 4);
    if (!p)
        return false;
    std::memcpy(out, p, 4);
    return true;
}

/**
 * count * width * elem_bytes into @p bytes; false when the product
 * overflows size_t. Launch scalars are untrusted: a wrapped byte size
 * would resolve a short range and the body would then read past it.
 */
bool
byteSize(std::uint64_t count, std::uint64_t width, std::size_t elem_bytes,
         std::size_t *bytes)
{
    std::size_t elems = 0;
    return !__builtin_mul_overflow(count, width, &elems) &&
           !__builtin_mul_overflow(elems, elem_bytes, bytes);
}

/** The header of the MLP blob at device pointer @p model. */
Result<Mlp::BlobLayout>
mlpLayout(const Device &dev, gpu::DevicePtr model)
{
    return Mlp::parseBlobHeader([&](std::size_t pos, std::uint32_t *v) {
        return peek32(dev, model, pos, v);
    });
}

double
mlpFlops(const std::vector<std::uint32_t> &dims)
{
    double flops = 0.0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        flops += 2.0 * dims[l] * dims[l + 1];
    return flops;
}

/**
 * The mlp_forward model as lakeD keeps it: decoded and packed once per
 * upload, with the activation workspace every launch reuses.
 */
struct ResidentMlp final : Device::Resident
{
    explicit ResidentMlp(Mlp n) : net(std::move(n)) {}

    Mlp net;
    Mlp::Workspace ws;
};

/** Decodes the serialize() blob at the head of @p avail bytes. */
std::unique_ptr<ResidentMlp>
decodeMlp(const std::uint8_t *p, std::size_t avail)
{
    Result<Mlp::BlobLayout> layout =
        Mlp::parseBlobHeader([&](std::size_t pos, std::uint32_t *v) {
            if (pos > avail || avail - pos < 4)
                return false;
            std::memcpy(v, p + pos, 4);
            return true;
        });
    if (!layout.isOk() || layout.value().bytes > avail)
        return nullptr;
    Result<Mlp> net = Mlp::deserialize(
        std::vector<std::uint8_t>(p, p + layout.value().bytes));
    if (!net.isOk())
        return nullptr;
    return std::make_unique<ResidentMlp>(net.takeValue());
}

CuResult
mlpForwardBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    std::uint64_t batch = cfg.u64Arg(3);

    ResidentMlp *model = dev.resident<ResidentMlp>(cfg.u64Arg(0), decodeMlp);
    if (!model)
        return CuResult::LaunchFailed;

    std::uint32_t in_w = model->net.config().input;
    std::uint32_t out_w = model->net.config().output;
    std::size_t in_bytes = 0, out_bytes = 0;
    if (!byteSize(batch, in_w, sizeof(float), &in_bytes) ||
        !byteSize(batch, out_w, sizeof(float), &out_bytes))
        return CuResult::InvalidValue;
    const auto *in = static_cast<const float *>(
        std::as_const(dev).resolve(cfg.u64Arg(1), in_bytes));
    auto *out = static_cast<float *>(dev.resolve(cfg.u64Arg(2), out_bytes));
    if (!in || !out)
        return CuResult::LaunchFailed;
    // The forward pass reads the input rows in place as floats.
    if (reinterpret_cast<std::uintptr_t>(in) % alignof(float) != 0)
        return CuResult::InvalidValue;

    const MatrixView x(in, batch, in_w, in_w);
    model->net.forwardInto({&x, 1}, model->ws, out);
    return CuResult::Success;
}

Nanos
mlpForwardCost(const Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return 0;
    Result<Mlp::BlobLayout> layout = mlpLayout(dev, cfg.u64Arg(0));
    if (!layout.isOk())
        return 0;
    const std::vector<std::uint32_t> &dims = layout.value().dims;
    std::uint64_t batch = cfg.u64Arg(3);
    double flops = mlpFlops(dims) * static_cast<double>(batch);
    // Every weight is streamed from device memory at least once per
    // launch; small batches are bandwidth-bound on exactly this.
    std::size_t bytes = layout.value().bytes +
                        batch * (dims.front() + dims.back()) *
                            sizeof(float);
    return dev.computeTime(flops, bytes);
}

/** The lstm_forward model as lakeD keeps it: decoded once per upload. */
struct ResidentLstm final : Device::Resident
{
    explicit ResidentLstm(Lstm n) : net(std::move(n)) {}

    Lstm net;
};

/**
 * Decodes the Lstm::serialize() blob at the head of @p avail bytes.
 * Its length is not in its header but follows from the config fields;
 * deserialize() allocates each layer before reading it, so that length
 * is checked against the allocation first.
 */
std::unique_ptr<ResidentLstm>
decodeLstm(const std::uint8_t *p, std::size_t avail)
{
    std::uint32_t h[6] = {}; // magic, input, hidden, layers, output, seq
    if (avail < sizeof(h))
        return nullptr;
    std::memcpy(h, p, sizeof(h));
    const std::uint64_t input = h[1], hidden = h[2], layers = h[3],
                        output = h[4];
    if (h[0] != 0x4c53544dU || layers > 16)
        return nullptr;
    std::size_t bytes = sizeof(h);
    // Adds a rows x cols float matrix; false when the size overflows.
    auto add = [&bytes](std::uint64_t rows, std::uint64_t cols) {
        std::size_t m = 0;
        return byteSize(rows, cols, sizeof(float), &m) &&
               !__builtin_add_overflow(bytes, m, &bytes);
    };
    // Per layer 4*hidden gate rows over [x, h, bias]; then the head.
    for (std::uint64_t l = 0; l < layers; ++l)
        if (!add(4 * hidden, (l == 0 ? input : hidden) + hidden + 1))
            return nullptr;
    if (!add(output, hidden + 1) || bytes > avail)
        return nullptr;
    Result<Lstm> net =
        Lstm::deserialize(std::vector<std::uint8_t>(p, p + bytes));
    if (!net.isOk())
        return nullptr;
    return std::make_unique<ResidentLstm>(net.takeValue());
}

CuResult
lstmForwardBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    std::uint64_t batch = cfg.u64Arg(3);

    ResidentLstm *model =
        dev.resident<ResidentLstm>(cfg.u64Arg(0), decodeLstm);
    if (!model)
        return CuResult::LaunchFailed;

    const LstmConfig &c = model->net.config();
    std::size_t per = static_cast<std::size_t>(c.seq_len) * c.input;
    std::size_t in_bytes = 0, out_bytes = 0;
    if (!byteSize(batch, per, sizeof(float), &in_bytes) ||
        !byteSize(batch, 1, sizeof(std::int32_t), &out_bytes))
        return CuResult::InvalidValue;
    const auto *in_p = static_cast<const float *>(
        std::as_const(dev).resolve(cfg.u64Arg(1), in_bytes));
    auto *out_p =
        static_cast<std::int32_t *>(dev.resolve(cfg.u64Arg(2), out_bytes));
    if (!in_p || !out_p)
        return CuResult::LaunchFailed;

    std::vector<int> labels =
        model->net.classifyBatch({in_p, batch * per}, batch);
    for (std::size_t i = 0; i < labels.size(); ++i)
        out_p[i] = labels[i];
    return CuResult::Success;
}

Nanos
lstmForwardCost(const Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return 0;
    gpu::DevicePtr model = cfg.u64Arg(0);
    std::uint32_t input = 0, hidden = 0, layers = 0, seq = 0;
    if (!peek32(dev, model, 4, &input) || !peek32(dev, model, 8, &hidden) ||
        !peek32(dev, model, 12, &layers) || !peek32(dev, model, 20, &seq))
        return 0;
    std::uint64_t batch = cfg.u64Arg(3);

    double flops = 0.0;
    std::size_t weight_bytes = 0;
    for (std::uint32_t l = 0; l < layers; ++l) {
        double in = l == 0 ? input : hidden;
        flops += (2.0 * 4 * hidden * (in + hidden) + 10.0 * hidden) * seq;
        weight_bytes += static_cast<std::size_t>(
            (4.0 * hidden * in + 4.0 * hidden * hidden) * sizeof(float));
    }
    flops *= static_cast<double>(batch);
    // Recurrent nets re-stream the weights every timestep and cannot
    // batch across the time dimension, so the roofline is bandwidth:
    // weights x seq_len, amortized over at most a warp of samples.
    double sample_groups = std::max(1.0, static_cast<double>(batch) / 32.0);
    std::size_t bytes = static_cast<std::size_t>(
        static_cast<double>(weight_bytes) * seq * sample_groups);
    return dev.computeTime(flops, bytes);
}

CuResult
knnQueryBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 8 && cfg.args.size() != 9)
        return CuResult::InvalidValue;
    std::uint64_t n_refs = cfg.u64Arg(4);
    std::uint64_t n_queries = cfg.u64Arg(5);
    std::uint64_t dim = cfg.u64Arg(6);
    std::uint64_t k = cfg.u64Arg(7);
    // Optional host-side sampling stride: the modeled device always
    // performs the full scan (see knnQueryCost), but the simulation
    // host may evaluate a strided reference subset to keep large
    // benchmark configurations tractable.
    std::uint64_t stride = cfg.args.size() == 9
                               ? std::max<std::uint64_t>(1, cfg.u64Arg(8))
                               : 1;

    // Knn needs a nonempty reference set and positive dim and k.
    if (n_refs == 0 || dim == 0 || k == 0)
        return CuResult::InvalidValue;
    std::size_t ref_bytes = 0, label_bytes = 0, query_bytes = 0,
                out_bytes = 0;
    if (!byteSize(n_refs, dim, sizeof(float), &ref_bytes) ||
        !byteSize(n_refs, 1, sizeof(std::int32_t), &label_bytes) ||
        !byteSize(n_queries, dim, sizeof(float), &query_bytes) ||
        !byteSize(n_queries, 1, sizeof(std::int32_t), &out_bytes))
        return CuResult::InvalidValue;
    const auto *refs =
        static_cast<const float *>(dev.resolve(cfg.u64Arg(0), ref_bytes));
    const auto *labels = static_cast<const std::int32_t *>(
        dev.resolve(cfg.u64Arg(1), label_bytes));
    const auto *queries = static_cast<const float *>(
        dev.resolve(cfg.u64Arg(2), query_bytes));
    auto *out = static_cast<std::int32_t *>(
        dev.resolve(cfg.u64Arg(3), out_bytes));
    if (!refs || !labels || !queries || !out)
        return CuResult::LaunchFailed;

    Knn knn(dim, k);
    for (std::uint64_t r = 0; r < n_refs; r += stride)
        knn.add(refs + r * dim, labels[r]);
    // classifyBatch is the batched GEMM + top-k path, parallel over
    // queries on the host ThreadPool — the "GPU" functor really uses
    // all host cores while knnQueryCost charges device time.
    std::vector<int> result = knn.classifyBatch(queries, n_queries);
    for (std::uint64_t q = 0; q < n_queries; ++q)
        out[q] = result[q];
    return CuResult::Success;
}

Nanos
knnQueryCost(const Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 8 && cfg.args.size() != 9)
        return 0;
    std::uint64_t n_refs = cfg.u64Arg(4);
    std::uint64_t n_queries = cfg.u64Arg(5);
    std::uint64_t dim = cfg.u64Arg(6);
    double flops = 3.0 * static_cast<double>(dim) * n_refs * n_queries;
    // Batched distance evaluation is dense-GEMM-like and sustains well
    // above the latency-bound small-kernel rate; model 1.75x.
    flops /= 1.75;
    std::size_t bytes = (n_refs + n_queries) * dim * sizeof(float);
    return dev.computeTime(flops, bytes);
}

} // namespace

void
registerMlKernels()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    gpu::KernelRegistry &r = gpu::KernelRegistry::global();
    r.add("mlp_forward", mlpForwardBody, mlpForwardCost);
    r.add("lstm_forward", lstmForwardBody, lstmForwardCost);
    r.add("knn_query", knnQueryBody, knnQueryCost);
}

} // namespace lake::ml
