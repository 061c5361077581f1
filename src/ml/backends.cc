#include "ml/backends.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "base/logging.h"
#include "ml/gpu_kernels.h"
#include "remote/wire.h"

namespace lake::ml {

using gpu::CuResult;
using gpu::DevicePtr;

namespace {

/** Streams used to model pre-staged (overlapped) input copies. */
constexpr std::uint32_t kStageStream = 7;

void
check(CuResult r, const char *what)
{
    LAKE_ASSERT(r == CuResult::Success, "%s failed: %s", what,
                gpu::cuResultName(r));
}

/** Converts a failed driver call into a Status for tryClassify. */
Status
cuStatus(CuResult r, const char *what)
{
    if (r == CuResult::Success)
        return Status::ok();
    Code code = r == CuResult::Unavailable ? Code::Unavailable
                                           : Code::Internal;
    return Status(code, std::string(what) + " failed: " +
                            gpu::cuResultName(r));
}

} // namespace

std::vector<int>
CpuMlp::classify(const std::vector<MatrixView> &xs)
{
    std::size_t rows = 0;
    for (const MatrixView &v : xs)
        rows += v.rows();
    // Wide square matmuls (the +1/+2 models' 256x256 layers) amortize
    // loop overhead and auto-vectorize where the skinny input layer
    // cannot; model that as up to 4x (SSE-width) higher efficiency,
    // which reproduces Fig. 8's gently-converging CPU curves.
    double flops_per_sample = model_.flopsPerSample();
    double efficiency =
        std::clamp(flops_per_sample / 17000.0, 1.0, 4.0);
    cpu_.charge(flops_per_sample * static_cast<double>(rows) /
                efficiency);
    return model_.classify(xs);
}

LakeMlp::LakeMlp(const Mlp &model, remote::LakeLib &lib, bool sync_copy,
                 std::size_t max_batch)
    : lib_(lib), arena_(lib.arena()), input_w_(model.config().input),
      output_w_(model.config().output), sync_copy_(sync_copy),
      max_batch_(max_batch)
{
    registerMlKernels();
    LAKE_ASSERT(max_batch_ > 0, "max_batch must be positive");

    std::vector<std::uint8_t> blob = model.serialize();
    shm::ShmOffset h_blob = arena_.alloc(blob.size());
    LAKE_ASSERT(h_blob != shm::kNullOffset, "lakeShm exhausted");
    std::memcpy(arena_.at(h_blob), blob.data(), blob.size());

    check(lib_.cuMemAlloc(&d_model_, blob.size()), "cuMemAlloc(model)");
    check(lib_.cuMemcpyHtoDShm(d_model_, h_blob, blob.size()),
          "upload model");
    arena_.free(h_blob);

    std::size_t in_bytes = max_batch_ * input_w_ * sizeof(float);
    std::size_t out_bytes = max_batch_ * output_w_ * sizeof(float);
    check(lib_.cuMemAlloc(&d_in_, in_bytes), "cuMemAlloc(in)");
    check(lib_.cuMemAlloc(&d_out_, out_bytes), "cuMemAlloc(out)");
    h_in_ = arena_.alloc(in_bytes);
    h_out_ = arena_.alloc(out_bytes);
    LAKE_ASSERT(h_in_ != shm::kNullOffset && h_out_ != shm::kNullOffset,
                "lakeShm exhausted");
}

LakeMlp::~LakeMlp()
{
    lib_.cuMemFree(d_model_);
    lib_.cuMemFree(d_in_);
    lib_.cuMemFree(d_out_);
    arena_.free(h_in_);
    arena_.free(h_out_);
}

std::vector<int>
LakeMlp::classify(const Matrix &x)
{
    Result<std::vector<int>> r = tryClassify(x);
    LAKE_ASSERT(r.isOk(), "LakeMlp::classify: %s",
                r.status().toString().c_str());
    return r.takeValue();
}

Result<std::vector<int>>
LakeMlp::tryClassify(const Matrix &x)
{
    std::size_t batch = x.rows();
    LAKE_ASSERT(batch > 0 && batch <= max_batch_,
                "batch %zu outside 1..%zu", batch, max_batch_);
    LAKE_ASSERT(x.cols() == input_w_, "bad input width");

    if (orch_ != nullptr && !sync_copy_ && batch > 1)
        return tryClassifyStreamed(x);

    std::size_t in_bytes = batch * input_w_ * sizeof(float);
    std::size_t out_bytes = batch * output_w_ * sizeof(float);

    // In real deployments feature vectors are *built* in lakeShm, so
    // this staging memcpy does not exist; it is host bookkeeping only
    // and charges no virtual time.
    std::memcpy(arena_.at(h_in_), x.data(), in_bytes);

    if (sync_copy_) {
        if (Status s = cuStatus(lib_.cuMemcpyHtoDShm(d_in_, h_in_,
                                                     in_bytes),
                                "sync HtoD");
            !s.isOk())
            return s;
    } else {
        // Staged ahead of execution on a side stream: the transfer
        // overlaps batch formation and stays off the critical path.
        if (Status s = cuStatus(lib_.cuMemcpyHtoDShmAsync(
                                    d_in_, h_in_, in_bytes,
                                    kStageStream),
                                "async HtoD");
            !s.isOk())
            return s;
    }

    gpu::LaunchConfig cfg;
    cfg.kernel = "mlp_forward";
    cfg.grid_x = static_cast<std::uint32_t>((batch + 255) / 256);
    cfg.block_x = 256;
    cfg.arg(d_model_).arg(d_in_).arg(d_out_).arg(
        static_cast<std::uint64_t>(batch), nullptr);
    if (Status s = cuStatus(lib_.cuLaunchKernel(cfg, 0),
                            "launch mlp_forward");
        !s.isOk())
        return s;

    if (Status s = cuStatus(lib_.cuMemcpyDtoHShm(h_out_, d_out_,
                                                 out_bytes),
                            "DtoH");
        !s.isOk())
        return s;

    const float *logits = static_cast<const float *>(arena_.at(h_out_));
    std::vector<int> labels(batch);
    for (std::size_t r = 0; r < batch; ++r) {
        const float *row = logits + r * output_w_;
        int best = 0;
        for (std::uint32_t c = 1; c < output_w_; ++c)
            if (row[c] > row[best])
                best = static_cast<int>(c);
        labels[r] = best;
    }
    return labels;
}

Result<std::vector<int>>
LakeMlp::tryClassifyStreamed(const Matrix &x)
{
    std::size_t batch = x.rows();
    std::size_t in_row = input_w_ * sizeof(float);
    std::size_t out_row = output_w_ * sizeof(float);

    std::size_t chunks = std::min<std::size_t>(orch_->streams(), batch);
    std::size_t rows_per = (batch + chunks - 1) / chunks;

    // One pooled slot serves a chunk's input AND output: the gathered
    // rows upload first and the logits land in the same slot after the
    // forward pass (the commands execute in posted order daemon-side,
    // so the overwrite is sequenced after the HtoD).
    struct Chunk
    {
        std::size_t r0, rows;
        remote::StreamOrchestrator::Buffer *buf;
        gpu::StreamId stream;
    };
    std::vector<Chunk> staged;
    staged.reserve(chunks);
    std::vector<const void *> srcs(rows_per);
    std::vector<std::size_t> lens(rows_per, in_row);

    for (std::size_t c = 0; c < chunks; ++c) {
        std::size_t r0 = c * rows_per;
        if (r0 >= batch)
            break;
        std::size_t rows = std::min(rows_per, batch - r0);
        gpu::StreamId s = orch_->streamAt(c);

        auto *buf = orch_->acquire(rows * std::max(in_row, out_row));
        if (buf == nullptr) {
            // Chunk exceeds the largest size class (only possible on
            // the first, largest chunk: nothing staged yet). The
            // classic single-stream path still fits in h_in_/h_out_.
            LAKE_ASSERT(staged.empty(), "pool refused a smaller chunk");
            orch_->drain();
            remote::StreamOrchestrator *orch = orch_;
            orch_ = nullptr;
            Result<std::vector<int>> r = tryClassify(x);
            orch_ = orch;
            return r;
        }
        for (std::size_t i = 0; i < rows; ++i)
            srcs[i] = x.data() + (r0 + i) * input_w_;
        Status st = orch_->gatherIn(buf, d_in_ + r0 * in_row, srcs.data(),
                                    lens.data(), rows, s);
        LAKE_ASSERT(st.isOk(), "gatherIn: %s", st.toString().c_str());

        gpu::LaunchConfig cfg;
        cfg.kernel = "mlp_forward";
        cfg.grid_x = static_cast<std::uint32_t>((rows + 255) / 256);
        cfg.block_x = 256;
        cfg.arg(d_model_).arg(d_in_ + r0 * in_row)
            .arg(d_out_ + r0 * out_row)
            .arg(static_cast<std::uint64_t>(rows), nullptr);
        if (Status s2 = cuStatus(lib_.cuLaunchKernel(cfg, s),
                                 "launch mlp_forward");
            !s2.isOk()) {
            orch_->drain();
            return s2;
        }
        st = orch_->stageOut(buf, d_out_ + r0 * out_row, rows * out_row, s);
        LAKE_ASSERT(st.isOk(), "stageOut: %s", st.toString().c_str());
        staged.push_back({r0, rows, buf, s});
    }

    // Drain every chunk's stream before reading any logits; credits
    // come back even when a sync fails, so a transport fault cannot
    // leak pool buffers.
    gpu::CuResult first = gpu::CuResult::Success;
    for (const Chunk &c : staged) {
        gpu::CuResult r = orch_->syncStream(c.stream);
        if (first == gpu::CuResult::Success)
            first = r;
    }
    if (Status s = cuStatus(first, "stream sync"); !s.isOk())
        return s;

    // Read-after-sync window: the retired slots stay untouched until
    // the next acquire, which this call no longer performs.
    std::vector<int> labels(batch);
    for (const Chunk &c : staged) {
        const float *logits =
            static_cast<const float *>(arena_.at(c.buf->shm));
        for (std::size_t r = 0; r < c.rows; ++r) {
            const float *row = logits + r * output_w_;
            int best = 0;
            for (std::uint32_t col = 1; col < output_w_; ++col)
                if (row[col] > row[best])
                    best = static_cast<int>(col);
            labels[c.r0 + r] = best;
        }
    }
    return labels;
}

FleetMlp::FleetMlp(const Mlp &model, remote::FleetRouter &router,
                   bool sync_copy, std::size_t max_batch)
    : router_(router)
{
    remote::ShardFleet &shards = router_.shards();
    for (std::size_t d = 0; d < shards.deviceCount(); ++d) {
        remote::LakeShard &sh = shards.shardFor(d);
        std::lock_guard<std::mutex> lock(sh.mu());
        check(sh.activate(shards.localIndex(d)), "activate device");
        mlps_.push_back(std::make_unique<LakeMlp>(model, sh.lib(),
                                                  sync_copy, max_batch));
    }
}

FleetMlp::Served
FleetMlp::classify(const std::string &key, const Matrix &x,
                   CpuMlp &fallback)
{
    remote::ShardFleet &shards = router_.shards();
    std::size_t dev = router_.lastPlacement(key);
    router_.noteDispatch(dev, x.rows());
    remote::LakeShard &sh = shards.shardFor(dev);
    std::vector<int> labels;
    bool ok = false;
    {
        std::lock_guard<std::mutex> lock(sh.mu());
        if (sh.activate(shards.localIndex(dev)) == CuResult::Success) {
            Result<std::vector<int>> res = mlps_[dev]->tryClassify(x);
            ok = res.isOk();
            if (ok)
                labels = res.takeValue();
        }
    }
    router_.noteDone(dev);
    if (ok)
        return {std::move(labels), dev};
    sh.health().fallbacks.fetch_add(1);
    return {fallback.classify(x), std::nullopt};
}

std::vector<int>
CpuKnn::classify(const float *queries, std::size_t n)
{
    // Virtual time still models the kernel-context scalar scan (the
    // paper's CPU bar); the host executes the batched GEMM + top-k
    // path underneath (Knn::classifyBatch -> compute::knnNeighbors).
    cpu_.charge(model_.flopsPerQuery() * static_cast<double>(n));
    return model_.classifyBatch(queries, n);
}

LakeKnn::LakeKnn(const Knn &model, remote::LakeLib &lib, bool sync_copy,
                 std::size_t max_queries, std::size_t host_sample_stride)
    : lib_(lib), arena_(lib.arena()), dim_(model.dim()), k_(model.k()),
      n_refs_(model.refCount()), sync_copy_(sync_copy),
      max_queries_(max_queries),
      host_stride_(std::max<std::size_t>(1, host_sample_stride))
{
    registerMlKernels();
    LAKE_ASSERT(max_queries_ > 0, "max_queries must be positive");

    std::size_t ref_bytes = model.refs().size() * sizeof(float);
    std::size_t label_bytes = model.labels().size() * sizeof(std::int32_t);

    shm::ShmOffset h_stage =
        arena_.alloc(std::max(ref_bytes, label_bytes));
    LAKE_ASSERT(h_stage != shm::kNullOffset, "lakeShm exhausted");

    check(lib_.cuMemAlloc(&d_refs_, ref_bytes), "cuMemAlloc(refs)");
    std::memcpy(arena_.at(h_stage), model.refs().data(), ref_bytes);
    check(lib_.cuMemcpyHtoDShm(d_refs_, h_stage, ref_bytes),
          "upload refs");

    check(lib_.cuMemAlloc(&d_labels_, label_bytes), "cuMemAlloc(labels)");
    std::memcpy(arena_.at(h_stage), model.labels().data(), label_bytes);
    check(lib_.cuMemcpyHtoDShm(d_labels_, h_stage, label_bytes),
          "upload labels");
    arena_.free(h_stage);

    std::size_t q_bytes = max_queries_ * dim_ * sizeof(float);
    check(lib_.cuMemAlloc(&d_queries_, q_bytes), "cuMemAlloc(queries)");
    check(lib_.cuMemAlloc(&d_out_, max_queries_ * sizeof(std::int32_t)),
          "cuMemAlloc(out)");
    h_io_ = arena_.alloc(q_bytes);
    LAKE_ASSERT(h_io_ != shm::kNullOffset, "lakeShm exhausted");
}

LakeKnn::~LakeKnn()
{
    lib_.cuMemFree(d_refs_);
    lib_.cuMemFree(d_labels_);
    lib_.cuMemFree(d_queries_);
    lib_.cuMemFree(d_out_);
    arena_.free(h_io_);
}

std::vector<int>
LakeKnn::classify(const float *queries, std::size_t n)
{
    Result<std::vector<int>> r = tryClassify(queries, n);
    LAKE_ASSERT(r.isOk(), "LakeKnn::classify: %s",
                r.status().toString().c_str());
    return r.takeValue();
}

Result<std::vector<int>>
LakeKnn::tryClassify(const float *queries, std::size_t n)
{
    LAKE_ASSERT(n > 0 && n <= max_queries_, "query count %zu outside 1..%zu",
                n, max_queries_);
    std::size_t q_bytes = n * dim_ * sizeof(float);
    std::memcpy(arena_.at(h_io_), queries, q_bytes);

    if (sync_copy_) {
        if (Status s = cuStatus(lib_.cuMemcpyHtoDShm(d_queries_, h_io_,
                                                     q_bytes),
                                "HtoD");
            !s.isOk())
            return s;
    } else {
        if (Status s = cuStatus(lib_.cuMemcpyHtoDShmAsync(
                                    d_queries_, h_io_, q_bytes,
                                    kStageStream),
                                "async HtoD");
            !s.isOk())
            return s;
    }

    gpu::LaunchConfig cfg;
    cfg.kernel = "knn_query";
    cfg.grid_x = static_cast<std::uint32_t>((n + 255) / 256);
    cfg.block_x = 256;
    cfg.arg(d_refs_).arg(d_labels_).arg(d_queries_).arg(d_out_);
    cfg.arg(static_cast<std::uint64_t>(n_refs_), nullptr)
        .arg(static_cast<std::uint64_t>(n), nullptr)
        .arg(static_cast<std::uint64_t>(dim_), nullptr)
        .arg(static_cast<std::uint64_t>(k_), nullptr);
    if (host_stride_ > 1)
        cfg.arg(static_cast<std::uint64_t>(host_stride_), nullptr);
    if (Status s = cuStatus(lib_.cuLaunchKernel(cfg, 0),
                            "launch knn_query");
        !s.isOk())
        return s;

    if (Status s = cuStatus(lib_.cuMemcpyDtoHShm(h_io_, d_out_,
                                                 n * sizeof(std::int32_t)),
                            "DtoH");
        !s.isOk())
        return s;
    const auto *out = static_cast<const std::int32_t *>(arena_.at(h_io_));
    return std::vector<int>(out, out + n);
}

std::vector<int>
CpuLstm::classify(const std::vector<float> &seqs, std::size_t batch)
{
    cpu_.charge(model_.flopsPerSample() * static_cast<double>(batch));
    return model_.classifyBatch(seqs, batch);
}

KleioService::KleioService(remote::LakeDaemon &daemon, const Lstm &model)
    : daemon_(daemon), config_(model.config())
{
    registerMlKernels();

    // lakeD owns the model (the TF runtime loaded it); upload directly
    // through the daemon's context — this never crosses the boundary.
    gpu::GpuContext &ctx = daemon_.gpuContext();
    std::vector<std::uint8_t> blob = model.serialize();
    check(ctx.memAlloc(&d_model_, blob.size()), "kleio model alloc");
    check(ctx.memcpyHtoD(d_model_, blob.data(), blob.size()),
          "kleio model upload");

    std::size_t per =
        static_cast<std::size_t>(config_.seq_len) * config_.input;
    DevicePtr d_model = d_model_;
    std::uint32_t seq_input = static_cast<std::uint32_t>(per);

    daemon_.registerHighLevel(
        "kleio.infer",
        [&daemon, d_model, seq_input](remote::Decoder &dec,
                                      remote::Encoder &resp) {
            shm::ShmOffset in_off = dec.u64();
            shm::ShmOffset out_off = dec.u64();
            std::uint64_t batch = dec.u64();

            gpu::GpuContext &gctx = daemon.gpuContext();
            std::size_t in_bytes = batch * seq_input * sizeof(float);

            // Per-page graph executions (Kleio keeps one model per
            // page): TF overhead scales with the batch.
            gctx.clock().advance(batch * kTfPerSampleCost);

            DevicePtr d_in = 0, d_out = 0;
            check(gctx.memAlloc(&d_in, in_bytes), "kleio d_in");
            check(gctx.memAlloc(&d_out, batch * sizeof(std::int32_t)),
                  "kleio d_out");
            // TensorFlow moves data synchronously (Fig. 9's caption).
            check(gctx.memcpyHtoD(d_in, daemon.arena().at(in_off),
                                  in_bytes),
                  "kleio HtoD");

            gpu::LaunchConfig cfg;
            cfg.kernel = "lstm_forward";
            cfg.grid_x = static_cast<std::uint32_t>((batch + 31) / 32);
            cfg.block_x = 32;
            cfg.arg(d_model).arg(d_in).arg(d_out).arg(batch, nullptr);
            check(gctx.launchKernel(cfg, 0), "kleio launch");

            check(gctx.memcpyDtoH(daemon.arena().at(out_off), d_out,
                                  batch * sizeof(std::int32_t)),
                  "kleio DtoH");
            gctx.memFree(d_in);
            gctx.memFree(d_out);
            resp.u64(batch);
        },
        kTfCallOverhead);
}

std::vector<int>
KleioService::classify(remote::LakeLib &lib, const std::vector<float> &seqs,
                       std::size_t batch)
{
    std::size_t per =
        static_cast<std::size_t>(config_.seq_len) * config_.input;
    LAKE_ASSERT(seqs.size() == per * batch, "kleio batch size mismatch");

    shm::ShmArena &arena = lib.arena();
    std::size_t in_bytes = seqs.size() * sizeof(float);
    shm::ShmOffset in_off = arena.alloc(in_bytes);
    shm::ShmOffset out_off = arena.alloc(batch * sizeof(std::int32_t));
    LAKE_ASSERT(in_off != shm::kNullOffset &&
                    out_off != shm::kNullOffset,
                "lakeShm exhausted");
    std::memcpy(arena.at(in_off), seqs.data(), in_bytes);

    remote::Encoder args;
    args.u64(in_off).u64(out_off).u64(batch);
    auto result = lib.highLevelCall("kleio.infer", args.take());
    LAKE_ASSERT(result.isOk(), "kleio.infer failed: %s",
                result.status().toString().c_str());

    const auto *out = static_cast<const std::int32_t *>(arena.at(out_off));
    std::vector<int> labels(out, out + batch);
    arena.free(in_off);
    arena.free(out_off);
    return labels;
}

} // namespace lake::ml
