#ifndef LAKE_ML_BACKENDS_H
#define LAKE_ML_BACKENDS_H

/**
 * @file
 * Execution backends for the in-kernel models.
 *
 * Each model gets two wrappers mirroring the paper's pairs of bars:
 *
 *  - Cpu*: the model runs in kernel context between kernel_fpu_begin /
 *    kernel_fpu_end; virtual time is charged from the CpuSpec.
 *  - Lake*: the model runs on the GPU through the full LAKE path
 *    (lakeShm staging, lakeLib commands, lakeD execution). Each wrapper
 *    supports the two data-movement regimes of the figures: "LAKE"
 *    (inputs staged asynchronously ahead of execution, copies off the
 *    critical path) and "LAKE (sync.)" (copies paid inline).
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "gpu/spec.h"
#include "ml/knn.h"
#include "ml/lstm.h"
#include "ml/mlp.h"
#include "remote/daemon.h"
#include "remote/fleet.h"
#include "remote/lakelib.h"
#include "remote/streampool.h"
#include "shm/arena.h"

namespace lake::ml {

/**
 * Kernel-context CPU compute: charges modeled time for float work.
 */
class KernelCpu
{
  public:
    /** kernel_fpu_begin/end bracket cost per charged region. */
    static constexpr Nanos kFpuBracket = 300_ns;

    /**
     * @param clock clock to charge
     * @param spec  CPU performance envelope
     */
    KernelCpu(Clock &clock, gpu::CpuSpec spec)
        : clock_(clock), spec_(std::move(spec))
    {}

    /** Charges @p flops of scalar float work plus the FPU bracket. */
    void
    charge(double flops)
    {
        clock_.advance(kFpuBracket +
                       static_cast<Nanos>(flops / spec_.effective_gflops));
    }

    /** The clock being charged. */
    Clock &clock() { return clock_; }
    /** The CPU model. */
    const gpu::CpuSpec &spec() const { return spec_; }

  private:
    Clock &clock_;
    gpu::CpuSpec spec_;
};

/** CPU-resident MLP classifier (LinnOS / MLLB / KML on-CPU bars). */
class CpuMlp
{
  public:
    /** @param model shared model; must outlive the wrapper */
    CpuMlp(const Mlp &model, KernelCpu &cpu) : model_(model), cpu_(cpu) {}

    /**
     * Classifies a batch given as strided windows (SoA slot batches),
     * charging CPU time. The views' rows form one batch: virtual time
     * is charged once for the total row count (one FPU bracket), and
     * scores do not depend on how the rows are split into views.
     */
    std::vector<int> classify(const std::vector<MatrixView> &xs);

    /** classify() of one dense batch. */
    std::vector<int> classify(const Matrix &x)
    {
        return classify({x.view()});
    }

  private:
    const Mlp &model_;
    KernelCpu &cpu_;
};

/**
 * GPU MLP classifier through LAKE.
 *
 * Construction uploads the serialized model to device memory via
 * lakeShm (one-time cost); classify() copies the batch's rows once,
 * straight from the caller's views into lakeShm, and launches
 * "mlp_forward".
 */
class LakeMlp
{
  public:
    /**
     * @param model     model to upload (copied into device memory)
     * @param lib       kernel-side stub library
     * @param sync_copy true = "LAKE (sync.)": input copy paid inline
     * @param max_batch largest batch classify() will ever see
     */
    LakeMlp(const Mlp &model, remote::LakeLib &lib, bool sync_copy,
            std::size_t max_batch);
    ~LakeMlp();

    LakeMlp(const LakeMlp &) = delete;
    LakeMlp &operator=(const LakeMlp &) = delete;

    /** Classifies a batch on the GPU; asserts on remoting failure. */
    std::vector<int> classify(const std::vector<MatrixView> &xs);

    /**
     * Classifies one batch on the GPU, propagating remoting failures
     * (timeouts, corrupt responses, degraded transport) as a Status
     * instead of asserting — the caller decides whether to fall back
     * to the CPU model. The batch is CpuMlp::classify's: the views'
     * rows in order, every view the model's input width, 1..max_batch
     * rows in total.
     */
    Result<std::vector<int>> tryClassify(const std::vector<MatrixView> &xs);

    /** classify() of one dense batch. */
    std::vector<int> classify(const Matrix &x) { return classify({x.view()}); }

    /** tryClassify() of one dense batch. */
    Result<std::vector<int>>
    tryClassify(const Matrix &x)
    {
        return tryClassify({x.view()});
    }

    /**
     * Opts into streaming DMA orchestration (DESIGN.md §10): each
     * batch is split into per-stream chunks whose feature rows are
     * gathered into pooled lakeShm buffers and round-robined across
     * the orchestrator's streams, so chunk i+1's upload overlaps chunk
     * i's forward pass. Steady state performs zero arena alloc/free
     * and zero cuMemAlloc/cuMemFree calls. Pass nullptr to revert to
     * the classic single-stream path. Ignored in sync_copy mode (the
     * "LAKE (sync.)" bar pays copies inline by definition).
     */
    void enableStreaming(remote::StreamOrchestrator *orch)
    {
        orch_ = orch;
    }

  private:
    /** Single-stream path over the batch's row starts. */
    Result<std::vector<int>>
    classifySerial(const std::vector<const void *> &rows);

    /** Multi-stream chunked path (enableStreaming). */
    Result<std::vector<int>>
    classifyStreamed(const std::vector<const void *> &rows);

    /** Launches "mlp_forward" over @p rows rows from @p in to @p out. */
    Status launchForward(gpu::DevicePtr in, gpu::DevicePtr out,
                         std::size_t rows, gpu::StreamId stream);

    remote::LakeLib &lib_;
    shm::ShmArena &arena_;
    std::uint32_t input_w_;
    std::uint32_t output_w_;
    bool sync_copy_;
    std::size_t max_batch_;
    remote::StreamOrchestrator *orch_ = nullptr;
    gpu::DevicePtr d_model_ = 0;
    gpu::DevicePtr d_in_ = 0;
    gpu::DevicePtr d_out_ = 0;
    shm::ShmOffset h_in_ = shm::kNullOffset;
    shm::ShmOffset h_out_ = shm::kNullOffset;
};

/**
 * One MLP over a device fleet: the one dispatch path from a placement
 * key to a device's LakeMlp, with the mid-batch CPU fallback
 * (DESIGN.md §13). Lock order: router key map (leaf), then one shard
 * mutex; the placement policy is never consulted under a shard mutex.
 */
class FleetMlp
{
  public:
    struct Served
    {
        std::vector<int> labels;
        /** Fleet device that served the batch; empty for the CPU. */
        std::optional<std::size_t> device;
    };

    /**
     * Uploads one LakeMlp per device, in device order, each under its
     * shard's mutex with the device active (asserts on a failed
     * switch). @p router must outlive this object; the other
     * parameters are LakeMlp's.
     */
    FleetMlp(const Mlp &model, remote::FleetRouter &router, bool sync_copy,
             std::size_t max_batch);

    FleetMlp(const FleetMlp &) = delete;
    FleetMlp &operator=(const FleetMlp &) = delete;

    /**
     * Classifies the batch @p xs (LakeMlp::tryClassify's form) on the
     * device the router placed @p key on. A failed switch or mid-batch
     * remoting failure counts one fallback on that device's shard and
     * finishes on @p fallback.
     */
    Served classify(const std::string &key,
                    const std::vector<MatrixView> &xs, CpuMlp &fallback);

    /** Fleet device @p d's model. */
    LakeMlp &device(std::size_t d) { return *mlps_.at(d); }

  private:
    remote::FleetRouter &router_;
    std::vector<std::unique_ptr<LakeMlp>> mlps_;
};

/** CPU k-NN classifier. */
class CpuKnn
{
  public:
    CpuKnn(const Knn &model, KernelCpu &cpu) : model_(model), cpu_(cpu) {}

    /** Classifies @p n queries, charging CPU time. */
    std::vector<int> classify(const float *queries, std::size_t n);

  private:
    const Knn &model_;
    KernelCpu &cpu_;
};

/** GPU k-NN through LAKE; references uploaded at construction. */
class LakeKnn
{
  public:
    /**
     * @param host_sample_stride evaluate every Nth reference on the
     *        simulation host (modeled device time still covers the
     *        full scan); 1 = exact results
     */
    LakeKnn(const Knn &model, remote::LakeLib &lib, bool sync_copy,
            std::size_t max_queries, std::size_t host_sample_stride = 1);
    ~LakeKnn();

    LakeKnn(const LakeKnn &) = delete;
    LakeKnn &operator=(const LakeKnn &) = delete;

    /** Classifies @p n queries on the GPU; asserts on failure. */
    std::vector<int> classify(const float *queries, std::size_t n);

    /** Status-propagating variant of classify (see LakeMlp). */
    Result<std::vector<int>> tryClassify(const float *queries,
                                         std::size_t n);

  private:
    remote::LakeLib &lib_;
    shm::ShmArena &arena_;
    std::size_t dim_;
    std::size_t k_;
    std::size_t n_refs_;
    bool sync_copy_;
    std::size_t max_queries_;
    std::size_t host_stride_;
    gpu::DevicePtr d_refs_ = 0;
    gpu::DevicePtr d_labels_ = 0;
    gpu::DevicePtr d_queries_ = 0;
    gpu::DevicePtr d_out_ = 0;
    shm::ShmOffset h_io_ = shm::kNullOffset;
};

/** CPU LSTM classifier (page-warmth on-CPU reference). */
class CpuLstm
{
  public:
    CpuLstm(const Lstm &model, KernelCpu &cpu) : model_(model), cpu_(cpu) {}

    /** Classifies @p batch samples (concatenated), charging CPU time. */
    std::vector<int> classify(const std::vector<float> &seqs,
                              std::size_t batch);

  private:
    const Lstm &model_;
    KernelCpu &cpu_;
};

/**
 * The Kleio page-warmth path: a *high-level* API (§4.4).
 *
 * Kernel space does not drive CUDA for the LSTM; it calls one remoted
 * "kleio.infer" API. lakeD's handler owns the TensorFlow-like runtime:
 * it stages the batch onto the GPU, runs "lstm_forward", and charges
 * the framework overhead Fig. 9 exhibits.
 */
class KleioService
{
  public:
    /** Modeled fixed TensorFlow invocation overhead per call. */
    static constexpr Nanos kTfCallOverhead = 95_ms;

    /**
     * Modeled per-page TF cost: Kleio keeps a *per-page* model, so a
     * batch of N pages is N graph executions — the source of Fig. 9's
     * near-linear growth.
     */
    static constexpr Nanos kTfPerSampleCost = 170_us;

    /**
     * Installs the "kleio.infer" handler into @p daemon and uploads the
     * model to device memory.
     * @return the service object the kernel side uses
     */
    KleioService(remote::LakeDaemon &daemon, const Lstm &model);

    /**
     * Kernel-side entry: classifies @p batch page histories. Data moves
     * through lakeShm; the call itself is one high-level RPC.
     */
    std::vector<int> classify(remote::LakeLib &lib,
                              const std::vector<float> &seqs,
                              std::size_t batch);

  private:
    remote::LakeDaemon &daemon_;
    LstmConfig config_;
    gpu::DevicePtr d_model_ = 0;
};

} // namespace lake::ml

#endif // LAKE_ML_BACKENDS_H
