#ifndef LAKE_REGISTRY_REGISTRY_H
#define LAKE_REGISTRY_REGISTRY_H

/**
 * @file
 * One feature registry: a named combination of a model, a feature-vector
 * schema, a capture window, and the classifier/policy hooks (§5).
 *
 * Every registry stores its vectors in one SoaStore (registry/soa.h):
 * the open vector is a row of relaxed-atomic live lanes, one per
 * column, and a commit seals a copy of it into a slot of the window
 * ring. Scoring has one classifier type over one batch type: every
 * batch reaches the classifier as an FvBatchView, whether its rows are
 * committed slots or caller-built vectors.
 *
 * Concurrency model, per §5.3: while a capture is open, any thread may
 * call captureFeature / captureFeatureIncr — each is one relaxed-atomic
 * store or add into the open vector's column lane. begin/commit/get/
 * truncate/score are registry-owner operations (the subsystem that
 * created the registry), serialized by the caller the way the I/O path
 * serializes them in the paper's case study.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "policy/policy.h"
#include "registry/schema.h"
#include "registry/soa.h"

namespace lake::registry {

/**
 * A committed (frozen) feature vector:
 * <numfeatures, kvpair*, ts_begin, ts_end> in the paper's notation.
 */
struct FeatureVector
{
    Nanos ts_begin = 0;
    Nanos ts_end = 0;
    /** key -> entries; [0] most recent, [1..] history (§5.2). */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> values;

    /** Scalar read of a feature's most recent entry (0 if absent). */
    std::uint64_t get(std::uint64_t key) const;
    /** Scalar read by feature name. */
    std::uint64_t get(const std::string &name) const;
};

/** Which implementation a classifier targets (Table 1's arch column). */
enum class Arch
{
    Cpu,
    Gpu,
    Xpu, //!< any other accelerator
};

/**
 * Batch inference callback (Table 1's classifier): scores one batch,
 * one score per row. Registered per Arch; the active execution policy
 * picks which runs. The batch is always an FvBatchView — pinned
 * committed slots, caller-built vectors borrowed for the call, or both
 * — typically consumed through view.matrixViews() by the strided
 * GEMM/kNN substrate. The batch, and whatever the classifier derives
 * from it (select() views, MatrixViews), is valid only for the call.
 */
using Classifier = std::function<std::vector<float>(const FvBatchView &)>;

/**
 * The FeatureVector-batch callback shape the frozen benchmark drivers
 * register; registerClassifier adapts it to a Classifier.
 */
using VectorClassifier =
    std::function<std::vector<float>(const std::vector<FeatureVector> &)>;

/**
 * A feature registry.
 */
class Registry
{
  public:
    /**
     * A registry whose store lives on the heap (default SoaConfig).
     * @param name   registry name (e.g. the block device, "sda1")
     * @param sys    owning subsystem (e.g. "bio_latency_prediction")
     * @param schema feature-vector format
     * @param window ring capacity in feature vectors
     */
    Registry(std::string name, std::string sys, Schema schema,
             std::size_t window);

    /** A registry over an already-built @p store (the manager's path:
     *  it carves the store from its arena first). */
    Registry(std::string name, std::string sys,
             std::unique_ptr<SoaStore> store);

    /** Registry name. */
    const std::string &name() const { return name_; }
    /** Owning subsystem. */
    const std::string &sys() const { return sys_; }
    /** Schema in force. */
    const Schema &schema() const { return soa_->schema(); }
    /** Ring capacity in feature vectors. */
    std::size_t window() const { return soa_->window(); }

    /** The column store behind this registry. */
    SoaStore &soa() const { return *soa_; }

    /// @name Capture (Table 1: begin/capture/capture_incr/commit)
    /// @{

    /**
     * Opens a new feature vector with begin timestamp @p ts.
     *
     * Calling begin while a capture is already open is a *re-stamp*:
     * the open window's begin moves forward to @p ts and every feature
     * captured so far is kept (the case study re-arms its window on
     * the submission path without an intervening commit). A re-stamp
     * may never move time backwards — @p ts earlier than the open
     * begin panics, since it would fabricate a window that pretends to
     * predate its own features.
     */
    void beginFvCapture(Nanos ts);

    /** True while a capture window is open. */
    bool captureOpen() const { return capture_open_; }

    /**
     * Sets feature @p key on the open vector. Callable from any thread
     * while a capture is open. Unknown keys panic (schema bug).
     */
    void captureFeature(std::uint64_t key, std::uint64_t value);
    /** Name-keyed convenience overload. */
    void captureFeature(const std::string &name, std::uint64_t value);

    /** Atomically increments feature @p key by @p delta. */
    void captureFeatureIncr(std::uint64_t key, std::int64_t delta);
    /** Name-keyed convenience overload. */
    void captureFeatureIncr(const std::string &name, std::int64_t delta);

    /**
     * Column-indexed capture: the hash-free hot path. @p col is the
     * schema declaration order index (Schema::columnOf, interned once
     * by the instrumentation site); the capture is a single
     * relaxed-atomic store into the open vector's column lane.
     */
    void captureFeatureCol(std::uint32_t col, std::uint64_t value);
    /** Column-indexed atomic increment. */
    void captureFeatureIncrCol(std::uint32_t col, std::int64_t delta);

    /**
     * Freezes the open vector with end timestamp @p ts and appends it
     * to the ring (overwriting the oldest when full). History features
     * inherit entries 1..N-1 from the previous committed vector.
     * Implicitly opens the next capture at @p ts so incremental
     * counters (pending I/Os) persist across vectors.
     */
    void commitFvCapture(Nanos ts);

    /// @}
    /// @name Batch retrieval (Table 1: get/truncate)
    /// @{

    /**
     * With a timestamp: the first vector whose [ts_begin, ts_end]
     * contains @p ts. Without (nullopt): the whole ring, oldest first.
     * Either way a materializing read: the vectors are copies of the
     * sealed column slots.
     */
    std::vector<FeatureVector>
    getFeatures(std::optional<Nanos> ts = std::nullopt) const;

    /**
     * Removes vectors older than @p ts (all vectors when nullopt).
     * When the schema declares history features, the most recent
     * vector is always preserved so future vectors can populate their
     * historical entries (§5.4).
     */
    void truncateFeatures(std::optional<Nanos> ts = std::nullopt);

    /** Committed vectors currently in the ring. */
    std::size_t pendingCount() const { return soa_->sealedCount(); }

    /**
     * Pinned zero-copy view over every committed vector, oldest first.
     * The view keeps its slots' bytes immutable until it destructs —
     * window wraps and truncates defer recycling behind it.
     */
    FvBatchView batchView();

    /** Pinned view over the newest @p n committed vectors. */
    FvBatchView tailView(std::size_t n);

    /// @}
    /// @name Inference dispatch (Table 1: register/score)
    /// @{

    /**
     * Installs the classifier for @p arch.
     *
     * Only Cpu and Gpu are dispatchable: policy::Engine has no third
     * leg, so an Arch::Xpu registration used to land in a write-only
     * slot that scoreFeatures could never reach. It is now rejected
     * with InvalidArgument instead of silently swallowed.
     */
    Status registerClassifier(Arch arch, Classifier fn);

    /**
     * Frozen-compat overload for FeatureVector-batch callbacks. The
     * installed adapter hands @p fn the caller's own vector, by
     * reference, when the batch is exactly one whole borrowed vector
     * (no copy, no re-encode); any other batch is materialized, and
     * the pinned rows' staged bytes count into reg_pack_bytes then.
     */
    Status registerClassifier(Arch arch, VectorClassifier fn);

    /** True when a classifier is installed for @p arch. */
    bool hasClassifier(Arch arch) const;

    /** Installs the execution policy (owned by the registry). */
    void registerPolicy(std::unique_ptr<policy::ExecPolicy> p);

    /**
     * Runs inference on @p view: consults the policy (batch size =
     * view.size()), dispatches to the chosen arch's classifier (falling
     * back to the CPU one when the GPU variant is absent), and returns
     * one score per row. Borrowed rows count their staged bytes into
     * reg_pack_bytes here; pinned rows stage nothing.
     * @param now virtual time, given to the policy
     */
    std::vector<float> scoreFeatures(const FvBatchView &view, Nanos now);

    /** Scores caller-built vectors: borrows @p fvs as one view for
     *  the call. */
    std::vector<float> scoreFeatures(const std::vector<FeatureVector> &fvs,
                                     Nanos now);

    /** Engine the last scoreFeatures dispatch used. */
    policy::Engine lastEngine() const { return last_engine_; }

    /// @}

  private:
    /** Column of @p key; panics on a key the schema does not declare. */
    std::uint32_t columnOrDie(std::uint64_t key) const;
    /** Panics on a column index outside the schema. */
    void checkColumn(std::uint32_t col) const;

    std::string name_;
    std::string sys_;

    /** The open vector's begin timestamp (its lanes live in soa_). */
    Nanos open_begin_ = 0;
    bool capture_open_ = false;

    /** Column store: open slot, sealed window ring, float rows. */
    std::unique_ptr<SoaStore> soa_;

    Classifier cpu_classifier_;
    Classifier gpu_classifier_;
    std::unique_ptr<policy::ExecPolicy> policy_;
    policy::Engine last_engine_ = policy::Engine::Cpu;
};

} // namespace lake::registry

#endif // LAKE_REGISTRY_REGISTRY_H
