#ifndef LAKE_REGISTRY_MANAGER_H
#define LAKE_REGISTRY_MANAGER_H

/**
 * @file
 * The registry manager: Table 1's top-level entry points.
 *
 * Registries are keyed by (name, sys) — the case study gives each block
 * device its own registry ("the name parameter is the device's name,
 * e.g. sda1") under the "bio_latency_prediction" subsystem. The manager
 * also exposes the exact snake_case functions of Table 1 as a facade,
 * so instrumentation code reads like the paper's listings.
 */

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "base/status.h"
#include "registry/model_store.h"
#include "registry/registry.h"
#include "registry/scoreserver.h"

namespace lake::registry {

/**
 * A cached capture handle: the facade's `capture_feature(name, sys,
 * "feature", v)` pays a map<pair<string,string>> lookup plus a
 * featureKey() string hash on *every* hot-path capture. Instrumentation
 * sites resolve the registry once, intern their feature names to
 * schema keys once, and capture through this handle afterwards.
 *
 * Valid until the registry is destroyed; a default-constructed handle
 * is inert (valid() == false) and must not be used to capture.
 */
class CaptureHandle
{
  public:
    CaptureHandle() = default;

    /** True when bound to a live registry. */
    bool valid() const { return reg_ != nullptr; }

    /**
     * Interns a schema feature name to its numeric key; capture
     * through the key overloads afterwards. Panics on a name the
     * schema does not declare (same contract as captureFeature).
     */
    std::uint64_t key(const std::string &feature) const;

    /**
     * Interns a schema feature name to its declaration-order column
     * index — the column store's hash-free capture coordinate.
     * Panics on an undeclared name.
     */
    std::uint32_t column(const std::string &feature) const;

    /// @name Capture, forwarded to the bound registry
    /// @{
    void beginFvCapture(Nanos ts) { reg_->beginFvCapture(ts); }
    void captureFeature(std::uint64_t key, std::uint64_t value)
    {
        reg_->captureFeature(key, value);
    }
    void captureFeatureIncr(std::uint64_t key, std::int64_t delta)
    {
        reg_->captureFeatureIncr(key, delta);
    }
    void captureFeatureCol(std::uint32_t col, std::uint64_t value)
    {
        reg_->captureFeatureCol(col, value);
    }
    void captureFeatureIncrCol(std::uint32_t col, std::int64_t delta)
    {
        reg_->captureFeatureIncrCol(col, delta);
    }
    void commitFvCapture(Nanos ts) { reg_->commitFvCapture(ts); }
    /// @}

    /** The bound registry (nullptr when invalid). */
    Registry *registry() const { return reg_; }

  private:
    friend class RegistryManager;
    explicit CaptureHandle(Registry *reg) : reg_(reg) {}

    Registry *reg_ = nullptr;
};

/**
 * Heterogeneous (name, sys) key order: lookups compare pairs of string
 * *references* against the stored pair<string, string> keys, so the
 * hot paths (find(), every async submit) build no temporary strings.
 */
struct RegistryKeyLess
{
    using is_transparent = void;

    template <typename A, typename B>
    bool operator()(const A &a, const B &b) const
    {
        if (a.first != b.first)
            return a.first < b.first;
        return a.second < b.second;
    }
};

/**
 * Owner of all feature registries, the model store, and (when enabled)
 * the async scoring service.
 */
class RegistryManager
{
  public:
    /**
     * @param clock clock charged for durable model operations
     * @param arena lakeShm arena every registry's column store is
     *              carved from; nullptr keeps the stores on the heap
     * @param soa   column-store knobs (SoaConfig::slack)
     */
    explicit RegistryManager(Clock &clock, shm::ShmArena *arena = nullptr,
                             SoaConfig soa = {})
        : clock_(clock), models_(clock), soa_cfg_(soa), arena_(arena)
    {
    }

    ~RegistryManager();

    /**
     * create_registry(name, sys, schema, window). ResourceExhausted
     * when the arena cannot fit the registry's column store.
     */
    Status createRegistry(const std::string &name, const std::string &sys,
                          Schema schema, std::size_t window);

    /**
     * destroy_registry(name, sys). The registry is first unlinked from
     * the table (new submissions see InvalidArgument), then its queued
     * async score requests fail with Unavailable — waiting out any
     * in-flight flush — and only then is the object freed.
     */
    Status destroyRegistry(const std::string &name, const std::string &sys);

    /**
     * Looks up a registry; nullptr when absent. Safe against a
     * concurrent destroyRegistry(), but the returned pointer is only
     * guaranteed live while no other thread may destroy it — async
     * submission holds the registry lock across lookup *and* enqueue
     * for exactly that reason (see lockRegistries()).
     */
    Registry *find(const std::string &name, const std::string &sys);

    /**
     * Resolves a capture handle for hot-path instrumentation; an
     * invalid handle when the registry does not exist.
     */
    CaptureHandle captureHandle(const std::string &name,
                                const std::string &sys);

    /**
     * Brings up the async scoring service (DESIGN.md §7). Idempotent
     * per lifetime: a second call while enabled is AlreadyExists.
     */
    Status enableScoring(ScoringConfig cfg);

    /** Flushes and tears down the scoring service (no-op if off). */
    void disableScoring();

    /** The scoring service; nullptr while disabled (the default). */
    ScoreServer *scorer() { return scorer_.get(); }

    /** Model lifecycle operations. */
    ModelStore &models() { return models_; }

    /** The clock shared with the scoring service. */
    Clock &clock() { return clock_; }

    /** Number of live registries. */
    std::size_t registryCount() const
    {
        std::lock_guard<std::mutex> lock(reg_mu_);
        return registries_.size();
    }

  private:
    friend class ScoreServer;

    /**
     * Locks the registry table. ScoreServer::submit holds this across
     * findLocked() + enqueue so a racing destroyRegistry() — which
     * unlinks the registry under the same lock before failing its
     * queue — can never leave a dangling pointer in a queue.
     */
    std::unique_lock<std::mutex> lockRegistries()
    {
        return std::unique_lock<std::mutex>(reg_mu_);
    }

    /** find() body; caller holds reg_mu_ via lockRegistries(). */
    Registry *findLocked(const std::string &name, const std::string &sys);

    Clock &clock_;
    /** Guards registries_ (reads and lifecycle). */
    mutable std::mutex reg_mu_;
    std::map<std::pair<std::string, std::string>, std::unique_ptr<Registry>,
             RegistryKeyLess>
        registries_;
    ModelStore models_;
    SoaConfig soa_cfg_;
    /** Where column stores are carved; nullptr = the heap. */
    shm::ShmArena *arena_;
    /** Declared last so it destroys first: its final drain still sees
     *  every registry alive. */
    std::unique_ptr<ScoreServer> scorer_;
};

/// @name Table 1 facade
/// The paper's exact API, as free functions over a manager. Listings
/// 4 and 5 of the paper transliterate one-to-one onto these.
/// @{

Status create_registry(RegistryManager &m, const std::string &name,
                       const std::string &sys, Schema schema,
                       std::size_t window);
Status destroy_registry(RegistryManager &m, const std::string &name,
                        const std::string &sys);

Status create_model(RegistryManager &m, const std::string &name,
                    const std::string &sys, const std::string &path);
Status update_model(RegistryManager &m, const std::string &name,
                    const std::string &sys, const std::string &path,
                    std::vector<std::uint8_t> blob);
Status load_model(RegistryManager &m, const std::string &name,
                  const std::string &sys, const std::string &path);
Status delete_model(RegistryManager &m, const std::string &name,
                    const std::string &sys, const std::string &path);

Status register_classifier(RegistryManager &m, const std::string &name,
                           const std::string &sys, Classifier fn, Arch arch);
void register_policy(RegistryManager &m, const std::string &name,
                     const std::string &sys,
                     std::unique_ptr<policy::ExecPolicy> p);

std::vector<float> score_features(RegistryManager &m,
                                  const std::string &name,
                                  const std::string &sys,
                                  const std::vector<FeatureVector> &fvs,
                                  Nanos now);

/**
 * Non-blocking batched scoring (Table 1 extension, DESIGN.md §7).
 *
 * With the scoring service enabled, queues @p fvs for a coalesced
 * flush and returns the admission status. With it disabled (the
 * default), degrades to synchronous inline scoring: the callback runs
 * before this returns, with batch == fvs.size(). Either way the
 * callback fires at most once, and only after an Ok return.
 */
Status score_features_async(RegistryManager &m, const std::string &name,
                            const std::string &sys,
                            std::vector<FeatureVector> fvs, Nanos deadline,
                            ScoreCallback cb);

std::vector<FeatureVector> get_features(RegistryManager &m,
                                        const std::string &name,
                                        const std::string &sys,
                                        std::optional<Nanos> ts);

void begin_fv_capture(RegistryManager &m, const std::string &name,
                      const std::string &sys, Nanos ts);
void capture_feature(RegistryManager &m, const std::string &name,
                     const std::string &sys, const std::string &key,
                     std::uint64_t val);
void capture_feature_incr(RegistryManager &m, const std::string &name,
                          const std::string &sys, const std::string &key,
                          std::int64_t incrval);
void commit_fv_capture(RegistryManager &m, const std::string &name,
                       const std::string &sys, Nanos ts);
void truncate_features(RegistryManager &m, const std::string &name,
                       const std::string &sys, std::optional<Nanos> ts);

/** Resolves a CaptureHandle (invalid when the registry is absent). */
CaptureHandle capture_handle(RegistryManager &m, const std::string &name,
                             const std::string &sys);

/// @}

} // namespace lake::registry

#endif // LAKE_REGISTRY_MANAGER_H
