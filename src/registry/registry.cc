#include "registry/registry.h"

#include <chrono>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lake::registry {

namespace {

/**
 * Host-clock capture timer feeding the reg_capture_ns counter: armed
 * only while metrics are enabled, so the default hot path pays one
 * predictable branch.
 */
class CaptureTimer
{
  public:
    explicit CaptureTimer(obs::Metrics &m) : m_(m), on_(m.enabled())
    {
        if (on_)
            t0_ = std::chrono::steady_clock::now();
    }
    ~CaptureTimer()
    {
        if (on_) {
            auto dt = std::chrono::steady_clock::now() - t0_;
            m_.reg_capture_ns.add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()));
        }
    }

  private:
    obs::Metrics &m_;
    bool on_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace

std::uint64_t
FeatureVector::get(std::uint64_t key) const
{
    auto it = values.find(key);
    if (it == values.end() || it->second.empty())
        return 0;
    return it->second[0];
}

std::uint64_t
FeatureVector::get(const std::string &name) const
{
    return get(featureKey(name));
}

Registry::Registry(std::string name, std::string sys, Schema schema,
                   std::size_t window)
    : Registry(std::move(name), std::move(sys),
               SoaStore::create(std::move(schema), window, SoaConfig{},
                                nullptr))
{
}

Registry::Registry(std::string name, std::string sys,
                   std::unique_ptr<SoaStore> store)
    : name_(std::move(name)), sys_(std::move(sys)), soa_(std::move(store))
{
    LAKE_ASSERT(soa_ != nullptr, "registry %s/%s: no column store",
                sys_.c_str(), name_.c_str());
}

std::uint32_t
Registry::columnOrDie(std::uint64_t key) const
{
    std::uint32_t col = schema().columnOf(key);
    LAKE_ASSERT(col != Schema::kNoColumn,
                "capture of undeclared feature key in %s/%s",
                sys_.c_str(), name_.c_str());
    return col;
}

void
Registry::checkColumn(std::uint32_t col) const
{
    LAKE_ASSERT(col < schema().featureCount(),
                "capture of out-of-schema column %u in %s/%s", col,
                sys_.c_str(), name_.c_str());
}

void
Registry::beginFvCapture(Nanos ts)
{
    // The open slot is intentionally *not* cleared: features like the
    // paper's pend_ios are incrementally maintained counters whose
    // value must persist across vectors; point-in-time features are
    // simply overwritten by the next captureFeature call.
    //
    // begin-while-open is a forward re-stamp (see the header). A
    // backwards re-stamp would commit a window claiming to start
    // before features it already holds were captured — refuse it
    // instead of quietly rewinding open_begin_.
    LAKE_ASSERT(!capture_open_ || ts >= open_begin_,
                "%s/%s: begin at %llu rewinds open capture begun at %llu",
                sys_.c_str(), name_.c_str(),
                static_cast<unsigned long long>(ts),
                static_cast<unsigned long long>(open_begin_));
    open_begin_ = ts;
    capture_open_ = true;
    auto &m = obs::Metrics::global();
    if (m.enabled())
        m.reg_capture_begins.add();
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Runtime, "registry", "fv.begin", ts);
}

void
Registry::captureFeature(std::uint64_t key, std::uint64_t value)
{
    captureFeatureCol(columnOrDie(key), value);
}

void
Registry::captureFeature(const std::string &name, std::uint64_t value)
{
    captureFeature(featureKey(name), value);
}

void
Registry::captureFeatureIncr(std::uint64_t key, std::int64_t delta)
{
    captureFeatureIncrCol(columnOrDie(key), delta);
}

void
Registry::captureFeatureIncr(const std::string &name, std::int64_t delta)
{
    captureFeatureIncr(featureKey(name), delta);
}

void
Registry::captureFeatureCol(std::uint32_t col, std::uint64_t value)
{
    checkColumn(col);
    auto &m = obs::Metrics::global();
    CaptureTimer timer(m);
    soa_->set(col, value);
    if (m.enabled())
        m.reg_features_captured.add();
}

void
Registry::captureFeatureIncrCol(std::uint32_t col, std::int64_t delta)
{
    checkColumn(col);
    auto &m = obs::Metrics::global();
    CaptureTimer timer(m);
    soa_->add(col, delta);
    if (m.enabled())
        m.reg_features_captured.add();
}

void
Registry::commitFvCapture(Nanos ts)
{
    LAKE_ASSERT(capture_open_, "%s/%s: commit without open capture",
                sys_.c_str(), name_.c_str());

    // Slot seal + ring-index append: history inheritance, the presence
    // snapshot, and the float-row encode all happen inside the store —
    // no map walk, no allocation.
    std::size_t fv_len = soa_->seal(open_begin_, ts);
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        m.reg_commits.add();
        m.reg_fv_len.record(fv_len);
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.span(obs::Side::Runtime, "registry", "fv.capture", open_begin_,
                ts - open_begin_, obs::kNoId, "features", fv_len);

    // Re-open immediately so incremental captures never race a closed
    // window; the paper's case study likewise begins the next capture
    // right after commit.
    open_begin_ = ts;
}

std::vector<FeatureVector>
Registry::getFeatures(std::optional<Nanos> ts) const
{
    return soa_->materialize(ts);
}

void
Registry::truncateFeatures(std::optional<Nanos> ts)
{
    soa_->truncate(ts, schema().hasHistory() ? 1 : 0);
}

FvBatchView
Registry::batchView()
{
    return soa_->viewAll();
}

FvBatchView
Registry::tailView(std::size_t n)
{
    return soa_->viewTail(n);
}

Status
Registry::registerClassifier(Arch arch, Classifier fn)
{
    switch (arch) {
      case Arch::Cpu: cpu_classifier_ = std::move(fn); return Status::ok();
      case Arch::Gpu: gpu_classifier_ = std::move(fn); return Status::ok();
      case Arch::Xpu:
        break;
    }
    // No Engine::Xpu exists, so an Xpu classifier would be write-only:
    // registered, never dispatchable. Tell the caller instead.
    return Status(Code::InvalidArgument,
                  sys_ + "/" + name_ +
                      ": Arch::Xpu classifiers are not dispatchable "
                      "(policy::Engine has no Xpu leg)");
}

Status
Registry::registerClassifier(Arch arch, VectorClassifier fn)
{
    if (!fn)
        return registerClassifier(arch, Classifier());
    return registerClassifier(
        arch, [fn = std::move(fn)](const FvBatchView &view) {
            if (const std::vector<FeatureVector> *fvs = view.wholeBorrowed())
                return fn(*fvs);
            // Pinned rows pay the gather here; borrowed rows were
            // counted when the batch was dispatched.
            auto &m = obs::Metrics::global();
            if (m.enabled())
                m.reg_pack_bytes.add(view.packBytes(/*borrowed=*/false));
            return fn(view.materialize());
        });
}

bool
Registry::hasClassifier(Arch arch) const
{
    switch (arch) {
      case Arch::Cpu: return cpu_classifier_ != nullptr;
      case Arch::Gpu: return gpu_classifier_ != nullptr;
      case Arch::Xpu: return false;
    }
    return false;
}

void
Registry::registerPolicy(std::unique_ptr<policy::ExecPolicy> p)
{
    policy_ = std::move(p);
}

std::vector<float>
Registry::scoreFeatures(const FvBatchView &view, Nanos now)
{
    if (view.empty())
        return {};
    LAKE_ASSERT(cpu_classifier_ != nullptr,
                "%s/%s: scoreFeatures without a CPU classifier",
                sys_.c_str(), name_.c_str());

    policy::Engine engine = policy::Engine::Cpu;
    if (policy_) {
        policy::PolicyInput in;
        in.batch_size = view.size();
        in.now = now;
        engine = policy_->decide(in);
    } else if (gpu_classifier_) {
        engine = policy::Engine::Gpu;
    }
    if (engine == policy::Engine::Gpu && !gpu_classifier_)
        engine = policy::Engine::Cpu; // no GPU variant installed

    last_engine_ = engine;
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        m.reg_scores.add();
        // Borrowed rows staged their map payload into the caller's
        // vectors; pinned slots stage nothing unless a vector
        // classifier materializes them (counted there).
        m.reg_pack_bytes.add(view.packBytes(/*borrowed=*/true));
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Runtime, "registry", "fv.score", now,
                   obs::kNoId, "batch", view.size(),
                   engine == policy::Engine::Gpu ? "gpu" : "cpu", 1);
    Classifier &fn = engine == policy::Engine::Gpu ? gpu_classifier_
                                                   : cpu_classifier_;
    std::vector<float> scores = fn(view);
    LAKE_ASSERT(scores.size() == view.size(),
                "%s/%s: classifier returned %zu scores for %zu vectors",
                sys_.c_str(), name_.c_str(), scores.size(), view.size());
    return scores;
}

std::vector<float>
Registry::scoreFeatures(const std::vector<FeatureVector> &fvs, Nanos now)
{
    return scoreFeatures(FvBatchView::borrow(*soa_, fvs, 0, fvs.size()),
                         now);
}

} // namespace lake::registry
