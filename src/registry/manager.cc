#include "registry/manager.h"

#include "base/logging.h"

namespace lake::registry {

std::uint64_t
CaptureHandle::key(const std::string &feature) const
{
    LAKE_ASSERT(reg_ != nullptr, "key() on an unbound capture handle");
    std::uint64_t k = featureKey(feature);
    LAKE_ASSERT(reg_->schema().find(k) != nullptr,
                "%s/%s: interning undeclared feature '%s'",
                reg_->sys().c_str(), reg_->name().c_str(),
                feature.c_str());
    return k;
}

std::uint32_t
CaptureHandle::column(const std::string &feature) const
{
    LAKE_ASSERT(reg_ != nullptr, "column() on an unbound capture handle");
    std::uint32_t col = reg_->schema().columnOf(featureKey(feature));
    LAKE_ASSERT(col != Schema::kNoColumn,
                "%s/%s: interning undeclared feature '%s'",
                reg_->sys().c_str(), reg_->name().c_str(),
                feature.c_str());
    return col;
}

RegistryManager::~RegistryManager() = default;

Status
RegistryManager::createRegistry(const std::string &name,
                                const std::string &sys, Schema schema,
                                std::size_t window)
{
    auto key = std::make_pair(name, sys);
    std::lock_guard<std::mutex> lock(reg_mu_);
    if (registries_.count(key)) {
        return Status(Code::AlreadyExists,
                      "registry " + sys + "/" + name + " exists");
    }
    auto store =
        SoaStore::create(std::move(schema), window, soa_cfg_, arena_);
    if (store == nullptr) {
        return Status(Code::ResourceExhausted,
                      "registry " + sys + "/" + name +
                          ": shm arena cannot fit its column store");
    }
    registries_.emplace(key, std::make_unique<Registry>(name, sys,
                                                        std::move(store)));
    return Status::ok();
}

Status
RegistryManager::destroyRegistry(const std::string &name,
                                 const std::string &sys)
{
    // Unlink under reg_mu_ first: a submit() racing this holds reg_mu_
    // across lookup + enqueue, so it either enqueued before we got the
    // lock (failPending below fails it) or finds nothing. The object
    // stays alive in `doomed` until failPending has waited out any
    // in-flight flush still dispatching through it.
    std::unique_ptr<Registry> doomed;
    {
        std::lock_guard<std::mutex> lock(reg_mu_);
        auto it = registries_.find(std::make_pair(name, sys));
        if (it == registries_.end()) {
            return Status(Code::NotFound,
                          "no registry " + sys + "/" + name);
        }
        doomed = std::move(it->second);
        registries_.erase(it);
    }
    if (scorer_)
        scorer_->failPending(name, sys);
    return Status::ok();
}

CaptureHandle
RegistryManager::captureHandle(const std::string &name,
                               const std::string &sys)
{
    return CaptureHandle(find(name, sys));
}

Status
RegistryManager::enableScoring(ScoringConfig cfg)
{
    if (scorer_)
        return Status(Code::AlreadyExists, "scoring service already enabled");
    scorer_ = std::make_unique<ScoreServer>(*this, clock_, cfg);
    return Status::ok();
}

void
RegistryManager::disableScoring()
{
    scorer_.reset();
}

Registry *
RegistryManager::find(const std::string &name, const std::string &sys)
{
    std::lock_guard<std::mutex> lock(reg_mu_);
    return findLocked(name, sys);
}

Registry *
RegistryManager::findLocked(const std::string &name, const std::string &sys)
{
    // Reference-pair probe: the transparent comparator spares the hot
    // paths (every async submit routes through here) a string copy.
    auto it = registries_.find(
        std::pair<const std::string &, const std::string &>(name, sys));
    return it == registries_.end() ? nullptr : it->second.get();
}

namespace {

Registry &
require(RegistryManager &m, const std::string &name, const std::string &sys)
{
    Registry *r = m.find(name, sys);
    if (r == nullptr)
        fatal("no registry %s/%s", sys.c_str(), name.c_str());
    return *r;
}

} // namespace

Status
create_registry(RegistryManager &m, const std::string &name,
                const std::string &sys, Schema schema, std::size_t window)
{
    return m.createRegistry(name, sys, std::move(schema), window);
}

Status
destroy_registry(RegistryManager &m, const std::string &name,
                 const std::string &sys)
{
    return m.destroyRegistry(name, sys);
}

Status
create_model(RegistryManager &m, const std::string &, const std::string &,
             const std::string &path)
{
    return m.models().createModel(path);
}

Status
update_model(RegistryManager &m, const std::string &, const std::string &,
             const std::string &path, std::vector<std::uint8_t> blob)
{
    return m.models().updateModel(path, std::move(blob));
}

Status
load_model(RegistryManager &m, const std::string &, const std::string &,
           const std::string &path)
{
    return m.models().loadModel(path);
}

Status
delete_model(RegistryManager &m, const std::string &, const std::string &,
             const std::string &path)
{
    return m.models().deleteModel(path);
}

Status
register_classifier(RegistryManager &m, const std::string &name,
                    const std::string &sys, Classifier fn, Arch arch)
{
    return require(m, name, sys).registerClassifier(arch, std::move(fn));
}

void
register_policy(RegistryManager &m, const std::string &name,
                const std::string &sys,
                std::unique_ptr<policy::ExecPolicy> p)
{
    require(m, name, sys).registerPolicy(std::move(p));
}

std::vector<float>
score_features(RegistryManager &m, const std::string &name,
               const std::string &sys,
               const std::vector<FeatureVector> &fvs, Nanos now)
{
    Registry &reg = require(m, name, sys);
    // With the async service up, serialize against its flushes: sync
    // and async scoring share the registry's policy and classifier
    // state, which the flush lock alone protects.
    if (ScoreServer *s = m.scorer())
        return s->scoreSync(reg, fvs, now);
    return reg.scoreFeatures(fvs, now);
}

Status
score_features_async(RegistryManager &m, const std::string &name,
                     const std::string &sys,
                     std::vector<FeatureVector> fvs, Nanos deadline,
                     ScoreCallback cb)
{
    if (ScoreServer *s = m.scorer())
        return s->submit(name, sys, std::move(fvs), deadline,
                         std::move(cb));

    // Scoring service off (the default): degrade to synchronous inline
    // scoring with the same admission errors the async path reports.
    if (fvs.empty())
        return Status(Code::InvalidArgument, "empty score batch");
    Registry *reg = m.find(name, sys);
    if (reg == nullptr)
        return Status(Code::InvalidArgument,
                      "no registry " + sys + "/" + name);
    if (!reg->hasClassifier(Arch::Cpu))
        return Status(Code::InvalidArgument,
                      sys + "/" + name + " has no CPU classifier");

    Nanos now = m.clock().now();
    ScoreResult res;
    res.enqueued = now;
    res.scores = reg->scoreFeatures(fvs, now);
    res.scored = m.clock().now();
    res.engine = reg->lastEngine();
    res.batch = fvs.size();
    res.status = Status::ok();
    if (cb)
        cb(res);
    return Status::ok();
}

std::vector<FeatureVector>
get_features(RegistryManager &m, const std::string &name,
             const std::string &sys, std::optional<Nanos> ts)
{
    return require(m, name, sys).getFeatures(ts);
}

void
begin_fv_capture(RegistryManager &m, const std::string &name,
                 const std::string &sys, Nanos ts)
{
    require(m, name, sys).beginFvCapture(ts);
}

void
capture_feature(RegistryManager &m, const std::string &name,
                const std::string &sys, const std::string &key,
                std::uint64_t val)
{
    require(m, name, sys).captureFeature(key, val);
}

void
capture_feature_incr(RegistryManager &m, const std::string &name,
                     const std::string &sys, const std::string &key,
                     std::int64_t incrval)
{
    require(m, name, sys).captureFeatureIncr(key, incrval);
}

void
commit_fv_capture(RegistryManager &m, const std::string &name,
                  const std::string &sys, Nanos ts)
{
    require(m, name, sys).commitFvCapture(ts);
}

void
truncate_features(RegistryManager &m, const std::string &name,
                  const std::string &sys, std::optional<Nanos> ts)
{
    require(m, name, sys).truncateFeatures(ts);
}

CaptureHandle
capture_handle(RegistryManager &m, const std::string &name,
               const std::string &sys)
{
    return m.captureHandle(name, sys);
}

} // namespace lake::registry
