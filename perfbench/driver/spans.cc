#include "spans.h"

#include <cstdio>

namespace lake::perfbench {

namespace {

struct KindInfo
{
    const char *name;
    Layer layer;
};

constexpr KindInfo kKinds[] = {
    {"bench.timed", Layer::Bench},
    {"bench.event", Layer::Bench},
    {"bench.classifier", Layer::Bench},
    {"storage.submit", Layer::Storage},
    {"sim.run", Layer::Sim},
    {"registry.capture", Layer::Registry},
    {"registry.commit", Layer::Registry},
    {"registry.read", Layer::Registry},
    {"registry.score", Layer::Registry},
    {"registry.truncate", Layer::Registry},
    {"policy.decide", Layer::Policy},
    {"serve.offer", Layer::Serve},
    {"serve.pump", Layer::Serve},
    {"serve.drain", Layer::Serve},
    {"ml.featurize", Layer::Ml},
    {"ml.cpu_classify", Layer::Ml},
    {"ml.gpu_classify", Layer::Ml},
    {"remote.route", Layer::Remote},
    {"crypto.encrypt", Layer::Crypto},
    {"crypto.decrypt", Layer::Crypto},
    {"fs.write", Layer::Fs},
    {"fs.read", Layer::Fs},
};
static_assert(sizeof(kKinds) / sizeof(kKinds[0]) ==
                  static_cast<std::size_t>(Kind::Count),
              "every span kind needs a name and a layer");

constexpr const char *kLayerNames[] = {
    "bench", "storage", "sim", "registry", "policy",
    "serve", "ml",      "remote", "crypto", "fs",
};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
                  static_cast<std::size_t>(Layer::Count),
              "every layer needs a name");

} // namespace

const char *
kindName(Kind k)
{
    return kKinds[static_cast<std::size_t>(k)].name;
}

Layer
kindLayer(Kind k)
{
    return kKinds[static_cast<std::size_t>(k)].layer;
}

const char *
layerName(Layer l)
{
    return kLayerNames[static_cast<std::size_t>(l)];
}

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Tracer(std::size_t keep) : keep_(keep), epoch_(hostNow())
{
    setVirtualClock(nullptr);
    stack_.reserve(64);
    kept_.reserve(keep_);
}

void
Tracer::setVirtualClock(std::function<Nanos()> vnow)
{
    vnow_ = vnow ? std::move(vnow) : [] { return Nanos{0}; };
}

void
Tracer::begin(Kind k, std::uint32_t req)
{
    Open o;
    o.kind = k;
    o.kept = kNone;
    if (kept_.size() < keep_) {
        o.kept = static_cast<std::uint32_t>(kept_.size());
        kept_.push_back(Record{k, req,
                               stack_.empty() ? kNone : stack_.back().kept,
                               0, 0, 0, 0});
    }
    o.v0 = vnow_();
    o.h0 = hostNow();
    stack_.push_back(o);
}

void
Tracer::end()
{
    std::int64_t h1 = hostNow();
    Nanos v1 = vnow_();
    Open o = stack_.back();
    stack_.pop_back();
    std::int64_t dh = h1 - o.h0;
    Nanos dv = v1 - o.v0;
    KindStat &s = stats_[static_cast<std::size_t>(o.kind)];
    ++s.count;
    s.total_host += dh;
    s.self_host += dh - o.child_host;
    s.total_v += dv;
    s.self_v += dv - o.child_v;
    if (!stack_.empty()) {
        stack_.back().child_host += dh;
        stack_.back().child_v += dv;
    }
    if (o.kept != kNone) {
        Record &r = kept_[o.kept];
        r.h0 = o.h0 - epoch_;
        r.h1 = h1 - epoch_;
        r.v0 = o.v0;
        r.v1 = v1;
    }
}

void
Tracer::addVectors(std::size_t n)
{
    if (!stack_.empty())
        stats_[static_cast<std::size_t>(stack_.back().kind)].vec += n;
}

std::int64_t
Tracer::layerSelfHost(Layer l) const
{
    std::int64_t sum = 0;
    for (std::size_t k = 0; k < static_cast<std::size_t>(Kind::Count); ++k)
        if (kindLayer(static_cast<Kind>(k)) == l)
            sum += stats_[k].self_host;
    return sum;
}

Nanos
Tracer::layerSelfV(Layer l) const
{
    Nanos sum = 0;
    for (std::size_t k = 0; k < static_cast<std::size_t>(Kind::Count); ++k)
        if (kindLayer(static_cast<Kind>(k)) == l)
            sum += stats_[k].self_v;
    return sum;
}

bool
Tracer::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fprintf(f, "id,name,layer,parent,request,host_start_ns,"
                              "host_end_ns,virtual_start_ns,"
                              "virtual_end_ns\n") > 0;
    for (std::size_t i = 0; ok && i < kept_.size(); ++i) {
        const Record &r = kept_[i];
        long long parent =
            r.parent == kNone ? -1LL : static_cast<long long>(r.parent);
        ok = std::fprintf(f, "%zu,%s,%s,%lld,%u,%lld,%lld,%lld,%lld\n", i,
                          kindName(r.kind), layerName(kindLayer(r.kind)),
                          parent, r.req, static_cast<long long>(r.h0),
                          static_cast<long long>(r.h1),
                          static_cast<long long>(r.v0),
                          static_cast<long long>(r.v1)) > 0;
    }
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace lake::perfbench
