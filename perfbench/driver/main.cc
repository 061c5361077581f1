// The LAKE benchmark driver: runs one workload for a host-time budget
// and prints one JSON line with everything perfbench/run.py needs.
//
//   lake_perfbench --workload linnos_io --seed 1 --seconds 10 --trace 0
//       --param duration_ms=3000 --param iops_scale=3 ...
//
// The run's inputs are --rounds fixed rounds, round i drawing its inputs
// from seed * rounds + i. Every round sets the workload up from scratch,
// runs its input once (the timed phase) and checks the outputs. The
// virtual-time results pool the latency samples and virtual work of
// those rounds; host time keeps cycling through the rounds until
// --seconds have passed, and every repeat must reproduce its round's
// virtual-time results exactly. With --trace 1 only round 0 runs
// untraced; traced rounds follow from round 0 on, which gives the
// per-layer budget and checks that tracing does not perturb the
// modelled system.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/stats.h"
#include "core/lake.h"
#include "workload.h"

#ifndef LAKE_PERFBENCH_BUILD_TYPE
#define LAKE_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LAKE_PERFBENCH_FLAGS
#define LAKE_PERFBENCH_FLAGS "unknown"
#endif

namespace lake::perfbench {

double
Params::num(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        fatal("missing workload parameter '%s'", name.c_str());
    return it->second;
}

std::size_t
Params::count(const std::string &name) const
{
    double v = num(name);
    if (v < 0 || v != std::floor(v))
        fatal("parameter '%s' must be a whole number, got %g", name.c_str(),
              v);
    return static_cast<std::size_t>(v);
}

std::uint64_t
Params::u64(const std::string &name) const
{
    return static_cast<std::uint64_t>(count(name));
}

void
addLayerShares(const Tracer &tr, double ops, std::map<std::string, double> &out)
{
    const double timed =
        static_cast<double>(tr.stat(Kind::Timed).total_host);
    for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::Count); ++l) {
        Layer layer = static_cast<Layer>(l);
        double self = static_cast<double>(tr.layerSelfHost(layer));
        if (layer == Layer::Bench) {
            out["bench.unattributed_host_share"] = perOp(self, timed);
            continue;
        }
        std::string name = layerName(layer);
        out[name + ".host_share"] = perOp(self, timed);
        out[name + ".self_v_ns_per_op"] =
            perOp(static_cast<double>(tr.layerSelfV(layer)), ops);
    }
    const KindStat &feat = tr.stat(Kind::MlFeaturize);
    const KindStat &cpu = tr.stat(Kind::MlCpuClassify);
    const KindStat &gpu = tr.stat(Kind::MlGpuClassify);
    const KindStat &pol = tr.stat(Kind::PolicyDecide);
    out["ml.featurize_host_ns_per_vec"] =
        perOp(static_cast<double>(feat.total_host), static_cast<double>(feat.vec));
    out["ml.cpu_classify_host_ns_per_vec"] =
        perOp(static_cast<double>(cpu.total_host), static_cast<double>(cpu.vec));
    out["ml.cpu_classify_v_ns_per_vec"] =
        perOp(static_cast<double>(cpu.total_v), static_cast<double>(cpu.vec));
    out["ml.gpu_classify_host_us_per_batch"] =
        perOp(static_cast<double>(gpu.total_host) / 1e3,
              static_cast<double>(gpu.count));
    out["ml.gpu_classify_v_us_per_batch"] =
        perOp(static_cast<double>(gpu.total_v) / 1e3,
              static_cast<double>(gpu.count));
    out["policy.decide_host_ns"] =
        perOp(static_cast<double>(pol.total_host), static_cast<double>(pol.count));
    out["policy.decide_v_ns"] =
        perOp(static_cast<double>(pol.total_v), static_cast<double>(pol.count));
}

namespace {

/** Minimal JSON emitter for one flat-ish result object. */
class Json
{
  public:
    Json &open() { sep(); s_ += '{'; first_ = true; return *this; }
    Json &close() { s_ += '}'; first_ = false; return *this; }
    Json &openArray() { sep(); s_ += '['; first_ = true; return *this; }
    Json &closeArray() { s_ += ']'; first_ = false; return *this; }
    Json &key(const std::string &k) { sep(); str(k); s_ += ':'; first_ = true; return *this; }
    Json &num(double v)
    {
        sep();
        char buf[40];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        else
            std::snprintf(buf, sizeof(buf), "null");
        s_ += buf;
        return *this;
    }
    Json &text(const std::string &v) { sep(); str(v); return *this; }
    Json &map(const std::map<std::string, double> &m)
    {
        open();
        for (const auto &[k, v] : m)
            key(k).num(v);
        return close();
    }
    const std::string &str() const { return s_; }

  private:
    void sep()
    {
        if (!first_)
            s_ += ',';
        first_ = false;
    }
    void str(const std::string &v)
    {
        s_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                s_ += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                c = ' ';
            s_ += c;
        }
        s_ += '"';
    }

    std::string s_;
    bool first_ = true;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool verify_only = false;
    std::size_t rounds = 1;
    std::string spans_out;
    Params params;
};

Args
parse(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        if (f == "--verify-only") {
            a.verify_only = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("flag %s needs a value", f.c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (f == "--workload") {
            a.workload = v;
        } else if (f == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
        } else if (f == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (f == "--trace") {
            a.trace = v == "1";
        } else if (f == "--rounds") {
            a.rounds = std::strtoull(v.c_str(), &end, 10);
            if (a.rounds == 0)
                fatal("--rounds must be positive");
        } else if (f == "--spans-out") {
            a.spans_out = v;
        } else if (f == "--param") {
            std::size_t eq = v.find('=');
            if (eq == std::string::npos)
                fatal("--param wants name=value, got '%s'", v.c_str());
            std::string val = v.substr(eq + 1);
            double d = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0')
                fatal("--param %s is not a number", v.c_str());
            a.params.set(v.substr(0, eq), d);
        } else {
            fatal("unknown flag %s", f.c_str());
        }
    }
    if (a.workload.empty() || !have_seed)
        fatal("usage: lake_perfbench --workload NAME --seed N --seconds S "
              "--trace 0|1 [--param name=value]...");
    return a;
}

std::unique_ptr<Workload>
make(const Args &a)
{
    if (a.workload == "linnos_io")
        return makeLinnosIo(a.params);
    if (a.workload == "fleet_serve")
        return makeFleetServe(a.params);
    if (a.workload == "ecryptfs_bulk")
        return makeEcryptfsBulk(a.params);
    fatal("unknown workload '%s'", a.workload.c_str());
}

} // namespace

int
run(int argc, char **argv)
{
    Args a = parse(argc, argv);
    std::unique_ptr<Workload> w = make(a);

    // Untraced rounds with distinct inputs; their results are pooled.
    const std::size_t rounds = a.verify_only || a.trace ? 1 : a.rounds;
    double start = hostSeconds();
    const double prepare_s = w->prepare();

    std::vector<RepOutput> reps;
    std::vector<bool> traced;
    std::vector<std::size_t> input; // round index of each rep's inputs
    std::unique_ptr<Tracer> last_tracer;
    for (std::size_t i = 0;; ++i) {
        bool trace_this = a.trace && i >= rounds;
        input.push_back(trace_this ? (i - rounds) % a.rounds : i % rounds);
        std::unique_ptr<Tracer> tr;
        if (trace_this)
            tr = std::make_unique<Tracer>(200000);
        reps.push_back(w->rep(a.seed * a.rounds + input.back(), tr.get()));
        traced.push_back(trace_this);
        if (tr) {
            tr->setVirtualClock(nullptr); // the workload's clocks are gone
            last_tracer = std::move(tr);
        }
        bool enough = i + 1 >= rounds + (a.trace ? 1 : 0);
        if (enough && (a.verify_only || hostSeconds() - start >= a.seconds))
            break;
    }

    std::vector<std::string> errors;
    std::map<std::size_t, std::size_t> first_of; // inputs -> first rep
    for (std::size_t i = 0; i < reps.size(); ++i) {
        for (const std::string &e : reps[i].errors)
            errors.push_back("round " + std::to_string(i) + ": " + e);
        auto [it, fresh] = first_of.emplace(input[i], i);
        if (!fresh && reps[i].v != reps[it->second].v)
            errors.push_back("round " + std::to_string(i) +
                             (traced[i] ? " (traced)" : "") +
                             ": virtual-time results differ from the "
                             "first run of its inputs");
    }
    if (!a.verify_only)
        w->crossCheck(a.seed * a.rounds, reps[0], errors);

    // Pooled virtual-time results of the fixed rounds.
    std::map<std::string, double> pooled, samples;
    PercentileTracker lat;
    double v_ops = 0.0, v_seconds = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < rounds; ++i) {
        for (double x : reps[i].lat_us)
            lat.add(x);
        v_ops += reps[i].v_ops;
        v_seconds += reps[i].v_seconds;
        attempted += reps[i].attempted;
        failed += reps[i].failed;
    }
    double lat_samples = static_cast<double>(lat.count());
    pooled["v_lat_p50_us"] = lat.percentile(50.0);
    pooled["v_lat_p99_us"] = lat.percentile(99.0);
    if (lat.count() == 0 && rounds == 1 &&
        reps[0].v.count("v_lat_p99_us") != 0) {
        // A workload without raw samples reports one round's
        // percentiles (only valid unpooled).
        pooled["v_lat_p50_us"] = reps[0].v.at("v_lat_p50_us");
        pooled["v_lat_p99_us"] = reps[0].v.at("v_lat_p99_us");
        lat_samples = reps[0].v.at("lat_samples");
    } else if (lat.count() == 0) {
        errors.push_back("no latency samples");
    }
    pooled["v_ops_per_s"] = perOp(v_ops, v_seconds);
    samples["v_lat_p50_us"] = lat_samples;
    samples["v_lat_p99_us"] = lat_samples;
    samples["v_ops_per_s"] = v_ops;
    if (last_tracer && !a.spans_out.empty() &&
        !last_tracer->writeCsv(a.spans_out))
        errors.push_back("cannot write spans to " + a.spans_out);

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);

    Json j;
    j.open();
    j.key("workload").text(a.workload);
    j.key("seed").num(static_cast<double>(a.seed));
    j.key("trace").num(a.trace ? 1 : 0);
    j.key("errors").openArray();
    for (const std::string &e : errors)
        j.text(e);
    j.closeArray();
    j.key("attempted").num(static_cast<double>(attempted));
    j.key("failed").num(static_cast<double>(failed));
    j.key("rounds").num(static_cast<double>(rounds));
    j.key("v").map(pooled);
    j.key("samples").map(samples);
    j.key("v_round0").map(reps[0].v);
    j.key("prepare_s").num(prepare_s);
    j.key("reps").openArray();
    for (std::size_t i = 0; i < reps.size(); ++i) {
        j.open();
        j.key("traced").num(traced[i] ? 1 : 0);
        j.key("setup_s").num(reps[i].setup_s);
        j.key("timed_s").num(reps[i].timed_s);

        j.key("ops").num(reps[i].ops);
        j.key("layer").map(reps[i].layer);
        j.close();
    }
    j.closeArray();
    j.key("peak_rss_mb").num(static_cast<double>(ru.ru_maxrss) / 1024.0);
    j.key("provenance").open();
    j.key("compiler").text(__VERSION__);
    j.key("build_type").text(LAKE_PERFBENCH_BUILD_TYPE);
    j.key("flags").text(LAKE_PERFBENCH_FLAGS);
    const char *threads = std::getenv("LAKE_CPU_THREADS");
    j.key("lake_cpu_threads").text(threads && *threads ? threads : "default");
    j.key("hardware_concurrency")
        .num(static_cast<double>(std::thread::hardware_concurrency()));
    j.close();
    // The implementation-choice flags stay at their LakeConfig defaults;
    // record them so a changed default shows up next to the numbers.
    const core::LakeConfig defaults;
    j.key("lake_config_defaults").open();
    j.key("channel").text(channel::kindName(defaults.channel));
    j.key("shm_bytes").num(static_cast<double>(defaults.shm_bytes));
    j.key("pipeline").num(defaults.pipeline.enabled ? 1 : 0);
    j.key("streaming").num(defaults.streaming.enabled ? 1 : 0);
    j.key("soa_plane").num(defaults.soa_plane.enabled ? 1 : 0);
    j.key("scoring").num(defaults.scoring.enabled ? 1 : 0);
    j.key("fleet").num(defaults.fleet.enabled ? 1 : 0);
    j.close();
    j.key("params").map(a.params.all());
    j.close();
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace lake::perfbench

int
main(int argc, char **argv)
{
    return lake::perfbench::run(argc, argv);
}
