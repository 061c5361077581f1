// Open-loop SLO benchmark of the multi-tenant serving front end
// (serve::TrafficGenerator, DESIGN.md §11).
//
// Hundreds of simulated tenants offer Poisson traffic at a sweep of
// load points (0.5x .. 2.0x of the calibrated classifier capacity)
// against four registry shards behind the coalescing ScoreServer; a
// trace-driven arm adds a 10x-hot tenant at saturation to show the
// token bucket + DRR clamping it to a fair share. Every run emits a
// serve_slo_<tag>_summary.json (p50/p99/p999 latency, goodput, reject
// rate) and a serve_slo_<tag>_timeseries.csv (queue depth and
// utilization over virtual time); the sweep lands in
// BENCH_serving.json with provenance.
//
// The smoke gates are behavioral, not speed: conservation (every
// arrival accounted exactly once), admission/shedding engaging at
// overload and staying out of the way below capacity, and per-tenant
// completion fairness at and past saturation — max/min <= 1.5x on the
// uniform arms, hot-tenant-over-median-cold <= 1.5x on the skew arm
// (the raw max/min there also counts Poisson starvation of the
// smallest cold tenant, which no scheduler can serve work it was
// never offered).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "bench_util.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "registry/manager.h"
#include "serve/serve.h"
#include "serve/traffic.h"
#include "storage/linnos.h"

using namespace lake;

namespace {

constexpr std::size_t kShards = 4;
constexpr const char *kSys = "serve_slo";

/** The serving stack of one run: shards + classifier + ScoreServer. */
struct Stack
{
    Clock clock;
    gpu::CpuSpec cpu_spec = gpu::CpuSpec::xeonGold6226R();
    ml::KernelCpu kernel_cpu{clock, cpu_spec};
    Rng model_rng{42};
    ml::Mlp model{ml::MlpConfig::linnos(), model_rng};
    ml::CpuMlp mlp{model, kernel_cpu};
    registry::RegistryManager mgr{clock};
    std::vector<std::string> shards;
    /** Virtual ns the classifier has executed (utilization probe). */
    Nanos busy = 0;

    bool
    init(registry::ScoringConfig scfg)
    {
        registry::Classifier classify =
            [this](const registry::FvBatchView &v) {
                std::vector<ml::MatrixView> x = v.matrixViews();
                Nanos t0 = clock.now();
                std::vector<int> c = mlp.classify(x);
                busy += clock.now() - t0;
                return std::vector<float>(c.begin(), c.end());
            };
        registry::Schema schema = storage::linnosSchema();
        for (std::size_t i = 0; i < kShards; ++i) {
            shards.push_back("shard" + std::to_string(i));
            if (!mgr.createRegistry(shards.back(), kSys, schema, 8)
                     .isOk())
                return false;
            registry::Registry *reg = mgr.find(shards.back(), kSys);
            // Requests arrive as caller-built vectors; the store's
            // LinnOS encoder turns them into the views' float rows.
            reg->soa().setFloatEncoder(storage::kLinnosFeatures,
                                       storage::encodeLinnosRow);
            if (!reg->registerClassifier(registry::Arch::Cpu, classify)
                     .isOk())
                return false;
        }
        scfg.enabled = true;
        return mgr.enableScoring(scfg).isOk();
    }
};

/** Result of one load point. */
struct RunResult
{
    std::string tag;
    double load = 0.0;
    double offered_rps = 0.0;
    Nanos duration = 0;
    serve::ServeSummary s;
    double fairness = 0.0;  //!< max/min per-tenant completions
    double hot_ratio = 0.0; //!< tenant 0 over median of the rest
    double mean_util = 0.0;
};

/**
 * Calibrates the per-vector virtual inference cost at the serving
 * batch size, so the sweep's load points are fractions of the actual
 * modeled capacity rather than magic numbers.
 */
double
calibrateCapacityRps(std::size_t batch)
{
    Stack st;
    if (!st.init({}))
        return 0.0;
    Rng rng(7);
    std::vector<registry::FeatureVector> fvs;
    for (std::size_t i = 0; i < batch; ++i)
        fvs.push_back(storage::randomLinnosRequest(rng, 0));
    registry::Registry *reg = st.mgr.find(st.shards[0], kSys);
    Nanos t0 = st.clock.now();
    reg->scoreFeatures(fvs, t0);
    Nanos per_vector = (st.clock.now() - t0) / batch;
    return per_vector == 0 ? 0.0 : 1e9 / static_cast<double>(per_vector);
}

/**
 * Writes a 10x-hot-tenant Poisson schedule as a serving trace file, so
 * the skew arm also exercises the trace-driven arrival path.
 */
bool
writeSkewTrace(const std::string &path, std::size_t tenants,
               double cold_rps, double hot_rps, Nanos duration)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# serve_slo skew arm: tenant 0 at %.0f rps, "
                    "others at %.0f rps\n",
                 hot_rps, cold_rps);
    using Event = std::pair<Nanos, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        heap;
    Rng rng(0x5eedull);
    auto gap = [&rng](double rps) {
        return static_cast<Nanos>(rng.exponential(1e9 / rps));
    };
    for (std::size_t t = 0; t < tenants; ++t)
        heap.push({gap(t == 0 ? hot_rps : cold_rps), t});
    while (!heap.empty() && heap.top().first < duration) {
        auto [at, tenant] = heap.top();
        heap.pop();
        std::fprintf(f, "%llu %zu\n",
                     static_cast<unsigned long long>(at / 1000), tenant);
        heap.push({at + gap(tenant == 0 ? hot_rps : cold_rps), tenant});
    }
    std::fclose(f);
    return true;
}

/** Emits serve_slo_<tag>_summary.json for one run. */
bool
writeRunSummary(const RunResult &r)
{
    bench::JsonWriter j;
    j.beginObject();
    j.key("run").value(r.tag.c_str());
    j.key("load").value(r.load);
    j.key("offered_rps").value(r.offered_rps);
    j.key("duration_ms").value(toMs(r.duration));
    j.key("arrivals").value(r.s.arrivals);
    j.key("admits").value(r.s.admits);
    j.key("bucket_rejects").value(r.s.bucket_rejects);
    j.key("queue_sheds").value(r.s.queue_sheds);
    j.key("backpressure").value(r.s.backpressure);
    j.key("completions").value(r.s.completions);
    j.key("failures").value(r.s.failures);
    j.key("p50_us").value(r.s.p50_us);
    j.key("p99_us").value(r.s.p99_us);
    j.key("p999_us").value(r.s.p999_us);
    j.key("goodput_rps").value(r.s.goodput_rps);
    j.key("reject_rate").value(r.s.reject_rate);
    j.key("tenant_fairness_maxmin").value(r.fairness);
    j.key("hot_over_median").value(r.hot_ratio);
    j.key("mean_utilization_pct").value(r.mean_util);
    j.endObject();
    return j.writeFile(("serve_slo_" + r.tag + "_summary.json").c_str());
}

/** Emits serve_slo_<tag>_timeseries.csv for one run. */
bool
writeRunTimeseries(const std::string &tag,
                   const std::vector<serve::ServeSample> &samples)
{
    std::string path = "serve_slo_" + tag + "_timeseries.csv";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "time_ms,queue_depth,server_pending,"
                    "utilization_pct,admits,completions,sheds\n");
    for (const serve::ServeSample &s : samples)
        std::fprintf(f, "%.3f,%zu,%zu,%.2f,%llu,%llu,%llu\n", toMs(s.at),
                     s.queue_depth, s.server_pending, s.utilization,
                     static_cast<unsigned long long>(s.admits),
                     static_cast<unsigned long long>(s.completions),
                     static_cast<unsigned long long>(s.sheds));
    std::fclose(f);
    return true;
}

/** Runs one load point; @p trace_path switches to trace arrivals. */
RunResult
runOne(const std::string &tag, double load, double capacity_rps,
       std::size_t tenants, std::size_t target_arrivals,
       const std::string &trace_path = "")
{
    RunResult r;
    r.tag = tag;
    r.load = load;
    r.offered_rps = load * capacity_rps;
    double seconds =
        static_cast<double>(target_arrivals) / r.offered_rps;
    r.duration = static_cast<Nanos>(seconds * 1e9);

    registry::ScoringConfig scfg;
    scfg.max_batch = 32;
    scfg.queue_capacity = 256;
    Stack st;
    if (!st.init(scfg)) {
        std::fprintf(stderr, "%s: stack init failed\n", tag.c_str());
        return r;
    }

    serve::ServeConfig cfg;
    cfg.enabled = true;
    cfg.tenants = tenants;
    cfg.rate_rps = r.offered_rps / static_cast<double>(tenants);
    cfg.seed = 0x1a4e + static_cast<std::uint64_t>(load * 1000.0);
    // Each tenant may admit 1.25x its fair share of *capacity*: below
    // saturation the bucket is invisible, past it the bucket carries
    // the first wave of rejection and the bounded queue the rest.
    cfg.bucket_rate = 1.25 * capacity_rps / static_cast<double>(tenants);
    cfg.bucket_burst = 8.0;
    cfg.queue_capacity = 32;
    cfg.drr_quantum = 4;
    cfg.pump_interval = 50_us;
    cfg.shards = kShards;
    cfg.trace_path = trace_path;
    cfg.applyEnv();

    serve::TrafficGenerator gen(st.mgr, st.clock, cfg, kSys, st.shards);
    Rng fv_rng(0xfeedull);
    gen.setRequestFactory([&fv_rng](std::size_t, Nanos now) {
        return storage::randomLinnosRequest(fv_rng, now);
    });

    // Utilization = classifier-busy share of each sample window.
    Nanos last_busy = 0, last_now = 0;
    gen.enableSampling(
        r.duration / 100, [&st, &last_busy, &last_now]() {
            Nanos now = st.clock.now();
            Nanos dbusy = st.busy - last_busy;
            Nanos dt = now - last_now;
            last_busy = st.busy;
            last_now = now;
            return dt == 0 ? 0.0
                           : 100.0 * static_cast<double>(dbusy) /
                                 static_cast<double>(dt);
        });

    gen.run(r.duration);
    r.s = gen.summary(r.duration);
    r.fairness = r.s.min_tenant_completions > 0.0
                     ? r.s.max_tenant_completions /
                           r.s.min_tenant_completions
                     : 0.0;
    {
        // Hot-tenant share: tenant 0 (the skew arm's hot tenant)
        // against the median of everyone else — the fairness claim
        // DRR + the bucket actually make under skewed offered load.
        const std::vector<serve::Tenant> &ts = gen.tenantStates();
        std::vector<double> comps;
        for (std::size_t i = 1; i < ts.size(); ++i)
            comps.push_back(static_cast<double>(ts[i].completions));
        std::sort(comps.begin(), comps.end());
        double median = comps.empty() ? 0.0 : comps[comps.size() / 2];
        r.hot_ratio =
            median > 0.0
                ? static_cast<double>(ts[0].completions) / median
                : 0.0;
    }
    r.mean_util = r.duration == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(st.busy) /
                            static_cast<double>(st.clock.now());
    if (!writeRunSummary(r))
        std::fprintf(stderr, "%s: cannot write summary\n", tag.c_str());
    if (!writeRunTimeseries(tag, gen.timeseries()))
        std::fprintf(stderr, "%s: cannot write timeseries\n",
                     tag.c_str());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    const char *out_path = "BENCH_serving.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
        else
            out_path = argv[i];
    }

    std::size_t tenants = smoke ? 40 : 200;
    const std::size_t target_arrivals = smoke ? 15000 : 150000;
    {
        // Honor LAKE_SERVE_TENANTS sweep-wide: the per-tenant rate
        // math and the generated skew trace must agree with the count
        // runOne's own applyEnv() will land on, or the trace names
        // tenants that do not exist.
        serve::ServeConfig probe;
        probe.tenants = tenants;
        probe.applyEnv();
        tenants = probe.tenants;
    }

    bench::banner("BENCH serving",
                  "open-loop multi-tenant SLO sweep: token-bucket "
                  "admission + DRR dispatch over the coalescing "
                  "ScoreServer (LinnOS MLP, 4 shards)");

    double capacity_rps = calibrateCapacityRps(32);
    if (capacity_rps <= 0.0) {
        std::fprintf(stderr, "capacity calibration failed\n");
        return 1;
    }
    std::printf("calibrated capacity %.0f vectors/sec (virtual, "
                "batch-32 CPU inference)\n\n",
                capacity_rps);

    const double loads[] = {0.5, 0.8, 1.2, 2.0};
    std::vector<RunResult> runs;
    for (double load : loads)
        runs.push_back(runOne("load" + std::to_string(load).substr(0, 3),
                              load, capacity_rps, tenants,
                              target_arrivals));

    // Skew arm: tenant 0 offers 10x a cold tenant's rate, total load
    // ~1.2x capacity, arrivals from a generated trace file.
    {
        double load = 1.2;
        double offered = load * capacity_rps;
        double cold = offered / (static_cast<double>(tenants) + 9.0);
        double hot = 10.0 * cold;
        double seconds = static_cast<double>(target_arrivals) / offered;
        if (!writeSkewTrace("serve_slo_skew.trace", tenants, cold, hot,
                            static_cast<Nanos>(seconds * 1e9))) {
            std::fprintf(stderr, "cannot write skew trace\n");
            return 1;
        }
        runs.push_back(runOne("skew", load, capacity_rps, tenants,
                              target_arrivals, "serve_slo_skew.trace"));
    }

    std::printf("%-8s %10s %10s %10s %10s %10s %8s %8s %8s %9s\n",
                "run", "offered/s", "goodput/s", "p50 us", "p99 us",
                "p999 us", "reject", "maxmin", "hot/med", "util %");
    for (const RunResult &r : runs)
        std::printf("%-8s %10.0f %10.0f %10.1f %10.1f %10.1f %7.1f%% "
                    "%8.2f %8.2f %9.1f\n",
                    r.tag.c_str(), r.offered_rps, r.s.goodput_rps,
                    r.s.p50_us, r.s.p99_us, r.s.p999_us,
                    100.0 * r.s.reject_rate, r.fairness, r.hot_ratio,
                    r.mean_util);
    bench::expectation(
        "below capacity goodput tracks offered load with flat p99; "
        "past capacity goodput plateaus at the calibrated ceiling "
        "while the token bucket and bounded queues shed the excess, "
        "and DRR keeps per-tenant completions within 1.5x even "
        "against a 10x-hot tenant");

    bench::JsonWriter j;
    j.beginObject();
    j.key("bench").value("serve_slo");
    j.key("smoke").value(smoke ? "true" : "false");
    j.key("config").beginObject();
    j.key("tenants").value(tenants);
    j.key("shards").value(kShards);
    j.key("target_arrivals").value(target_arrivals);
    j.key("capacity_rps").value(capacity_rps);
    j.key("max_batch").value(static_cast<std::size_t>(32));
    j.key("queue_capacity").value(static_cast<std::size_t>(32));
    j.key("bucket_fair_multiple").value(1.25);
    j.endObject();
    j.key("runs").beginArray();
    for (const RunResult &r : runs) {
        j.beginObject();
        j.key("run").value(r.tag.c_str());
        j.key("load").value(r.load);
        j.key("offered_rps").value(r.offered_rps);
        j.key("arrivals").value(r.s.arrivals);
        j.key("completions").value(r.s.completions);
        j.key("goodput_rps").value(r.s.goodput_rps);
        j.key("p50_us").value(r.s.p50_us);
        j.key("p99_us").value(r.s.p99_us);
        j.key("p999_us").value(r.s.p999_us);
        j.key("reject_rate").value(r.s.reject_rate);
        j.key("bucket_rejects").value(r.s.bucket_rejects);
        j.key("queue_sheds").value(r.s.queue_sheds);
        j.key("backpressure").value(r.s.backpressure);
        j.key("tenant_fairness_maxmin").value(r.fairness);
        j.key("hot_over_median").value(r.hot_ratio);
        j.key("mean_utilization_pct").value(r.mean_util);
        j.endObject();
    }
    j.endArray();
    bench::provenance(j);
    j.endObject();
    if (!j.writeFile(out_path)) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::printf("wrote %s\n", out_path);

    // Behavioral gates (the smoke run's pass criteria).
    bool ok = true;
    for (const RunResult &r : runs) {
        // shed_oldest mode: every arrival is either bucket-rejected or
        // admitted, and every admit ends exactly one of completed /
        // failed / shed-for-a-newer-request / still queued.
        if (r.s.arrivals != r.s.admits + r.s.bucket_rejects ||
            r.s.admits != r.s.completions + r.s.failures +
                              r.s.queue_sheds + r.s.queued_residual) {
            std::fprintf(stderr, "FAIL %s: conservation broken\n",
                         r.tag.c_str());
            ok = false;
        }
        if (r.s.completions == 0) {
            std::fprintf(stderr, "FAIL %s: no completions\n",
                         r.tag.c_str());
            ok = false;
        }
    }
    // Below capacity nothing should be refused...
    if (runs[0].s.reject_rate > 0.01) {
        std::fprintf(stderr,
                     "FAIL load0.5: %.1f%% rejected below capacity\n",
                     100.0 * runs[0].s.reject_rate);
        ok = false;
    }
    // ...past capacity admission control and shedding must engage.
    const RunResult &over = runs[3];
    if (over.s.bucket_rejects == 0 || over.s.queue_sheds == 0 ||
        over.s.reject_rate < 0.2) {
        std::fprintf(stderr,
                     "FAIL load2.0: overload did not shed "
                     "(rejects=%llu sheds=%llu rate=%.2f)\n",
                     static_cast<unsigned long long>(
                         over.s.bucket_rejects),
                     static_cast<unsigned long long>(over.s.queue_sheds),
                     over.s.reject_rate);
        ok = false;
    }
    // Fairness at and past saturation: max/min on the uniform arms...
    for (std::size_t i : {std::size_t{2}, std::size_t{3}}) {
        if (runs[i].fairness > 1.5 || runs[i].fairness == 0.0) {
            std::fprintf(stderr, "FAIL %s: tenant max/min %.2f\n",
                         runs[i].tag.c_str(), runs[i].fairness);
            ok = false;
        }
    }
    // ...and hot-over-median-cold on the skew arm, where the raw
    // max/min also counts the Poisson-starved smallest cold tenant.
    const RunResult &skew = runs.back();
    if (skew.hot_ratio > 1.5 || skew.hot_ratio == 0.0) {
        std::fprintf(stderr,
                     "FAIL %s: hot tenant %.2fx the median cold "
                     "tenant\n",
                     skew.tag.c_str(), skew.hot_ratio);
        ok = false;
    }
    return ok ? 0 : 1;
}
