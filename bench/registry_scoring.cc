// Host-time benchmark of the registry's scoring paths: per-call
// synchronous scoring against the async batched scoring service
// (registry::ScoreServer, DESIGN.md §7) — the Fig. 3 profitability
// argument applied to the registry itself.
//
// Four same-subsystem registries (the case study's per-device layout)
// share one LinnOS MLP behind one classifier over float windows, and
// every arm's timed loop runs the complete capture→commit→score data
// path an instrumentation site pays, over the same column stores
// (DESIGN.md §12). The arms differ only in dispatch shape and payload
// (the vector arms' rows reach the classifier borrowed, encoded by the
// store's LinnOS encoder at score time):
//
//  - sync-vector: commit, read the committed vector back
//    (getFeatures(ts)) and call scoreFeatures per vector — every I/O
//    pays a full batch-1 classifier dispatch;
//  - async-vector: the same commit and read, submitted through the
//    ScoreServer, which coalesces across the registries into
//    max_batch-deep dispatches on the ThreadPool-parallel GEMM
//    substrate;
//  - async-view: submitView() of the pinned committed slot, whose
//    seal-time LinnOS float row reaches the GEMM substrate as a
//    strided MatrixView — no per-vector gather, no per-flush pack.
//
// Throughput is host-measured; the queue latency each vector paid for
// its batching win is virtual-time exact. A metrics-instrumented
// ablation then isolates the pack cost (bytes staged per scored
// vector, vector vs view payload) and the capture cost per feature.
//
// All arms classify identical vectors with the same model, so the
// bench also cross-checks the scatter: every async score must equal
// the sync score of the same vector, and every vector must be scored
// exactly once. Results land in BENCH_scoring.json with provenance;
// --smoke shrinks the run for CI.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "base/time.h"
#include "bench_util.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "registry/manager.h"
#include "registry/scoreserver.h"
#include "storage/linnos.h"

using namespace lake;

namespace {

constexpr std::size_t kDevices = 4;
constexpr const char *kSys = "bio_latency_prediction";

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    const char *out_path = "BENCH_scoring.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
        else
            out_path = argv[i];
    }

    const std::size_t vectors = smoke ? 2000 : 20000;
    const std::size_t max_batch = 64;

    bench::banner("BENCH scoring",
                  "async coalesced ScoreServer vs per-call sync "
                  "registry inference (LinnOS MLP, 4 registries)");

    Clock clock;
    gpu::CpuSpec cpu_spec = gpu::CpuSpec::xeonGold6226R();
    ml::KernelCpu kernel_cpu(clock, cpu_spec);
    Rng model_rng(42);
    ml::Mlp model(ml::MlpConfig::linnos(), model_rng);
    ml::CpuMlp mlp(model, kernel_cpu);

    // Every async-view request pins its slot until its batch flushes,
    // so the stores need spare slots for two max_batch groups in
    // flight on top of the window.
    registry::SoaConfig soa_cfg;
    soa_cfg.slack = max_batch * 2;
    soa_cfg.applyEnv();
    registry::RegistryManager mgr(clock, nullptr, soa_cfg);
    registry::Classifier classify = [&mlp](const registry::FvBatchView &v) {
        std::vector<int> c = mlp.classify(v.matrixViews());
        return std::vector<float>(c.begin(), c.end());
    };
    std::vector<std::string> names;
    std::vector<registry::Registry *> regs;
    std::vector<registry::CaptureHandle> caps;
    for (std::size_t d = 0; d < kDevices; ++d) {
        names.push_back("nvme" + std::to_string(d));
        Status st =
            mgr.createRegistry(names[d], kSys, storage::linnosSchema(), 8);
        if (!st.isOk()) {
            std::fprintf(stderr, "createRegistry: %s\n",
                         st.toString().c_str());
            return 1;
        }
        registry::Registry *reg = mgr.find(names[d], kSys);
        // The LinnOS encoder runs once per commit for the view arm,
        // and once per scored vector for the vector arms' borrowed
        // rows.
        reg->soa().setFloatEncoder(storage::kLinnosFeatures,
                                   storage::encodeLinnosRow);
        st = reg->registerClassifier(registry::Arch::Cpu, classify);
        if (!st.isOk()) {
            std::fprintf(stderr, "registerClassifier: %s\n",
                         st.toString().c_str());
            return 1;
        }
        regs.push_back(reg);
        caps.push_back(mgr.captureHandle(names[d], kSys));
        caps[d].beginFvCapture(0);
    }

    // One simulated I/O completion: schema column 0 is pend_ios,
    // 1..4 the latency history, so a fixed seed replays the identical
    // vector stream through every arm and scores compare bitwise.
    auto capture_one = [&](registry::CaptureHandle &cap, Rng &rng) {
        cap.captureFeatureCol(
            0, static_cast<std::uint64_t>(rng.uniformInt(0, 31)));
        for (std::size_t h = 0; h < storage::kLinnosHistory; ++h)
            cap.captureFeatureCol(
                static_cast<std::uint32_t>(1 + h),
                static_cast<std::uint64_t>(rng.uniformInt(50, 2000)));
    };
    // Captures and commits one vector on registry i % kDevices; returns
    // the registry index and the commit time.
    auto commit_one = [&](std::size_t i, Rng &rng) {
        std::size_t d = i % kDevices;
        capture_one(caps[d], rng);
        Nanos t = clock.now();
        caps[d].commitFvCapture(t);
        return std::make_pair(d, t);
    };

    // Untimed warmup: every arm runs a few hundred dispatches before
    // its timed loop so none pays the others' cold caches.
    const std::size_t kWarmup = 512;

    // ---- sync-vector arm: capture -> commit -> read -> score --------
    std::vector<float> sync_scores(vectors);
    Rng warm_rng(99);
    for (std::size_t i = 0; i < kWarmup; ++i) {
        auto [d, t] = commit_one(i, warm_rng);
        regs[d]->scoreFeatures(regs[d]->getFeatures(t), t);
        clock.advance(1_us);
    }
    Rng fv_rng(7);
    double t0 = now();
    for (std::size_t i = 0; i < vectors; ++i) {
        auto [d, t] = commit_one(i, fv_rng);
        // The read: copy the just-committed vector out of the store.
        std::vector<registry::FeatureVector> got = regs[d]->getFeatures(t);
        if (got.size() != 1) {
            std::fprintf(stderr, "sync read %zu: got %zu vectors\n", i,
                         got.size());
            return 1;
        }
        sync_scores[i] = regs[d]->scoreFeatures(got, t)[0];
        clock.advance(1_us);
    }
    double sync_s = now() - t0;
    double sync_rate = static_cast<double>(vectors) / sync_s;

    // ---- the async arms: ScoreServer coalesces across registries ----
    registry::ScoringConfig cfg;
    cfg.enabled = true;
    cfg.max_batch = max_batch;
    cfg.queue_capacity = max_batch * 4;
    cfg.applyEnv();
    Status st = mgr.enableScoring(cfg);
    if (!st.isOk()) {
        std::fprintf(stderr, "enableScoring: %s\n",
                     st.toString().c_str());
        return 1;
    }
    registry::ScoreServer *server = mgr.scorer();

    // One-pointer capture: the completion callback must fit in
    // std::function's inline buffer, or every submit would time a
    // heap allocation that no real instrumentation site pays.
    struct AsyncCtx
    {
        std::size_t scored = 0;
        std::size_t mismatches = 0;
        PercentileTracker queue_us;
        RunningStat batch_sizes;
        const std::vector<float> *expect = nullptr;
        double host_s = 0.0;
        std::uint64_t flushes = 0;
    };
    // Runs one async arm: @p submit queues vector i's request on
    // registry d with the given completion callback.
    auto run_async = [&](AsyncCtx &ctx, auto submit) -> bool {
        ctx.expect = &sync_scores;
        Rng warm(99);
        for (std::size_t i = 0; i < kWarmup; ++i) {
            auto [d, t] = commit_one(i, warm);
            submit(d, t, registry::ScoreCallback());
            clock.advance(1_us);
        }
        server->flushAll(clock.now());
        const std::uint64_t warm_flushes = server->flushes();
        Rng rng(7);
        double start = now();
        for (std::size_t i = 0; i < vectors; ++i) {
            auto [d, t] = commit_one(i, rng);
            Status sub =
                submit(d, t, [&ctx, i](const registry::ScoreResult &r) {
                    ++ctx.scored;
                    if (!r.status.isOk() || r.scores.size() != 1 ||
                        r.scores[0] != (*ctx.expect)[i])
                        ++ctx.mismatches;
                    ctx.queue_us.add(toUs(r.scored - r.enqueued));
                    ctx.batch_sizes.add(static_cast<double>(r.batch));
                });
            if (!sub.isOk()) {
                std::fprintf(stderr, "submit %zu: %s\n", i,
                             sub.toString().c_str());
                return false;
            }
            // Virtual arrival spacing, so queue latency is
            // non-degenerate.
            clock.advance(1_us);
        }
        server->flushAll(clock.now());
        ctx.host_s = now() - start;
        ctx.flushes = server->flushes() - warm_flushes;
        return true;
    };
    auto submit_vector = [&](std::size_t d, Nanos t,
                             registry::ScoreCallback cb) {
        return server->submit(names[d], kSys, regs[d]->getFeatures(t), 0,
                              std::move(cb));
    };
    auto submit_view = [&](std::size_t d, Nanos,
                           registry::ScoreCallback cb) {
        return server->submitView(names[d], kSys, regs[d]->tailView(1), 0,
                                  std::move(cb));
    };

    AsyncCtx ctx;
    if (!run_async(ctx, submit_vector))
        return 1;
    double async_rate = static_cast<double>(vectors) / ctx.host_s;
    double speedup = async_rate / sync_rate;

    AsyncCtx vctx;
    if (!run_async(vctx, submit_view))
        return 1;
    double view_rate = static_cast<double>(vectors) / vctx.host_s;
    double view_speedup = view_rate / async_rate;

    // ---- pack-cost ablation (metrics-instrumented, untimed) ---------
    // Bytes staged per scored vector, vector vs view payload, and
    // capture ns per feature. Runs after the timed arms so the metric
    // hooks (steady_clock capture timers) never perturb the
    // throughput numbers.
    auto &met = obs::Metrics::global();
    met.setEnabled(true);
    const std::size_t abl_n = smoke ? 500 : 2000;
    auto pack_bytes_per_vector = [&](auto submit) {
        std::uint64_t pack0 = met.reg_pack_bytes.get();
        Rng rng(1234);
        for (std::size_t i = 0; i < abl_n; ++i) {
            auto [d, t] = commit_one(i, rng);
            submit(d, t, registry::ScoreCallback());
            clock.advance(1_us);
        }
        server->flushAll(clock.now());
        return static_cast<double>(met.reg_pack_bytes.get() - pack0) /
               static_cast<double>(abl_n);
    };
    double pack_vector = pack_bytes_per_vector(submit_vector);
    double pack_view = pack_bytes_per_vector(submit_view);

    const std::size_t cap_features = abl_n * 5;
    std::uint64_t cap0 = met.reg_capture_ns.get();
    Rng cap_rng(77);
    for (std::size_t i = 0; i < abl_n; ++i)
        capture_one(caps[i % kDevices], cap_rng);
    double capture_ns =
        static_cast<double>(met.reg_capture_ns.get() - cap0) /
        static_cast<double>(cap_features);
    met.setEnabled(false);

    std::printf("%-22s %12s %14s %12s\n", "arm", "vectors",
                "vectors/sec", "host sec");
    std::printf("%-22s %12zu %14.0f %12.3f\n", "sync vector", vectors,
                sync_rate, sync_s);
    std::printf("%-22s %12zu %14.0f %12.3f\n", "async vector", vectors,
                async_rate, ctx.host_s);
    std::printf("%-22s %12zu %14.0f %12.3f\n", "async view", vectors,
                view_rate, vctx.host_s);
    std::printf("\nview vs vector %.2fx   pack bytes/vector vector %.1f "
                "view %.1f   capture ns/feature %.1f\n",
                view_speedup, pack_vector, pack_view, capture_ns);
    std::printf("\nspeedup %.2fx   flushes %llu   avg batch %.1f   "
                "p99 queue %.1f us (virtual)   mismatches %zu\n",
                speedup, static_cast<unsigned long long>(ctx.flushes),
                ctx.batch_sizes.mean(), ctx.queue_us.percentile(99.0),
                ctx.mismatches + vctx.mismatches);
    bench::expectation(
        "coalesced batches amortize per-dispatch overhead onto the "
        "blocked GEMM path (the cached-pack substrate narrows the gap "
        "by making per-call dispatch cheaper too); view payloads skip "
        "the gather/pack step entirely (0 bytes staged per scored "
        "vector). Host-time ratios vary run to run: compare medians "
        "of repeated runs, not one run");

    auto arm = [](bench::JsonWriter &j, const AsyncCtx &c, double rate) {
        j.key("vectors_per_sec").value(rate);
        j.key("host_seconds").value(c.host_s);
        j.key("flushes").value(static_cast<std::size_t>(c.flushes));
        j.key("avg_batch").value(c.batch_sizes.mean());
        j.key("p50_queue_us_virtual").value(c.queue_us.percentile(50.0));
        j.key("p99_queue_us_virtual").value(c.queue_us.percentile(99.0));
    };
    bench::JsonWriter j;
    j.beginObject();
    j.key("bench").value("registry_scoring");
    j.key("smoke").value(smoke ? "true" : "false");
    j.key("config").beginObject();
    j.key("vectors").value(vectors);
    j.key("registries").value(kDevices);
    j.key("max_batch").value(cfg.max_batch);
    j.key("queue_capacity").value(cfg.queue_capacity);
    j.key("max_delay_us").value(
        static_cast<std::size_t>(cfg.max_delay / 1000));
    j.key("soa_slack").value(soa_cfg.slack);
    j.endObject();
    j.key("sync").beginObject();
    j.key("vectors_per_sec").value(sync_rate);
    j.key("host_seconds").value(sync_s);
    j.endObject();
    j.key("async").beginObject();
    arm(j, ctx, async_rate);
    j.endObject();
    j.key("async_view").beginObject();
    arm(j, vctx, view_rate);
    j.key("speedup_vs_async").value(view_speedup);
    j.endObject();
    j.key("ablation").beginObject();
    j.key("pack_bytes_per_vector_vector").value(pack_vector);
    j.key("pack_bytes_per_vector_view").value(pack_view);
    j.key("capture_ns_per_feature").value(capture_ns);
    j.endObject();
    j.key("speedup").value(speedup);
    j.key("scored").value(ctx.scored);
    j.key("mismatches").value(ctx.mismatches);
    j.key("view_scored").value(vctx.scored);
    j.key("view_mismatches").value(vctx.mismatches);
    bench::provenance(j);
    j.endObject();
    if (!j.writeFile(out_path)) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::printf("wrote %s\n", out_path);

    // The smoke gate is correctness, not speed: every vector scored
    // exactly once on every arm, every score bitwise equal to its sync
    // counterpart, and the view arm staged zero pack bytes.
    for (const AsyncCtx *c : {&ctx, &vctx}) {
        if (c->scored != vectors || c->mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: %s arm scored %zu/%zu vectors, %zu "
                         "mismatches\n",
                         c == &ctx ? "async-vector" : "async-view",
                         c->scored, vectors, c->mismatches);
            return 1;
        }
    }
    if (pack_view != 0.0) {
        std::fprintf(stderr,
                     "FAIL: view arm staged %.1f pack bytes/vector\n",
                     pack_view);
        return 1;
    }
    return 0;
}
