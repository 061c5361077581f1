// Host-time benchmark of the vectorized ML compute substrate
// (ml/compute.h + base::ThreadPool) against the seed's scalar loops:
//
//  - GEMM: 256x256x256 dense layer y = x*W^T + b (compute::affine)
//  - kNN:  Fig. 12 shape — 4096 queries vs 16384 refs, 1024 dims, k=16
//
// Each is measured at 1, 2 and LAKE_CPU_THREADS (hardware) threads and
// written to BENCH_mlcompute.json so the perf trajectory is tracked
// from this PR onward. These are *host* seconds; the virtual-time
// figure benches are unaffected by any of this machinery.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "ml/compute.h"
#include "ml/knn.h"

using namespace lake;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The seed's scalar affine loop, kept verbatim as the baseline. */
void
scalarAffine(const float *x, std::size_t n, std::size_t in,
             const float *w, std::size_t out, const float *b, float *y)
{
    for (std::size_t r = 0; r < n; ++r) {
        const float *xin = x + r * in;
        float *yout = y + r * out;
        for (std::size_t o = 0; o < out; ++o) {
            const float *wrow = w + o * in;
            float acc = b[o];
            for (std::size_t i = 0; i < in; ++i)
                acc += wrow[i] * xin[i];
            yout[o] = acc;
        }
    }
}

/** Runs @p fn repeatedly for >= @p min_sec; returns seconds per call. */
template <typename Fn>
double
timeIt(Fn &&fn, double min_sec)
{
    fn(); // warm caches and the pool
    double best = 1e300;
    double start = now();
    do {
        double t0 = now();
        fn();
        best = std::min(best, now() - t0);
    } while (now() - start < min_sec);
    return best;
}

/** Thread counts to sweep: 1, 2, and the configured count if distinct. */
std::vector<std::size_t>
threadSweep()
{
    std::vector<std::size_t> t{1, 2};
    std::size_t n = base::ThreadPool::configuredThreads();
    if (n != 1 && n != 2)
        t.push_back(n);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_mlcompute.json";
    bench::banner("mlcompute",
                  "host-time GFLOP/s and queries/s of the vectorized "
                  "compute substrate vs the seed scalar loops");

    Rng rng(41);
    bench::JsonWriter json;
    json.beginObject();
    json.key("bench").value("mlcompute");
    bench::provenance(json);
    json.key("unit_note")
        .value("host time; virtual-time figure benches are unaffected");

    // --- GEMM: 256 x 256 x 256 --------------------------------------
    {
        const std::size_t n = 256, in = 256, out = 256;
        const double flops = 2.0 * n * in * out;
        std::vector<float> x(n * in), w(out * in), b(out), y(n * out);
        for (float &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float &v : w)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float &v : b)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));

        double scalar_s = timeIt(
            [&] {
                scalarAffine(x.data(), n, in, w.data(), out, b.data(),
                             y.data());
            },
            1.0);
        double scalar_gflops = flops / scalar_s / 1e9;
        std::printf("%-28s %10.2f GFLOP/s\n", "GEMM 256^3 seed scalar",
                    scalar_gflops);

        json.key("gemm").beginObject();
        json.key("n").value(n).key("in").value(in).key("out").value(out);
        json.key("scalar_gflops").value(scalar_gflops);
        json.key("blocked").beginArray();
        for (std::size_t threads : threadSweep()) {
            base::ThreadPool::resetGlobal(threads);
            double s = timeIt(
                [&] {
                    ml::compute::affine(x.data(), n, in, in, w.data(),
                                        out, b.data(), y.data());
                },
                1.0);
            double gflops = flops / s / 1e9;
            std::printf("GEMM 256^3 blocked @%zu thr %8.2f GFLOP/s "
                        "(%.1fx)\n",
                        threads, gflops, scalar_s / s);
            json.beginObject();
            json.key("threads").value(threads);
            json.key("gflops").value(gflops);
            json.key("speedup_vs_scalar").value(scalar_s / s);
            json.endObject();
        }
        json.endArray().endObject();
    }

    // --- kNN: Fig. 12 shape -----------------------------------------
    {
        const std::size_t refs_n = 16384, dim = 1024, k = 16;
        const std::size_t queries_n = 4096;
        // The scalar baseline is ~40x slower, so it scans a query
        // subset; per-query cost is constant, making rates comparable.
        const std::size_t scalar_queries = 48;

        std::vector<float> refs(refs_n * dim), queries(queries_n * dim);
        for (float &v : refs)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        for (float &v : queries)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        ml::Knn knn(dim, k);
        for (std::size_t r = 0; r < refs_n; ++r)
            knn.add(refs.data() + r * dim, static_cast<int>(r % 2));

        double scalar_s = now();
        for (std::size_t q = 0; q < scalar_queries; ++q)
            knn.classify(queries.data() + q * dim);
        scalar_s = (now() - scalar_s) /
                   static_cast<double>(scalar_queries);
        double scalar_qps = 1.0 / scalar_s;
        std::printf("%-28s %10.1f queries/s\n",
                    "kNN fig12 seed scalar", scalar_qps);

        json.key("knn").beginObject();
        json.key("queries").value(queries_n);
        json.key("refs").value(refs_n);
        json.key("dim").value(dim);
        json.key("k").value(k);
        json.key("scalar_sampled_queries").value(scalar_queries);
        json.key("scalar_qps").value(scalar_qps);
        json.key("batched").beginArray();
        for (std::size_t threads : threadSweep()) {
            base::ThreadPool::resetGlobal(threads);
            double t0 = now();
            auto labels = knn.classifyBatch(queries.data(), queries_n);
            double s = (now() - t0) / static_cast<double>(queries_n);
            double qps = 1.0 / s;
            std::printf("kNN fig12 batched @%zu thr %9.1f queries/s "
                        "(%.1fx)\n",
                        threads, qps, scalar_s / s);
            json.beginObject();
            json.key("threads").value(threads);
            json.key("qps").value(qps);
            json.key("speedup_vs_scalar").value(scalar_s / s);
            json.endObject();
        }
        json.endArray().endObject();
    }

    base::ThreadPool::resetGlobal(0);
    json.endObject();
    bool wrote = json.writeFile(out_path);
    if (!wrote)
        std::fprintf(stderr, "failed to write %s\n", out_path);
    else
        std::printf("\nwrote %s\n", out_path);

    bench::expectation(
        "blocked GEMM >= 4x the seed scalar loop at 256^3 and batched "
        "kNN >= 3x at the Fig. 12 shape, single-threaded; more with "
        "threads on multi-core hosts");
    return wrote ? 0 : 1;
}
