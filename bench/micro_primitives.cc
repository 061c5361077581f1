// Host-time microbenchmarks (google-benchmark) for LAKE's core
// primitives: command serialization, the lakeShm allocator, the
// lock-free feature map, the policy VM, the AES-GCM cipher, and the
// full remoted-call path. These measure the *simulator's* real cost,
// complementing the virtual-time figure harnesses.

#include <benchmark/benchmark.h>

#include <vector>

#include "base/ring_buffer.h"
#include "core/lake.h"
#include "crypto/gcm.h"
#include "ml/compute.h"
#include "ml/knn.h"
#include "ml/mlp.h"
#include "policy/bpf.h"
#include "registry/registry.h"
#include "remote/wire.h"
#include "sim/simulator.h"

namespace {

using namespace lake;

void
BM_WireEncodeCommand(benchmark::State &state)
{
    for (auto _ : state) {
        remote::Encoder enc =
            remote::makeCommand(remote::ApiId::CuLaunchKernel, 1);
        enc.str("mlp_forward").u32(4).u32(256).u32(4);
        for (int i = 0; i < 4; ++i)
            enc.u64(0x1000 + i);
        enc.u32(0);
        benchmark::DoNotOptimize(enc.take());
    }
}
BENCHMARK(BM_WireEncodeCommand);

void
BM_WireDecodeCommand(benchmark::State &state)
{
    remote::Encoder enc =
        remote::makeCommand(remote::ApiId::CuLaunchKernel, 1);
    enc.str("mlp_forward").u32(4).u32(256).u32(4);
    for (int i = 0; i < 4; ++i)
        enc.u64(0x1000 + i);
    enc.u32(0);
    std::vector<std::uint8_t> buf = enc.take();

    for (auto _ : state) {
        remote::Decoder dec(buf);
        remote::CommandHead head = remote::readHead(dec);
        benchmark::DoNotOptimize(head);
        std::string kernel = dec.str();
        benchmark::DoNotOptimize(kernel);
        for (int i = 0; i < 3; ++i)
            benchmark::DoNotOptimize(dec.u32());
    }
}
BENCHMARK(BM_WireDecodeCommand);

void
BM_ShmAllocFree(benchmark::State &state)
{
    shm::ShmArena arena(64 << 20);
    std::size_t size = state.range(0);
    for (auto _ : state) {
        shm::ShmOffset off = arena.alloc(size);
        benchmark::DoNotOptimize(off);
        arena.free(off);
    }
}
BENCHMARK(BM_ShmAllocFree)->Arg(64)->Arg(4096)->Arg(1 << 20);

// Best-fit throughput against a fragmented arena: the free list is
// pre-seeded with Arg(0) free blocks of staggered sizes, then the hot
// loop allocs/frees a mid-sized block. The seed allocator scanned the
// whole free list per alloc (O(n) in the block count); the size-ordered
// index makes the flat portion of this curve — check the Arg(16) vs
// Arg(4096) rates.
void
BM_ShmAllocFragmented(benchmark::State &state)
{
    const std::size_t blocks = state.range(0);
    shm::ShmArena arena((blocks + 2) * 8192);

    // Alternate live/dead allocations so the dead ones cannot coalesce:
    // every second block stays allocated, pinning its neighbours apart.
    std::vector<shm::ShmOffset> dead, live;
    for (std::size_t i = 0; i < blocks; ++i) {
        // Varied sizes so the free index holds many distinct keys.
        dead.push_back(arena.alloc(64 + 16 * (i % 128)));
        live.push_back(arena.alloc(64));
    }
    for (shm::ShmOffset off : dead)
        arena.free(off);

    for (auto _ : state) {
        shm::ShmOffset off = arena.alloc(1024);
        benchmark::DoNotOptimize(off);
        arena.free(off);
    }
    state.SetItemsProcessed(state.iterations()); // alloc+free pairs
}
BENCHMARK(BM_ShmAllocFragmented)->Arg(16)->Arg(256)->Arg(4096);

void
BM_RegistryCaptureCommit(benchmark::State &state)
{
    registry::Schema schema;
    schema.add("pend_ios");
    schema.add("lat", 8, 4);
    registry::Registry reg("sda1", "bio", schema, 64);
    reg.beginFvCapture(0);
    Nanos ts = 1;
    for (auto _ : state) {
        reg.captureFeatureIncr("pend_ios", 1);
        reg.captureFeature("lat", 250);
        reg.commitFvCapture(ts++);
    }
}
BENCHMARK(BM_RegistryCaptureCommit);

void
BM_BpfFig3Policy(benchmark::State &state)
{
    policy::BpfVm vm;
    auto prog = policy::buildFig3Program(40.0, 8);
    std::vector<std::uint64_t> ctx(policy::kCtxSlotCount, 0);
    ctx[policy::kCtxBatchSize] = 16;
    ctx[policy::kCtxGpuUtilX100] = 2500;
    for (auto _ : state)
        benchmark::DoNotOptimize(vm.run(prog, ctx));
}
BENCHMARK(BM_BpfFig3Policy);

void
BM_AesGcmEncrypt4K(benchmark::State &state)
{
    std::uint8_t key[32] = {1, 2, 3};
    std::uint8_t iv[12] = {9};
    crypto::AesGcm gcm(key, 32);
    std::vector<std::uint8_t> plain(4096, 0x5a), cipher(4096);
    std::uint8_t tag[16];
    for (auto _ : state) {
        gcm.encrypt(iv, plain.data(), plain.size(), nullptr, 0,
                    cipher.data(), tag);
        benchmark::DoNotOptimize(cipher.data());
    }
    state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesGcmEncrypt4K);

/** One eCryptfs extent (256 KiB) through AES-256-GCM; reports MB/s. */
constexpr std::size_t kExtentBytes = 256 << 10;

void
BM_AesGcmEncrypt256K(benchmark::State &state)
{
    std::uint8_t key[32] = {1, 2, 3};
    std::uint8_t iv[12] = {9};
    crypto::AesGcm gcm(key, 32);
    std::vector<std::uint8_t> plain(kExtentBytes, 0x5a),
        cipher(kExtentBytes);
    std::uint8_t tag[16];
    for (auto _ : state) {
        gcm.encrypt(iv, plain.data(), plain.size(), nullptr, 0,
                    cipher.data(), tag);
        benchmark::DoNotOptimize(cipher.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * kExtentBytes);
}
BENCHMARK(BM_AesGcmEncrypt256K);

void
BM_AesGcmDecrypt256K(benchmark::State &state)
{
    std::uint8_t key[32] = {1, 2, 3};
    std::uint8_t iv[12] = {9};
    crypto::AesGcm gcm(key, 32);
    std::vector<std::uint8_t> plain(kExtentBytes, 0x5a),
        cipher(kExtentBytes);
    std::uint8_t tag[16];
    gcm.encrypt(iv, plain.data(), plain.size(), nullptr, 0, cipher.data(),
                tag);
    for (auto _ : state) {
        bool ok = gcm.decrypt(iv, cipher.data(), cipher.size(), nullptr, 0,
                              tag, plain.data());
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(plain.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * kExtentBytes);
}
BENCHMARK(BM_AesGcmDecrypt256K);

void
BM_MlpForwardLinnos(benchmark::State &state)
{
    Rng rng(1);
    ml::Mlp net(ml::MlpConfig::linnos(), rng);
    ml::Matrix x(state.range(0), 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = 0.3f;
    for (auto _ : state)
        benchmark::DoNotOptimize(net.forward(x));
}
// 1-4 rows: the linnos_io batch sizes, where the GEMM's row tail runs.
BENCHMARK(BM_MlpForwardLinnos)->DenseRange(1, 4)->Arg(32)->Arg(256);

// Seed scalar affine loop, preserved as the GEMM host-time baseline;
// compare against BM_GemmBlocked256 (ratio is the substrate speedup).
void
BM_GemmScalar256(benchmark::State &state)
{
    const std::size_t n = 256, in = 256, out = 256;
    Rng rng(7);
    std::vector<float> x(n * in), w(out * in), b(out), y(n * out);
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float &v : w)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto _ : state) {
        for (std::size_t r = 0; r < n; ++r) {
            const float *xin = x.data() + r * in;
            float *yout = y.data() + r * out;
            for (std::size_t o = 0; o < out; ++o) {
                const float *wrow = w.data() + o * in;
                float acc = b[o];
                for (std::size_t i = 0; i < in; ++i)
                    acc += wrow[i] * xin[i];
                yout[o] = acc;
            }
        }
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations()); // GEMMs
}
BENCHMARK(BM_GemmScalar256);

void
BM_GemmBlocked256(benchmark::State &state)
{
    const std::size_t n = 256, in = 256, out = 256;
    Rng rng(7);
    std::vector<float> x(n * in), w(out * in), b(out), y(n * out);
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float &v : w)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto _ : state) {
        ml::compute::affine(x.data(), n, in, in, w.data(), out, b.data(),
                            y.data());
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations()); // GEMMs
}
BENCHMARK(BM_GemmBlocked256);

// kNN at the Fig. 12 shape (16K refs x 1024 dims, k=16). items/s is
// queries/s for both variants, so the two rates compare directly even
// though the scalar one runs a single query per iteration.
void
BM_KnnScalarQueryFig12(benchmark::State &state)
{
    const std::size_t refs_n = 16384, dim = 1024, k = 16;
    Rng rng(11);
    std::vector<float> ref(dim), q(dim);
    ml::Knn knn(dim, k);
    for (std::size_t r = 0; r < refs_n; ++r) {
        for (float &v : ref)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        knn.add(ref.data(), static_cast<int>(r % 2));
    }
    for (float &v : q)
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(knn.classify(q.data()));
    state.SetItemsProcessed(state.iterations()); // queries
}
BENCHMARK(BM_KnnScalarQueryFig12);

void
BM_KnnBatchedFig12(benchmark::State &state)
{
    const std::size_t refs_n = 16384, dim = 1024, k = 16;
    const std::size_t queries_n = 256;
    Rng rng(11);
    std::vector<float> ref(dim), queries(queries_n * dim);
    ml::Knn knn(dim, k);
    for (std::size_t r = 0; r < refs_n; ++r) {
        for (float &v : ref)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        knn.add(ref.data(), static_cast<int>(r % 2));
    }
    for (float &v : queries)
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(knn.classifyBatch(queries.data(),
                                                   queries_n));
    state.SetItemsProcessed(state.iterations() * queries_n); // queries
}
BENCHMARK(BM_KnnBatchedFig12);

void
BM_SimulatorEventChurn(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator simr;
        int fired = 0;
        for (int i = 0; i < 1000; ++i)
            simr.schedule(static_cast<Nanos>(i), [&] { ++fired; });
        simr.run();
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(BM_SimulatorEventChurn);

void
BM_FullRemotedMemAlloc(benchmark::State &state)
{
    core::Lake lake;
    for (auto _ : state) {
        gpu::DevicePtr p = 0;
        lake.lib().cuMemAlloc(&p, 4096);
        lake.lib().cuMemFree(p);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_FullRemotedMemAlloc);

} // namespace

BENCHMARK_MAIN();
