// Cross-cutting property tests: determinism of the whole simulator and
// of every MLP trainer, wire-format round-trip under random operation
// sequences, channel byte conservation, verifier soundness on randomly
// generated programs, and GCM round-trips with random AAD.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "channel/channel.h"
#include "crypto/gcm.h"
#include "fs/prefetch.h"
#include "policy/bpf.h"
#include "remote/wire.h"
#include "sched/mllb.h"
#include "storage/e2e.h"
#include "storage/linnos.h"

namespace lake {
namespace {

TEST(DeterminismTest, E2eRunsAreReproducible)
{
    // The whole stack — traces, devices, batching, inference, policy —
    // must be a pure function of the seed: replays are the basis of
    // every number in EXPERIMENTS.md.
    Rng rng(71);
    storage::LinnosDataset data = storage::collectLinnosData(
        storage::TraceSpec::azure().rerated(3.0),
        storage::NvmeSpec::samsung980Pro(), 300_ms, 0.85, 7);
    ml::Mlp net = storage::trainLinnosModel(data, 0, 3, 0.05f, rng);

    storage::E2eConfig cfg;
    cfg.mode = storage::E2eMode::LakeNn;
    cfg.model = &net;
    cfg.duration = 200_ms;
    std::vector<storage::TraceSpec> traces = {
        storage::TraceSpec::azure().rerated(2.0),
        storage::TraceSpec::bingI(), storage::TraceSpec::cosmos()};

    storage::E2eResult a = storage::runE2e(traces, cfg);
    storage::E2eResult b = storage::runE2e(traces, cfg);
    EXPECT_DOUBLE_EQ(a.avg_read_lat_us, b.avg_read_lat_us);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.rerouted, b.rerouted);
    EXPECT_EQ(a.inference_batches, b.inference_batches);
    EXPECT_EQ(a.gpu_batches, b.gpu_batches);
}

TEST(DeterminismTest, TrainingIsReproducible)
{
    // The three MLP trainers share one minibatch SGD loop; each must be
    // a pure function of its data and seed.
    storage::LinnosDataset linnos = storage::collectLinnosData(
        storage::TraceSpec::bingI(), storage::NvmeSpec::samsung980Pro(),
        200_ms, 0.85, 3);
    Rng data_rng(9);
    auto mllb = sched::buildMllbDataset(600, 8, 4.0, data_rng);
    auto kml = fs::buildPrefetchDataset(40, 256, data_rng);
    const std::pair<const char *, std::function<ml::Mlp(Rng &)>>
        trainers[] = {
            {"linnos",
             [&](Rng &r) {
                 return storage::trainLinnosModel(linnos, 0, 2, 0.05f, r);
             }},
            {"mllb",
             [&](Rng &r) { return sched::trainMllbModel(mllb, 2, 0.05f, r); }},
            {"kml",
             [&](Rng &r) { return fs::trainPrefetchModel(kml, 2, 0.05f, r); }},
        };
    for (const auto &[name, train] : trainers) {
        Rng r1(5), r2(5);
        EXPECT_EQ(train(r1).serialize(), train(r2).serialize()) << name;
    }
}

class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(WireFuzzTest, RandomOperationSequencesRoundTrip)
{
    Rng rng(GetParam());
    // Script: 0=u32, 1=u64, 2=f32, 3=bytes, 4=str.
    std::vector<int> script;
    std::vector<std::uint64_t> ints;
    std::vector<float> floats;
    std::vector<std::vector<std::uint8_t>> blobs;
    std::vector<std::string> strs;

    remote::Encoder enc;
    for (int op = 0; op < 64; ++op) {
        int kind = static_cast<int>(rng.uniformInt(0, 4));
        script.push_back(kind);
        switch (kind) {
          case 0: {
            auto v = static_cast<std::uint32_t>(rng.uniformInt(0, ~0u));
            ints.push_back(v);
            enc.u32(v);
            break;
          }
          case 1: {
            std::uint64_t v = rng.uniformInt(0, ~0ull >> 1);
            ints.push_back(v);
            enc.u64(v);
            break;
          }
          case 2: {
            auto v = static_cast<float>(rng.uniform(-1e6, 1e6));
            floats.push_back(v);
            enc.f32(v);
            break;
          }
          case 3: {
            std::vector<std::uint8_t> b(rng.uniformInt(0, 300));
            for (auto &x : b)
                x = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            enc.bytes(b.data(), b.size());
            blobs.push_back(std::move(b));
            break;
          }
          case 4: {
            std::string s(rng.uniformInt(0, 40), 'x');
            for (auto &c : s)
                c = static_cast<char>(rng.uniformInt(32, 126));
            enc.str(s);
            strs.push_back(std::move(s));
            break;
          }
        }
    }

    std::vector<std::uint8_t> buf = enc.take();
    remote::Decoder dec(buf);
    std::size_t ii = 0, fi = 0, bi = 0, si = 0;
    for (int kind : script) {
        switch (kind) {
          case 0:
            ASSERT_EQ(dec.u32(), static_cast<std::uint32_t>(ints[ii++]));
            break;
          case 1:
            ASSERT_EQ(dec.u64(), ints[ii++]);
            break;
          case 2:
            ASSERT_FLOAT_EQ(dec.f32(), floats[fi++]);
            break;
          case 3: {
            std::size_t n = 0;
            const std::uint8_t *p = dec.bytes(&n);
            ASSERT_EQ(n, blobs[bi].size());
            if (n > 0) {
                ASSERT_EQ(std::vector<std::uint8_t>(p, p + n),
                          blobs[bi]);
            }
            ++bi;
            break;
          }
          case 4:
            ASSERT_EQ(dec.str(), strs[si++]);
            break;
        }
    }
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ChannelPropertyTest, BytesAreConserved)
{
    Clock clock;
    channel::Channel chan(channel::Kind::Netlink, clock);
    Rng rng(9);
    using Dir = channel::Channel::Dir;

    std::uint64_t sent = 0, received = 0;
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> msg(rng.uniformInt(0, 8192));
        sent += msg.size();
        chan.send(Dir::KernelToUser, std::move(msg));
        if (rng.chance(0.7) && chan.pending(Dir::KernelToUser))
            received += chan.recv(Dir::KernelToUser).size();
    }
    while (chan.pending(Dir::KernelToUser))
        received += chan.recv(Dir::KernelToUser).size();
    EXPECT_EQ(sent, received);
    EXPECT_EQ(chan.bytesSent(), sent);
}

TEST(BpfPropertyTest, VerifiedRandomProgramsTerminate)
{
    // Generate random *forward-jumping* programs; every one the
    // verifier accepts must run to completion within its fuel (the
    // verifier's termination argument, exercised broadly).
    policy::BpfVm vm;
    vm.registerHelper(1, [](const auto &a) { return a[0] + a[1]; });
    Rng rng(11);
    int accepted = 0;

    for (int trial = 0; trial < 300; ++trial) {
        std::size_t len = rng.uniformInt(1, 40);
        std::vector<policy::BpfInsn> prog;
        for (std::size_t pc = 0; pc < len; ++pc) {
            policy::BpfInsn insn{};
            insn.op = static_cast<policy::BpfOp>(rng.uniformInt(
                0, static_cast<std::uint64_t>(policy::BpfOp::Exit)));
            insn.dst = static_cast<std::uint8_t>(rng.uniformInt(0, 12));
            insn.src = static_cast<std::uint8_t>(rng.uniformInt(0, 12));
            insn.off = static_cast<std::int32_t>(rng.uniformInt(0, 8)) -
                       2; // sometimes invalid (backward / past end)
            insn.imm = static_cast<std::int64_t>(
                           rng.uniformInt(0, 128)) -
                       16;
            prog.push_back(insn);
        }
        prog.push_back({policy::BpfOp::Exit, 0, 0, 0, 0});

        if (vm.verify(prog, 4).isOk()) {
            ++accepted;
            std::vector<std::uint64_t> ctx = {1, 2, 3, 4};
            (void)vm.run(prog, ctx); // must not panic or hang
        }
    }
    // The generator produces some valid programs, so this exercises
    // the interpreter too, not just rejection paths.
    EXPECT_GT(accepted, 5);
}

class GcmAadTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GcmAadTest, RoundTripWithRandomAad)
{
    Rng rng(GetParam());
    std::uint8_t key[16];
    for (auto &k : key)
        k = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    std::uint8_t iv[12];
    for (auto &v : iv)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

    crypto::AesGcm gcm(key, sizeof(key));
    std::vector<std::uint8_t> plain(rng.uniformInt(1, 2000));
    std::vector<std::uint8_t> aad(rng.uniformInt(0, 100));
    for (auto &b : plain)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    for (auto &b : aad)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

    std::vector<std::uint8_t> cipher(plain.size()), out(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, plain.data(), plain.size(), aad.data(), aad.size(),
                cipher.data(), tag);
    ASSERT_TRUE(gcm.decrypt(iv, cipher.data(), cipher.size(), aad.data(),
                            aad.size(), tag, out.data()));
    EXPECT_EQ(out, plain);

    // Tampering with the AAD must break authentication.
    if (!aad.empty()) {
        aad[0] ^= 1;
        EXPECT_FALSE(gcm.decrypt(iv, cipher.data(), cipher.size(),
                                 aad.data(), aad.size(), tag,
                                 out.data()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcmAadTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

} // namespace
} // namespace lake
