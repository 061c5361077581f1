// Tests for the eCryptfs stack (§7.7) and KML prefetching (§7.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>

#include "core/lake.h"
#include "fs/ecryptfs.h"
#include "fs/prefetch.h"

namespace lake::fs {
namespace {

class ECryptFsTest : public ::testing::Test
{
  protected:
    ECryptFsTest()
    {
        for (int i = 0; i < 32; ++i)
            key_[i] = static_cast<std::uint8_t>(i + 100);
    }

    std::vector<std::uint8_t>
    pattern(std::size_t n)
    {
        std::vector<std::uint8_t> data(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] = static_cast<std::uint8_t>(i * 31 + 5);
        return data;
    }

    core::Lake lake_;
    std::uint8_t key_[32];
};

TEST_F(ECryptFsTest, WriteReadRoundTripCpu)
{
    crypto::CpuCipher cipher(
        key_, 32, lake_.clock(),
        crypto::CpuCipher::Rate::software(gpu::CpuSpec::xeonGold6226R()));
    ECryptFs fs(cipher, lake_.clock(), LowerFsModel::testbed(), 64 << 10);

    auto data = pattern(1 << 20);
    ASSERT_TRUE(fs.writeFile("/a", data.data(), data.size()).isOk());
    EXPECT_TRUE(fs.exists("/a"));
    auto back = fs.readFile("/a");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), data);
}

TEST_F(ECryptFsTest, WriteReadRoundTripGpu)
{
    crypto::LakeGpuCipher cipher(key_, 32, lake_.lib(), 256 << 10);
    ECryptFs fs(cipher, lake_.clock(), LowerFsModel::testbed(),
                128 << 10);
    auto data = pattern(777777); // deliberately not extent-aligned
    ASSERT_TRUE(fs.writeFile("/g", data.data(), data.size()).isOk());
    auto back = fs.readFile("/g");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), data);
}

TEST_F(ECryptFsTest, CiphertextIsNotPlaintext)
{
    crypto::CpuCipher cipher(
        key_, 32, lake_.clock(),
        crypto::CpuCipher::Rate::software(gpu::CpuSpec::xeonGold6226R()));
    ECryptFs fs(cipher, lake_.clock(), LowerFsModel::testbed(), 16 << 10);
    auto data = pattern(64 << 10);
    fs.writeFile("/s", data.data(), data.size());
    // Stored size includes per-extent IVs and tags.
    EXPECT_GT(fs.storedSize("/s"), data.size());
}

TEST_F(ECryptFsTest, MissingFileIsNotFound)
{
    crypto::CpuCipher cipher(
        key_, 32, lake_.clock(),
        crypto::CpuCipher::Rate::software(gpu::CpuSpec::xeonGold6226R()));
    ECryptFs fs(cipher, lake_.clock(), LowerFsModel::testbed(), 16 << 10);
    EXPECT_EQ(fs.readFile("/nope").status().code(), Code::NotFound);
}

TEST_F(ECryptFsTest, EmptyFileRoundTrips)
{
    crypto::CpuCipher cipher(
        key_, 32, lake_.clock(),
        crypto::CpuCipher::Rate::software(gpu::CpuSpec::xeonGold6226R()));
    ECryptFs fs(cipher, lake_.clock(), LowerFsModel::testbed(), 16 << 10);
    ASSERT_TRUE(fs.writeFile("/e", nullptr, 0).isOk());
    auto back = fs.readFile("/e");
    ASSERT_TRUE(back.isOk());
    EXPECT_TRUE(back.value().empty());
}

TEST_F(ECryptFsTest, ThroughputOrderingMatchesFig14)
{
    // At 2 MiB blocks: CPU << AES-NI < LAKE (reads).
    gpu::CpuSpec cpu_spec = gpu::CpuSpec::xeonGold6226R();
    auto data = pattern(32 << 20);

    auto read_throughput = [&](crypto::CipherEngine &eng) {
        ECryptFs fs(eng, lake_.clock(), LowerFsModel::testbed(),
                    2 << 20);
        fs.writeFile("/f", data.data(), data.size());
        Nanos t0 = lake_.clock().now();
        auto r = fs.readFile("/f");
        EXPECT_TRUE(r.isOk());
        double secs = toSec(lake_.clock().now() - t0);
        return static_cast<double>(data.size()) / secs / 1e6; // MB/s
    };

    crypto::CpuCipher sw(key_, 32, lake_.clock(),
                         crypto::CpuCipher::Rate::software(cpu_spec));
    crypto::CpuCipher ni(key_, 32, lake_.clock(),
                         crypto::CpuCipher::Rate::aesNi(cpu_spec));
    crypto::LakeGpuCipher gpu_eng(key_, 32, lake_.lib(), 2 << 20);

    double sw_mbps = read_throughput(sw);
    double ni_mbps = read_throughput(ni);
    double gpu_mbps = read_throughput(gpu_eng);

    EXPECT_LT(sw_mbps, 200.0);  // ~142 MB/s in the paper
    EXPECT_GT(ni_mbps, sw_mbps * 3.0);
    EXPECT_GT(gpu_mbps, ni_mbps); // "up to 62% higher than AES-NI"
}

TEST_F(ECryptFsTest, ReadaheadOverlapHelps)
{
    gpu::CpuSpec cpu_spec = gpu::CpuSpec::xeonGold6226R();
    crypto::CpuCipher eng(key_, 32, lake_.clock(),
                          crypto::CpuCipher::Rate::aesNi(cpu_spec));
    auto data = pattern(16 << 20);

    ECryptFs with_ra(eng, lake_.clock(), LowerFsModel::testbed(),
                     1 << 20, true);
    with_ra.writeFile("/f", data.data(), data.size());
    Nanos t0 = lake_.clock().now();
    with_ra.readFile("/f");
    Nanos overlap_time = lake_.clock().now() - t0;

    ECryptFs without_ra(eng, lake_.clock(), LowerFsModel::testbed(),
                        1 << 20, false);
    without_ra.writeFile("/f", data.data(), data.size());
    t0 = lake_.clock().now();
    without_ra.readFile("/f");
    Nanos serial_time = lake_.clock().now() - t0;

    EXPECT_LT(overlap_time, serial_time);
}

TEST_F(ECryptFsTest, StatsAccumulate)
{
    crypto::CpuCipher cipher(
        key_, 32, lake_.clock(),
        crypto::CpuCipher::Rate::software(gpu::CpuSpec::xeonGold6226R()));
    ECryptFs fs(cipher, lake_.clock(), LowerFsModel::testbed(), 16 << 10);
    auto data = pattern(64 << 10);
    fs.writeFile("/x", data.data(), data.size());
    fs.readFile("/x");
    EXPECT_EQ(fs.stats().extents_written, 4u);
    EXPECT_EQ(fs.stats().extents_read, 4u);
    EXPECT_EQ(fs.stats().bytes_read, data.size());
    EXPECT_GT(fs.stats().crypto_busy, 0u);
    EXPECT_GT(fs.stats().disk_busy, 0u);
}

// ---- extent trajectories ----------------------------------------------

// Every Fig. 14 engine through the extent pipeline at a 4 KiB extent:
// the exact virtual time of a write and a read-back and every counter,
// so that a change to how ECryptFs groups extents cannot move any
// engine's trajectory unnoticed.

enum PinEngine
{
    kPinCpu,
    kPinAesNi,
    kPinLake,
    kPinLakeStreamed,
    kPinHybrid,
    kPinEngines
};

constexpr std::size_t kPinExtent = 4096;
constexpr std::size_t kPinSizes[] = {0, 4095, 4096, 4097, 33 * 4096 + 7};
constexpr std::size_t kPinSizeCount = std::size(kPinSizes);

/** Virtual ns of one write + read-back on a fresh ECryptFs. */
struct Pin
{
    Nanos write;
    Nanos read;
    Nanos disk_busy;
    Nanos crypto_busy;
};

constexpr Pin kPins[kPinEngines][kPinSizeCount] = {
    // {write, read, disk_busy, crypto_busy} at sizes 0, 4095, 4096,
    // 4097 and 33 extents + 7 bytes.
    {// CPU
     {9000, 9000, 18000, 0},
     {42391, 42274, 24183, 30241},
     {42398, 42282, 24184, 30248},
     {51398, 44288, 42184, 32254},
     {1019339, 1012266, 816082, 1000232}},
    {// AES-NI
     {9000, 9000, 18000, 0},
     {19500, 19383, 24183, 7350},
     {19501, 19385, 24184, 7351},
     {28501, 22535, 42184, 8852},
     {417306, 407637, 816082, 244093}},
    {// LAKE, serial
     {9000, 9000, 18000, 0},
     {124823, 124706, 24183, 112673},
     {124823, 124707, 24184, 112673},
     {234176, 237210, 42184, 225176},
     {3839717, 3842746, 816082, 3830712}},
    {// LAKE, streamed
     {9000, 9000, 18000, 0},
     {124823, 124706, 24183, 112673},
     {124823, 124707, 24184, 112673},
     {165150, 165034, 42184, 144000},
     {2713955, 2833088, 816082, 2448000}},
    {// GPU+AES-NI
     {9000, 9000, 18000, 0},
     {124781, 124664, 24183, 112631},
     {124781, 124665, 24184, 112631},
     {234134, 237168, 42184, 225134},
     {3838331, 3841360, 816082, 3829326}},
};

/** Boots a Lake for @p engine (streamed engines need the orchestrator). */
core::LakeConfig
pinConfig(int engine)
{
    core::LakeConfig cfg;
    cfg.streaming.enabled = engine == kPinLakeStreamed;
    return cfg;
}

std::unique_ptr<crypto::CipherEngine>
makePinEngine(int engine, core::Lake &lake, const std::uint8_t *key)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    switch (engine) {
    case kPinCpu:
        return std::make_unique<crypto::CpuCipher>(
            key, 32, lake.clock(), crypto::CpuCipher::Rate::software(cpu));
    case kPinAesNi:
        return std::make_unique<crypto::CpuCipher>(
            key, 32, lake.clock(), crypto::CpuCipher::Rate::aesNi(cpu));
    case kPinHybrid:
        return std::make_unique<crypto::HybridCipher>(
            key, 32, lake.lib(), lake.clock(), cpu, kPinExtent);
    default: {
        auto gpu = std::make_unique<crypto::LakeGpuCipher>(
            key, 32, lake.lib(), kPinExtent);
        if (engine == kPinLakeStreamed)
            gpu->enableStreaming(lake.streaming());
        return gpu;
    }
    }
}

TEST_F(ECryptFsTest, ExtentTrajectoriesArePinned)
{
    for (int e = 0; e < kPinEngines; ++e) {
        core::Lake lake(pinConfig(e));
        auto engine = makePinEngine(e, lake, key_);
        for (std::size_t s = 0; s < kPinSizeCount; ++s) {
            std::size_t size = kPinSizes[s];
            SCOPED_TRACE("engine " + std::to_string(e) + ", size " +
                         std::to_string(size));
            ECryptFs fs(*engine, lake.clock(), LowerFsModel::testbed(),
                        kPinExtent);
            auto data = pattern(size);

            Nanos t0 = lake.clock().now();
            ASSERT_TRUE(fs.writeFile("/p", data.data(), size).isOk());
            Nanos write = lake.clock().now() - t0;
            t0 = lake.clock().now();
            auto back = fs.readFile("/p");
            Nanos read = lake.clock().now() - t0;
            ASSERT_TRUE(back.isOk());
            EXPECT_EQ(back.value(), data);

            const Pin &want = kPins[e][s];
            const ECryptFsStats &st = fs.stats();
            std::uint64_t extents =
                std::max<std::size_t>(1, (size + kPinExtent - 1) /
                                             kPinExtent);
            EXPECT_EQ(write, want.write);
            EXPECT_EQ(read, want.read);
            EXPECT_EQ(st.disk_busy, want.disk_busy);
            EXPECT_EQ(st.crypto_busy, want.crypto_busy);
            EXPECT_EQ(st.extents_written, extents);
            EXPECT_EQ(st.extents_read, extents);
            EXPECT_EQ(st.bytes_written, size);
            EXPECT_EQ(st.bytes_read, size);
        }
    }
}

/** Forwards to an engine, corrupting the stored tag of one extent. */
class TagTamperCipher final : public crypto::CipherEngine
{
  public:
    TagTamperCipher(crypto::CipherEngine &inner, std::uint64_t victim)
        : inner_(inner), victim_(victim)
    {}

    void encryptExtent(const std::uint8_t iv[crypto::kGcmIvBytes],
                       const std::uint8_t *plain, std::size_t len,
                       std::uint8_t *cipher,
                       std::uint8_t tag[crypto::kGcmTagBytes]) override
    {
        inner_.encryptExtent(iv, plain, len, cipher, tag);
        if (seen_++ == victim_)
            tag[0] ^= 1;
    }

    bool decryptExtent(const std::uint8_t iv[crypto::kGcmIvBytes],
                       const std::uint8_t *cipher, std::size_t len,
                       const std::uint8_t tag[crypto::kGcmTagBytes],
                       std::uint8_t *plain) override
    {
        return inner_.decryptExtent(iv, cipher, len, tag, plain);
    }

    bool batched() const override { return inner_.batched(); }

    void encryptBatch(crypto::ExtentOp *ops, std::size_t n) override
    {
        inner_.encryptBatch(ops, n);
        for (std::size_t i = 0; i < n; ++i)
            if (seen_++ == victim_)
                ops[i].tag[0] ^= 1;
    }

    bool decryptBatch(crypto::ExtentOp *ops, std::size_t n) override
    {
        return inner_.decryptBatch(ops, n);
    }

    const char *name() const override { return inner_.name(); }

  private:
    crypto::CipherEngine &inner_;
    std::uint64_t victim_;
    std::uint64_t seen_ = 0;
};

// A failed read on the streamed engine: extent 5 of 40 fails its tag,
// so the first 32-extent group fails as a whole. An extent counts as
// read only once its group has authenticated, so none does; the
// virtual times and busy counters are pinned like the trajectories
// above.
TEST_F(ECryptFsTest, FailedGroupReadIsNotCounted)
{
    core::Lake lake(pinConfig(kPinLakeStreamed));
    auto gpu = makePinEngine(kPinLakeStreamed, lake, key_);
    TagTamperCipher tamper(*gpu, 5);
    ECryptFs fs(tamper, lake.clock(), LowerFsModel::testbed(), kPinExtent);
    auto data = pattern(40 * kPinExtent);

    Nanos t0 = lake.clock().now();
    ASSERT_TRUE(fs.writeFile("/t", data.data(), data.size()).isOk());
    Nanos write = lake.clock().now() - t0;
    t0 = lake.clock().now();
    auto back = fs.readFile("/t");
    Nanos read = lake.clock().now() - t0;
    EXPECT_EQ(back.status().code(), Code::Internal);

    const ECryptFsStats &st = fs.stats();
    EXPECT_EQ(write, 2977200);
    EXPECT_EQ(read, 2689088);
    EXPECT_EQ(st.disk_busy, 871088);
    EXPECT_EQ(st.crypto_busy, 2304000);
    EXPECT_EQ(st.extents_written, 40u);
    EXPECT_EQ(st.bytes_written, data.size());
    EXPECT_EQ(st.extents_read, 0u);
    EXPECT_EQ(st.bytes_read, 0u);
}

// ---- prefetch ---------------------------------------------------------

TEST(PrefetchTest, PatternsProduceDistinctFeatures)
{
    Rng rng(41);
    float seq_f[kPrefetchFeatures], rnd_f[kPrefetchFeatures];
    auto seq = generateAccesses(AccessPattern::Sequential, 512, 1 << 20,
                                rng);
    auto rnd =
        generateAccesses(AccessPattern::Random, 512, 1 << 20, rng);
    extractPrefetchFeatures(seq, seq_f);
    extractPrefetchFeatures(rnd, rnd_f);

    // +1-stride ratio separates them decisively.
    EXPECT_GT(seq_f[16], 0.9f);
    EXPECT_LT(rnd_f[16], 0.05f);
}

TEST(PrefetchTest, StridedDetected)
{
    Rng rng(43);
    float f[kPrefetchFeatures];
    auto s = generateAccesses(AccessPattern::Strided, 512, 1 << 20, rng);
    extractPrefetchFeatures(s, f);
    EXPECT_GT(f[17], 0.8f); // repeated-stride ratio
}

TEST(PrefetchTest, ClassifierLearnsPatterns)
{
    Rng rng(47);
    auto train = buildPrefetchDataset(150, 256, rng);
    ml::Mlp net = trainPrefetchModel(train, 30, 0.05f, rng);

    auto test = buildPrefetchDataset(40, 256, rng);
    ml::Matrix x(test.size(), kPrefetchFeatures);
    std::vector<int> y(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::copy(test[i].x.begin(), test[i].x.end(), x.row(i));
        y[i] = test[i].pattern;
    }
    EXPECT_GT(net.accuracy(x, y), 0.9);
}

TEST(PrefetchTest, ReadaheadHelpsSequentialHurtsRandom)
{
    Rng rng(53);
    auto seq = generateAccesses(AccessPattern::Sequential, 4096, 1 << 20,
                                rng);
    auto rnd =
        generateAccesses(AccessPattern::Random, 4096, 1 << 20, rng);

    ReadaheadOutcome seq_ra = simulateReadahead(seq, 64, 4096);
    ReadaheadOutcome seq_nora = simulateReadahead(seq, 0, 4096);
    EXPECT_GT(seq_ra.hit_rate, 0.9);
    EXPECT_LT(seq_nora.hit_rate, 0.1);

    ReadaheadOutcome rnd_ra = simulateReadahead(rnd, 64, 4096);
    EXPECT_GT(rnd_ra.wasted_fraction, 0.8); // prefetches never used
}

TEST(PrefetchTest, PerClassReadaheadBeatsFixedForMixedSet)
{
    // The KML premise: per-pattern readahead beats one-size-fits-all.
    Rng rng(59);
    double adaptive_disk = 0.0, fixed_disk = 0.0;
    for (std::size_t cls = 0; cls < kPatternClasses; ++cls) {
        auto stream = generateAccesses(static_cast<AccessPattern>(cls),
                                       4096, 1 << 20, rng);
        adaptive_disk += static_cast<double>(
            simulateReadahead(stream, kReadaheadPages[cls], 8192)
                .disk_reads);
        fixed_disk += static_cast<double>(
            simulateReadahead(stream, 64, 8192).disk_reads);
    }
    EXPECT_LT(adaptive_disk, fixed_disk);
}

} // namespace
} // namespace lake::fs
