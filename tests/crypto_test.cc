// Tests for the cipher engines (the AES and AES-GCM primitives are
// covered by crypto_primitives_test.cc, linked into the same binary).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/lake.h"
#include "crypto/engines.h"
#include "crypto/gcm.h"

namespace lake::crypto {
namespace {

class EnginesTest : public ::testing::Test
{
  protected:
    EnginesTest()
    {
        for (int i = 0; i < 32; ++i)
            key_[i] = static_cast<std::uint8_t>(i * 3 + 1);
        for (int i = 0; i < 12; ++i)
            iv_[i] = static_cast<std::uint8_t>(i);
    }

    core::Lake lake_;
    std::uint8_t key_[32];
    std::uint8_t iv_[12];
};

TEST_F(EnginesTest, AllEnginesProduceIdenticalCiphertext)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    CpuCipher sw(key_, 32, lake_.clock(), CpuCipher::Rate::software(cpu));
    CpuCipher ni(key_, 32, lake_.clock(), CpuCipher::Rate::aesNi(cpu));
    LakeGpuCipher gpu_eng(key_, 32, lake_.lib(), 1 << 16);

    std::vector<std::uint8_t> plain(10000);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> c1(plain.size()), c2(plain.size()),
        c3(plain.size());
    std::uint8_t t1[16], t2[16], t3[16];
    sw.encryptExtent(iv_, plain.data(), plain.size(), c1.data(), t1);
    ni.encryptExtent(iv_, plain.data(), plain.size(), c2.data(), t2);
    gpu_eng.encryptExtent(iv_, plain.data(), plain.size(), c3.data(), t3);

    EXPECT_EQ(c1, c2);
    EXPECT_EQ(c1, c3);
    EXPECT_EQ(std::memcmp(t1, t2, 16), 0);
    EXPECT_EQ(std::memcmp(t1, t3, 16), 0);

    // Cross-engine decrypt: GPU ciphertext through the CPU engine.
    std::vector<std::uint8_t> out(plain.size());
    EXPECT_TRUE(sw.decryptExtent(iv_, c3.data(), c3.size(), t3,
                                 out.data()));
    EXPECT_EQ(out, plain);
}

TEST_F(EnginesTest, ThroughputOrderingAtLargeExtents)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    CpuCipher sw(key_, 32, lake_.clock(), CpuCipher::Rate::software(cpu));
    CpuCipher ni(key_, 32, lake_.clock(), CpuCipher::Rate::aesNi(cpu));
    LakeGpuCipher gpu_eng(key_, 32, lake_.lib(), 2 << 20);

    std::vector<std::uint8_t> plain(2 << 20);
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];

    auto time_encrypt = [&](CipherEngine &e) {
        Nanos t0 = lake_.clock().now();
        e.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                        tag);
        return lake_.clock().now() - t0;
    };

    Nanos sw_t = time_encrypt(sw);
    Nanos ni_t = time_encrypt(ni);
    Nanos gpu_t = time_encrypt(gpu_eng);
    // Fig. 14's ordering at 2 MiB blocks: CPU slowest, GPU fastest.
    EXPECT_GT(sw_t, ni_t);
    EXPECT_GT(ni_t, gpu_t);
}

TEST_F(EnginesTest, GpuDecryptDetectsTamper)
{
    LakeGpuCipher gpu_eng(key_, 16, lake_.lib(), 4096);
    std::vector<std::uint8_t> plain(1000, 0x42), cipher(1000), out(1000);
    std::uint8_t tag[16];
    gpu_eng.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                          tag);
    cipher[0] ^= 1;
    EXPECT_FALSE(gpu_eng.decryptExtent(iv_, cipher.data(), cipher.size(),
                                       tag, out.data()));
    for (std::uint8_t b : out)
        EXPECT_EQ(b, 0);
}

TEST_F(EnginesTest, HybridRoundTripAndTamper)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    HybridCipher hybrid(key_, 32, lake_.lib(), lake_.clock(), cpu,
                        1 << 20);

    std::vector<std::uint8_t> plain(300000);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> cipher(plain.size()), out(plain.size());
    std::uint8_t tag[16];

    hybrid.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                         tag);
    ASSERT_TRUE(hybrid.decryptExtent(iv_, cipher.data(), cipher.size(),
                                     tag, out.data()));
    EXPECT_EQ(out, plain);

    cipher[123] ^= 1;
    EXPECT_FALSE(hybrid.decryptExtent(iv_, cipher.data(), cipher.size(),
                                      tag, out.data()));
}

TEST_F(EnginesTest, HybridInPlaceRoundTripAndTamper)
{
    // plain == cipher: both halves' tags must be taken from the
    // ciphertext before any plaintext overwrites it.
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    HybridCipher hybrid(key_, 32, lake_.lib(), lake_.clock(), cpu,
                        1 << 20);

    std::vector<std::uint8_t> plain(300000);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> buf = plain;
    std::uint8_t tag[16];

    hybrid.encryptExtent(iv_, buf.data(), buf.size(), buf.data(), tag);
    std::vector<std::uint8_t> cipher = buf;
    ASSERT_NE(cipher, plain);
    ASSERT_TRUE(hybrid.decryptExtent(iv_, buf.data(), buf.size(), tag,
                                     buf.data()));
    EXPECT_EQ(buf, plain);

    // One flipped bit in either half: all zero, not half-decrypted.
    for (std::size_t pos : {std::size_t{123}, cipher.size() - 5}) {
        buf = cipher;
        buf[pos] ^= 1;
        EXPECT_FALSE(hybrid.decryptExtent(iv_, buf.data(), buf.size(),
                                          tag, buf.data()));
        EXPECT_EQ(buf, std::vector<std::uint8_t>(buf.size(), 0));
    }
}

TEST_F(EnginesTest, HybridFasterThanAesNiAlone)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    CpuCipher ni(key_, 32, lake_.clock(), CpuCipher::Rate::aesNi(cpu));
    HybridCipher hybrid(key_, 32, lake_.lib(), lake_.clock(), cpu,
                        4 << 20);

    std::vector<std::uint8_t> plain(4 << 20), cipher(4 << 20);
    std::uint8_t tag[16];

    Nanos t0 = lake_.clock().now();
    ni.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(), tag);
    Nanos ni_t = lake_.clock().now() - t0;

    t0 = lake_.clock().now();
    hybrid.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                         tag);
    Nanos hybrid_t = lake_.clock().now() - t0;
    EXPECT_LT(hybrid_t, ni_t);
}

} // namespace
} // namespace lake::crypto
