// Tests for AES, AES-GCM (against NIST vectors) and the cipher engines.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/lake.h"
#include "crypto/aes.h"
#include "crypto/engines.h"
#include "crypto/gcm.h"

namespace lake::crypto {
namespace {

std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(
            std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
    return out;
}

std::string
toHex(const std::uint8_t *data, std::size_t n)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(digits[data[i] >> 4]);
        out.push_back(digits[data[i] & 0xf]);
    }
    return out;
}

TEST(AesTest, Fips197Aes128Vector)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    auto plain = fromHex("00112233445566778899aabbccddeeff");
    Aes aes(key.data(), key.size());
    EXPECT_EQ(aes.rounds(), 10);

    std::uint8_t out[16];
    aes.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256Vector)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f");
    auto plain = fromHex("00112233445566778899aabbccddeeff");
    Aes aes(key.data(), key.size());
    EXPECT_EQ(aes.rounds(), 14);

    std::uint8_t out[16];
    aes.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, InPlaceEncryptionIsSafe)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    Aes aes(key.data(), key.size());
    auto buf = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(buf.data(), buf.data());
    EXPECT_EQ(toHex(buf.data(), 16),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, FourLanesMatchFourSingleBlocks)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f");
    Aes aes(key.data(), key.size());
    std::uint8_t in[64];
    for (int i = 0; i < 64; ++i)
        in[i] = static_cast<std::uint8_t>(i * 29 + 3);

    std::uint8_t want[64];
    for (int b = 0; b < 4; ++b)
        aes.encryptBlock(in + 16 * b, want + 16 * b);
    std::uint8_t out[64];
    aes.encryptBlocks4(in, out);
    EXPECT_EQ(toHex(out, 64), toHex(want, 64));

    aes.encryptBlocks4(in, in); // in place
    EXPECT_EQ(toHex(in, 64), toHex(want, 64));
}

TEST(GcmTest, NistTestCase3NoAad)
{
    // NIST GCM spec, test case 3 (AES-128, 96-bit IV, 64-byte text).
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b391aafd255");
    auto expect_ct = fromHex(
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091473f5985");

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), nullptr, 0,
                cipher.data(), tag);
    EXPECT_EQ(cipher, expect_ct);
    EXPECT_EQ(toHex(tag, 16), "4d5c2af327cd64a62cf35abd2ba6fab4");

    std::vector<std::uint8_t> recovered(plain.size());
    EXPECT_TRUE(gcm.decrypt(iv.data(), cipher.data(), cipher.size(),
                            nullptr, 0, tag, recovered.data()));
    EXPECT_EQ(recovered, plain);
}

TEST(GcmTest, NistTestCase4WithAad)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39");
    auto aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), aad.data(),
                aad.size(), cipher.data(), tag);
    EXPECT_EQ(toHex(tag, 16), "5bc94fbc3221a5db94fae95ae7121a47");
    EXPECT_EQ(toHex(cipher.data(), 16),
              "42831ec2217774244b7221b784d0d49c");
}

TEST(GcmTest, NistTestCase14Aes256ZeroKey)
{
    // NIST GCM spec, test cases 14-16 (AES-256): the key size the
    // eCryptfs extents use.
    std::vector<std::uint8_t> key(32, 0), plain(16, 0);
    std::uint8_t iv[12] = {};

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv, plain.data(), plain.size(), nullptr, 0, cipher.data(),
                tag);
    EXPECT_EQ(toHex(cipher.data(), cipher.size()),
              "cea7403d4d606b6e074ec5d3baf39d18");
    EXPECT_EQ(toHex(tag, 16), "d0d1c8a799996bf0265b98b5d48ab919");
}

TEST(GcmTest, NistTestCase15Aes256NoAad)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308"
                       "feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b391aafd255");
    auto expect_ct = fromHex(
        "522dc1f099567d07f47f37a32a84427d"
        "643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838"
        "c5f61e6393ba7a0abcc9f662898015ad");

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), nullptr, 0,
                cipher.data(), tag);
    EXPECT_EQ(cipher, expect_ct);
    EXPECT_EQ(toHex(tag, 16), "b094dac5d93471bdec1a502270e3cc6c");

    std::vector<std::uint8_t> recovered(plain.size());
    EXPECT_TRUE(gcm.decrypt(iv.data(), cipher.data(), cipher.size(),
                            nullptr, 0, tag, recovered.data()));
    EXPECT_EQ(recovered, plain);
}

TEST(GcmTest, NistTestCase16Aes256WithAad)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308"
                       "feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39");
    auto aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    auto expect_ct = fromHex(
        "522dc1f099567d07f47f37a32a84427d"
        "643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838"
        "c5f61e6393ba7a0abcc9f662");

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), aad.data(),
                aad.size(), cipher.data(), tag);
    EXPECT_EQ(cipher, expect_ct);
    EXPECT_EQ(toHex(tag, 16), "76fc6ece0f4e1768cddf8853bb2d551b");

    std::vector<std::uint8_t> recovered(plain.size());
    EXPECT_TRUE(gcm.decrypt(iv.data(), cipher.data(), cipher.size(),
                            aad.data(), aad.size(), tag,
                            recovered.data()));
    EXPECT_EQ(recovered, plain);
}

TEST(GcmTest, TamperedCiphertextFailsAndZeroes)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    std::vector<std::uint8_t> plain(100, 0x5a);

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), nullptr, 0,
                cipher.data(), tag);

    cipher[50] ^= 1;
    std::vector<std::uint8_t> out(plain.size(), 0xff);
    EXPECT_FALSE(gcm.decrypt(iv.data(), cipher.data(), cipher.size(),
                             nullptr, 0, tag, out.data()));
    for (std::uint8_t b : out)
        EXPECT_EQ(b, 0); // unverified plaintext is never released
}

TEST(GcmTest, TagAndCtrSplitEncrypt)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    std::vector<std::uint8_t> plain(200);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 5);

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), aad.data(),
                aad.size(), cipher.data(), tag);

    std::uint8_t got[16];
    gcm.tag(iv.data(), cipher.data(), cipher.size(), aad.data(), aad.size(),
            got);
    EXPECT_EQ(toHex(got, 16), toHex(tag, 16));

    std::vector<std::uint8_t> out(plain.size());
    gcm.ctr(iv.data(), cipher.data(), cipher.size(), out.data());
    EXPECT_EQ(out, plain);
}

TEST(GcmTest, TamperedTagFails)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    std::vector<std::uint8_t> plain(64, 1);
    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(64);
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), 64, nullptr, 0, cipher.data(),
                tag);
    tag[0] ^= 0x80;
    std::vector<std::uint8_t> out(64);
    EXPECT_FALSE(gcm.decrypt(iv.data(), cipher.data(), 64, nullptr, 0,
                             tag, out.data()));
}

class GcmSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GcmSizeTest, RoundTripArbitrarySizes)
{
    std::size_t n = GetParam();
    auto key = fromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f");
    std::uint8_t iv[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};

    std::vector<std::uint8_t> plain(n);
    for (std::size_t i = 0; i < n; ++i)
        plain[i] = static_cast<std::uint8_t>(i * 13 + 7);

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(n), out(n);
    std::uint8_t tag[16];
    gcm.encrypt(iv, plain.data(), n, nullptr, 0, cipher.data(), tag);
    ASSERT_TRUE(
        gcm.decrypt(iv, cipher.data(), n, nullptr, 0, tag, out.data()));
    EXPECT_EQ(out, plain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeTest,
                         ::testing::Values(1, 15, 16, 17, 31, 33, 100,
                                           4096, 65536,
                                           // Edges of the four-lane CTR
                                           // loop and its 16-byte tail.
                                           48, 63, 64, 65, 127, 128, 129,
                                           192, 193));

// ---- reference model ---------------------------------------------------
//
// The straightforward FIPS 197 / SP 800-38D construction the table-driven
// library code must agree with bit for bit: a byte-wise AES round (S-box
// derived here from the field inverse, not copied from the library) and
// a bit-serial GF(2^128) multiply.

namespace ref {

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint8_t
gf8Mul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    for (; b; b >>= 1, a = xtime(a))
        if (b & 1)
            p ^= a;
    return p;
}

/** S[x] = affine(x^-1), the FIPS 197 §5.1.1 definition. */
std::vector<std::uint8_t>
makeSbox()
{
    std::vector<std::uint8_t> sbox(256);
    for (int x = 0; x < 256; ++x) {
        std::uint8_t inv = 0;
        for (int y = 1; x && y < 256; ++y)
            if (gf8Mul(static_cast<std::uint8_t>(x),
                       static_cast<std::uint8_t>(y)) == 1)
                inv = static_cast<std::uint8_t>(y);
        std::uint8_t s = 0x63;
        for (int r = 0; r < 5; ++r)
            s ^= static_cast<std::uint8_t>((inv << r) | (inv >> (8 - r)));
        sbox[x] = s;
    }
    return sbox;
}

const std::vector<std::uint8_t> &
sbox()
{
    static const std::vector<std::uint8_t> s = makeSbox();
    return s;
}

/** Byte-wise AES: key expansion plus SubBytes/ShiftRows/MixColumns. */
class Aes
{
  public:
    Aes(const std::uint8_t *key, std::size_t key_bytes)
    {
        int nk = static_cast<int>(key_bytes / 4);
        rounds_ = nk + 6;
        int words = 4 * (rounds_ + 1);
        w_.resize(4 * words);
        std::memcpy(w_.data(), key, key_bytes);
        std::uint8_t rcon = 1;
        for (int i = nk; i < words; ++i) {
            std::uint8_t t[4];
            std::memcpy(t, &w_[4 * (i - 1)], 4);
            if (i % nk == 0) {
                std::uint8_t t0 = t[0];
                t[0] = static_cast<std::uint8_t>(sbox()[t[1]] ^ rcon);
                t[1] = sbox()[t[2]];
                t[2] = sbox()[t[3]];
                t[3] = sbox()[t0];
                rcon = xtime(rcon);
            } else if (nk > 6 && i % nk == 4) {
                for (auto &b : t)
                    b = sbox()[b];
            }
            for (int b = 0; b < 4; ++b)
                w_[4 * i + b] = w_[4 * (i - nk) + b] ^ t[b];
        }
    }

    void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const
    {
        std::uint8_t s[16];
        std::memcpy(s, in, 16);
        auto addRoundKey = [&](int round) {
            for (int i = 0; i < 16; ++i)
                s[i] ^= w_[16 * round + i];
        };
        auto subBytes = [&] {
            for (auto &b : s)
                b = sbox()[b];
        };
        auto shiftRows = [&] {
            std::uint8_t t[16];
            std::memcpy(t, s, 16);
            // State is column-major: s[4c + r] is row r, column c.
            for (int r = 1; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    s[4 * c + r] = t[4 * ((c + r) % 4) + r];
        };
        auto mixColumns = [&] {
            for (int c = 0; c < 4; ++c) {
                std::uint8_t *col = s + 4 * c;
                std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                             a3 = col[3];
                std::uint8_t all =
                    static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
                col[0] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
                col[1] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
                col[2] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
                col[3] ^= static_cast<std::uint8_t>(
                    all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
            }
        };

        addRoundKey(0);
        for (int round = 1; round < rounds_; ++round) {
            subBytes();
            shiftRows();
            mixColumns();
            addRoundKey(round);
        }
        subBytes();
        shiftRows();
        addRoundKey(rounds_);
        std::memcpy(out, s, 16);
    }

  private:
    int rounds_;
    std::vector<std::uint8_t> w_; //!< expanded key, bytewise
};

/** GF(2^128) multiply: x = x * y in GCM's bit-reflected field. */
void
gf128Mul(std::uint8_t x[16], const std::uint8_t y[16])
{
    std::uint8_t z[16] = {};
    std::uint8_t v[16];
    std::memcpy(v, y, 16);

    for (int i = 0; i < 128; ++i) {
        int byte = i / 8;
        int bit = 7 - (i % 8);
        if ((x[byte] >> bit) & 1) {
            for (int j = 0; j < 16; ++j)
                z[j] ^= v[j];
        }
        // v = v >> 1, with reduction by R = 0xe1 || 0^120.
        bool lsb = v[15] & 1;
        for (int j = 15; j > 0; --j)
            v[j] = static_cast<std::uint8_t>((v[j] >> 1) |
                                             ((v[j - 1] & 1) << 7));
        v[0] >>= 1;
        if (lsb)
            v[0] ^= 0xe1;
    }
    std::memcpy(x, z, 16);
}

/** SP 800-38D GCM-AE with a 96-bit IV. */
void
gcmEncrypt(const std::vector<std::uint8_t> &key, const std::uint8_t iv[12],
           const std::vector<std::uint8_t> &plain,
           const std::vector<std::uint8_t> &aad,
           std::vector<std::uint8_t> &cipher, std::uint8_t tag[16])
{
    Aes aes(key.data(), key.size());
    std::uint8_t h[16] = {};
    aes.encryptBlock(h, h);

    std::uint8_t j0[16] = {};
    std::memcpy(j0, iv, 12);
    j0[15] = 1;
    std::uint8_t ctr[16];
    std::memcpy(ctr, j0, 16);

    cipher.resize(plain.size());
    for (std::size_t off = 0; off < plain.size(); off += 16) {
        // inc32: the low 32 bits count, big-endian.
        for (int i = 15; i >= 12; --i)
            if (++ctr[i] != 0)
                break;
        std::uint8_t ks[16];
        aes.encryptBlock(ctr, ks);
        for (std::size_t i = 0; i < 16 && off + i < plain.size(); ++i)
            cipher[off + i] = plain[off + i] ^ ks[i];
    }

    std::uint8_t y[16] = {};
    auto absorb = [&](const std::vector<std::uint8_t> &data) {
        for (std::size_t off = 0; off < data.size(); off += 16) {
            for (std::size_t i = 0; i < 16 && off + i < data.size(); ++i)
                y[i] ^= data[off + i];
            gf128Mul(y, h);
        }
    };
    absorb(aad);
    absorb(cipher);
    std::uint64_t bits[2] = {aad.size() * 8, cipher.size() * 8};
    for (int i = 0; i < 16; ++i)
        y[i] ^= static_cast<std::uint8_t>(bits[i / 8] >> (8 * (7 - i % 8)));
    gf128Mul(y, h);

    std::uint8_t ek_j0[16];
    aes.encryptBlock(j0, ek_j0);
    for (int i = 0; i < 16; ++i)
        tag[i] = y[i] ^ ek_j0[i];
}

} // namespace ref

std::vector<std::uint8_t>
randomBytes(std::mt19937_64 &rng, std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng());
    return out;
}

/**
 * Text lengths for the reference tests: block and page edges, the
 * 256 KiB eCryptfs extent, and the edges of the four-lane CTR loop
 * (48..193: 3 blocks, 4 blocks +/- 1 byte, 8 blocks +/- 1, 12 blocks,
 * 12 blocks + 1) that exercise its 16-byte tail.
 */
constexpr std::size_t kRefTextLens[] = {0,   1,   15,  16,   17,   48,
                                        63,  64,  65,  127,  128,  129,
                                        192, 193, 4095, 4101, 262144};

TEST(ReferenceTest, GcmMatchesBitSerialReference)
{
    std::mt19937_64 rng(14);
    for (std::size_t key_bytes : {16u, 32u}) {
        for (std::size_t len : kRefTextLens) {
            for (std::size_t aad_len : {0u, 1u, 13u, 16u, 20u, 64u, 65u,
                                        4101u}) {
                SCOPED_TRACE(testing::Message()
                             << "key " << key_bytes << " len " << len
                             << " aad " << aad_len);
                auto key = randomBytes(rng, key_bytes);
                auto iv = randomBytes(rng, kGcmIvBytes);
                auto plain = randomBytes(rng, len);
                auto aad = randomBytes(rng, aad_len);

                std::vector<std::uint8_t> want_ct;
                std::uint8_t want_tag[16];
                ref::gcmEncrypt(key, iv.data(), plain, aad, want_ct,
                                want_tag);

                AesGcm gcm(key.data(), key_bytes);
                std::vector<std::uint8_t> cipher(len);
                std::uint8_t tag[16];
                gcm.encrypt(iv.data(), plain.data(), len, aad.data(),
                            aad_len, cipher.data(), tag);
                ASSERT_EQ(cipher, want_ct);
                ASSERT_EQ(toHex(tag, 16), toHex(want_tag, 16));

                std::vector<std::uint8_t> out(len);
                ASSERT_TRUE(gcm.decrypt(iv.data(), cipher.data(), len,
                                        aad.data(), aad_len, tag,
                                        out.data()));
                ASSERT_EQ(out, plain);
            }
        }
    }
}

TEST(ReferenceTest, InPlaceGcmMatchesReference)
{
    // The GPU kernel body encrypts and decrypts the device buffer in
    // place (cipher == plain).
    std::mt19937_64 rng(15);
    for (std::size_t key_bytes : {16u, 32u}) {
        for (std::size_t len : kRefTextLens) {
            if (len == 0)
                continue; // no buffer to alias
            for (std::size_t aad_len : {0u, 64u, 65u, 4101u}) {
                SCOPED_TRACE(testing::Message()
                             << "key " << key_bytes << " len " << len
                             << " aad " << aad_len);
                auto key = randomBytes(rng, key_bytes);
                auto iv = randomBytes(rng, kGcmIvBytes);
                auto plain = randomBytes(rng, len);
                auto aad = randomBytes(rng, aad_len);

                std::vector<std::uint8_t> want_ct;
                std::uint8_t want_tag[16];
                ref::gcmEncrypt(key, iv.data(), plain, aad, want_ct,
                                want_tag);

                AesGcm gcm(key.data(), key_bytes);
                std::vector<std::uint8_t> buf = plain;
                std::uint8_t tag[16];
                gcm.encrypt(iv.data(), buf.data(), len, aad.data(),
                            aad_len, buf.data(), tag);
                ASSERT_EQ(buf, want_ct);
                ASSERT_EQ(toHex(tag, 16), toHex(want_tag, 16));

                ASSERT_TRUE(gcm.decrypt(iv.data(), buf.data(), len,
                                        aad.data(), aad_len, tag,
                                        buf.data()));
                ASSERT_EQ(buf, plain);

                // A forged tag leaves the in-place buffer zeroed, never
                // keystream-decrypted.
                buf = want_ct;
                tag[15] ^= 1;
                ASSERT_FALSE(gcm.decrypt(iv.data(), buf.data(), len,
                                         aad.data(), aad_len, tag,
                                         buf.data()));
                ASSERT_EQ(buf, std::vector<std::uint8_t>(len, 0));
            }
        }
    }
}

// ---- engines ----------------------------------------------------------

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
    CpuCipher sw(key_, 32, lake_.clock(), cpu);
    AesNiCipher ni(key_, 32, lake_.clock(), cpu);
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
    CpuCipher sw(key_, 32, lake_.clock(), cpu);
    AesNiCipher ni(key_, 32, lake_.clock(), cpu);
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
    AesNiCipher ni(key_, 32, lake_.clock(), cpu);
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
