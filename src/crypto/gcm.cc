#include "crypto/gcm.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/logging.h"

namespace lake::crypto {

namespace {

/**
 * Reduction of the eight bits shifted out of the low end of Z by one
 * Z·x^8 step: the multiple of R = 0xe1 || 0^120 to fold into the top
 * 16 bits (McGrew & Viega, "The Galois/Counter Mode of Operation",
 * §4.1). Entry r is eight single-bit shifts of r with reduction.
 */
constexpr std::array<std::uint16_t, 256>
makeLast8()
{
    std::array<std::uint16_t, 256> t{};
    for (unsigned r = 0; r < 256; ++r) {
        std::uint64_t hi = 0, lo = r;
        for (int k = 0; k < 8; ++k) {
            std::uint64_t reduce = (lo & 1) * 0xe100000000000000ULL;
            lo = (hi << 63) | (lo >> 1);
            hi = (hi >> 1) ^ reduce;
        }
        t[r] = static_cast<std::uint16_t>(hi >> 48);
    }
    return t;
}

constexpr std::array<std::uint16_t, 256> kLast8 = makeLast8();

std::uint64_t
loadBe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v = (v << 8) | p[i];
    return v;
}

void
inc32(std::uint8_t block[16])
{
    for (int i = 15; i >= 12; --i) {
        if (++block[i] != 0)
            break;
    }
}

void
putBe64(std::uint8_t *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

} // namespace

AesGcm::AesGcm(const std::uint8_t *key, std::size_t key_bytes)
    : aes_(key, key_bytes)
{
    std::uint8_t zero[16] = {};
    std::uint8_t h[16];
    aes_.encryptBlock(zero, h);

    // hh_/hl_[n] = n·H for every byte n, where n's bits are x^0..x^7
    // from its most significant bit down. H itself is entry 128; each
    // halving of the index is one multiplication by x (a right shift
    // in GCM's bit-reflected order); the rest are XOR sums.
    std::uint64_t vh = loadBe64(h);
    std::uint64_t vl = loadBe64(h + 8);
    hh_[0] = 0;
    hl_[0] = 0;
    hh_[128] = vh;
    hl_[128] = vl;
    for (int i = 64; i > 0; i >>= 1) {
        std::uint64_t reduce = (vl & 1) * 0xe100000000000000ULL;
        vl = (vh << 63) | (vl >> 1);
        vh = (vh >> 1) ^ reduce;
        hh_[i] = vh;
        hl_[i] = vl;
    }
    for (int i = 2; i <= 128; i <<= 1) {
        for (int j = 1; j < i; ++j) {
            hh_[i + j] = hh_[i] ^ hh_[j];
            hl_[i + j] = hl_[i] ^ hl_[j];
        }
    }
}

void
AesGcm::mulH(std::uint64_t &yh, std::uint64_t &yl) const
{
    // Horner over the 16 bytes of Y, last byte first (step i takes
    // byte 15 - i): Z = Z·x^8 + byte·H at each step.
    std::uint64_t zh = 0, zl = 0;
    for (int i = 0; i < 16; ++i) {
        std::uint64_t word = i < 8 ? yl : yh;
        unsigned byte = static_cast<unsigned>(word >> (8 * (i % 8))) & 0xff;
        unsigned rem = static_cast<unsigned>(zl & 0xff);
        zl = (zh << 56) | (zl >> 8);
        zh = (zh >> 8) ^ (static_cast<std::uint64_t>(kLast8[rem]) << 48) ^
             hh_[byte];
        zl ^= hl_[byte];
    }
    yh = zh;
    yl = zl;
}

void
AesGcm::ghash(const std::uint8_t *aad, std::size_t aad_len,
              const std::uint8_t *text, std::size_t text_len,
              std::uint8_t out[16]) const
{
    std::uint64_t yh = 0, yl = 0;
    auto absorb = [&](const std::uint8_t *data, std::size_t len) {
        for (std::size_t off = 0; off < len; off += 16) {
            const std::uint8_t *block = data + off;
            std::uint8_t padded[16] = {};
            if (len - off < 16) {
                std::memcpy(padded, block, len - off);
                block = padded;
            }
            yh ^= loadBe64(block);
            yl ^= loadBe64(block + 8);
            mulH(yh, yl);
        }
    };
    if (aad_len)
        absorb(aad, aad_len);
    if (text_len)
        absorb(text, text_len);

    yh ^= static_cast<std::uint64_t>(aad_len) * 8;
    yl ^= static_cast<std::uint64_t>(text_len) * 8;
    mulH(yh, yl);
    putBe64(out, yh);
    putBe64(out + 8, yl);
}

void
AesGcm::ctr(const std::uint8_t *iv, const std::uint8_t *in,
            std::size_t len, std::uint8_t *out) const
{
    // J0 = IV || 0^31 || 1 for 96-bit IVs; the first keystream block
    // is E(K, inc32(J0)).
    std::uint8_t j[16] = {};
    std::memcpy(j, iv, kGcmIvBytes);
    j[15] = 1;

    // Four counter blocks per AES call while a full 64 bytes remain,
    // then one block at a time for the tail.
    std::uint8_t ctrs[64], keystream[64];
    std::size_t off = 0;
    for (; len - off >= 64; off += 64) {
        for (int b = 0; b < 4; ++b) {
            inc32(j);
            std::memcpy(ctrs + 16 * b, j, 16);
        }
        aes_.encryptBlocks4(ctrs, keystream);
        // A word at a time: in and out may alias, so the compiler will
        // not widen a byte loop on its own.
        for (std::size_t i = 0; i < 64; i += 8) {
            std::uint64_t a, k;
            std::memcpy(&a, in + off + i, 8);
            std::memcpy(&k, keystream + i, 8);
            a ^= k;
            std::memcpy(out + off + i, &a, 8);
        }
    }
    for (; off < len; off += 16) {
        inc32(j);
        aes_.encryptBlock(j, keystream);
        std::size_t n = std::min<std::size_t>(16, len - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] = static_cast<std::uint8_t>(in[off + i] ^
                                                     keystream[i]);
    }
}

void
AesGcm::tag(const std::uint8_t *iv, const std::uint8_t *cipher,
            std::size_t len, const std::uint8_t *aad, std::size_t aad_len,
            std::uint8_t out[kGcmTagBytes]) const
{
    std::uint8_t j0[16] = {};
    std::memcpy(j0, iv, kGcmIvBytes);
    j0[15] = 1;

    std::uint8_t s[16];
    ghash(aad, aad_len, cipher, len, s);
    std::uint8_t ek_j0[16];
    aes_.encryptBlock(j0, ek_j0);
    for (int i = 0; i < 16; ++i)
        out[i] = static_cast<std::uint8_t>(s[i] ^ ek_j0[i]);
}

void
AesGcm::encrypt(const std::uint8_t *iv, const std::uint8_t *plain,
                std::size_t len, const std::uint8_t *aad,
                std::size_t aad_len, std::uint8_t *cipher,
                std::uint8_t tag_out[kGcmTagBytes]) const
{
    ctr(iv, plain, len, cipher);
    tag(iv, cipher, len, aad, aad_len, tag_out);
}

bool
AesGcm::decrypt(const std::uint8_t *iv, const std::uint8_t *cipher,
                std::size_t len, const std::uint8_t *aad,
                std::size_t aad_len, const std::uint8_t tag_in[kGcmTagBytes],
                std::uint8_t *plain) const
{
    std::uint8_t want[kGcmTagBytes];
    tag(iv, cipher, len, aad, aad_len, want);
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < kGcmTagBytes; ++i)
        diff |= static_cast<std::uint8_t>(tag_in[i] ^ want[i]);

    // Verify before the CTR pass: a forged extent never has keystream
    // applied, even in place in device memory.
    if (diff != 0) {
        std::memset(plain, 0, len);
        return false;
    }
    ctr(iv, cipher, len, plain);
    return true;
}

} // namespace lake::crypto
