#include "crypto/gcm.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/logging.h"

namespace lake::crypto {

namespace {

#if LAKE_CRYPTO_AESNI

__m128i
loadu(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

void
storeu(std::uint8_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

/**
 * Reverses the 16 bytes: GCM's byte order to the register form where
 * bit 127 is the x^0 coefficient, and back.
 */
__m128i
reverseBytes(__m128i v)
{
    const __m128i rev =
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    return _mm_shuffle_epi8(v, rev);
}

/**
 * A 256-bit carry-less product before reduction: lo and hi halves plus
 * the two cross terms, summed. Products XOR into it, so several
 * multiplications share one reduce().
 */
struct Wide
{
    __m128i lo = _mm_setzero_si128();
    __m128i mid = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
};

void
mulAdd(Wide &acc, __m128i a, __m128i b)
{
    acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
    acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
    acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(a, b, 0x10));
    acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(a, b, 0x01));
}

/**
 * Reduces a product of two byte-reversed field elements to one: the
 * product of bit-reflected operands comes out reflected and one bit
 * short, so shift the 256 bits left by one, then fold the low half
 * back modulo x^128 + x^7 + x^2 + x + 1 (the white paper's Algorithm 5
 * shift-and-XOR reduction).
 */
__m128i
reduce(const Wide &acc)
{
    __m128i lo = _mm_xor_si128(acc.lo, _mm_slli_si128(acc.mid, 8));
    __m128i hi = _mm_xor_si128(acc.hi, _mm_srli_si128(acc.mid, 8));

    // [hi:lo] <<= 1, carrying across the 32-bit lanes and the halves.
    __m128i lo_carry = _mm_srli_epi32(lo, 31);
    __m128i hi_carry = _mm_srli_epi32(hi, 31);
    lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
    hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
    hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));

    // Fold lo into hi in two shift-and-XOR phases: the 32-bit lane
    // shifts by 31, 30 and 25, then by 1, 2 and 7, are the x, x^2 and
    // x^7 terms of the polynomial in reflected order.
    __m128i a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
        _mm_slli_epi32(lo, 25));
    __m128i a_spill = _mm_srli_si128(a, 4);
    lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
    __m128i b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
        _mm_xor_si128(_mm_srli_epi32(lo, 7), a_spill));
    return _mm_xor_si128(hi, _mm_xor_si128(lo, b));
}

__m128i
gfMul(__m128i a, __m128i b)
{
    Wide acc;
    mulAdd(acc, a, b);
    return reduce(acc);
}

#else // !LAKE_CRYPTO_AESNI

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

#endif // LAKE_CRYPTO_AESNI

} // namespace

AesGcm::AesGcm(const std::uint8_t *key, std::size_t key_bytes)
    : aes_(key, key_bytes)
{
    std::uint8_t zero[16] = {};
    std::uint8_t h[16];
    aes_.encryptBlock(zero, h);

#if LAKE_CRYPTO_AESNI
    h_pow_[0] = reverseBytes(loadu(h));
    for (int i = 1; i < 8; ++i)
        h_pow_[i] = gfMul(h_pow_[i - 1], h_pow_[0]);
#else
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
#endif
}

#if LAKE_CRYPTO_AESNI

void
AesGcm::ghash(const std::uint8_t *aad, std::size_t aad_len,
              const std::uint8_t *text, std::size_t text_len,
              std::uint8_t out[16]) const
{
    __m128i y = _mm_setzero_si128();
    const __m128i h = h_pow_[0];
    auto absorb = [&](const std::uint8_t *data, std::size_t len) {
        const std::size_t blocks = len / 16;
        std::size_t i = 0;
        // Eight blocks per reduction: Y = (Y + X0)·H^8 + X1·H^7 + ...
        // + X7·H, the same value as eight Horner steps.
        for (; i + 8 <= blocks; i += 8) {
            Wide acc;
            const std::uint8_t *p = data + 16 * i;
            mulAdd(acc, _mm_xor_si128(y, reverseBytes(loadu(p))),
                   h_pow_[7]);
#pragma GCC unroll 7
            for (int l = 1; l < 8; ++l)
                mulAdd(acc, reverseBytes(loadu(p + 16 * l)), h_pow_[7 - l]);
            y = reduce(acc);
        }
        for (; i < blocks; ++i)
            y = gfMul(_mm_xor_si128(y, reverseBytes(loadu(data + 16 * i))),
                      h);
        if (len % 16 != 0) {
            std::uint8_t padded[16] = {};
            std::memcpy(padded, data + 16 * blocks, len % 16);
            y = gfMul(_mm_xor_si128(y, reverseBytes(loadu(padded))), h);
        }
    };
    if (aad_len)
        absorb(aad, aad_len);
    if (text_len)
        absorb(text, text_len);

    // len(A) || len(C) in bits, each big-endian 64: reversed, the text
    // length is the low quadword and the AAD length the high one.
    const __m128i lens =
        _mm_set_epi64x(static_cast<long long>(aad_len * 8),
                       static_cast<long long>(text_len * 8));
    y = gfMul(_mm_xor_si128(y, lens), h);
    storeu(out, reverseBytes(y));
}

void
AesGcm::ctr(const std::uint8_t *iv, const std::uint8_t *in,
            std::size_t len, std::uint8_t *out) const
{
    // J0 = IV || 0^31 || 1 for 96-bit IVs; the first keystream block
    // is E(K, inc32(J0)). The counter word (bytes 12..15, big-endian)
    // is kept byte-swapped in lane 3, where _mm_add_epi32 wraps it
    // mod 2^32 exactly as inc32 does.
    std::uint8_t j0[16] = {};
    std::memcpy(j0, iv, kGcmIvBytes);
    j0[15] = 1;
    const __m128i swap_ctr =
        _mm_set_epi8(12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m128i one = _mm_set_epi32(1, 0, 0, 0);
    __m128i count = _mm_shuffle_epi8(loadu(j0), swap_ctr);
    auto next = [&] {
        count = _mm_add_epi32(count, one);
        return _mm_shuffle_epi8(count, swap_ctr);
    };

    // Eight counter blocks per AES pass while 128 bytes remain, then
    // one block at a time. Each block of in is loaded before the same
    // block of out is stored, so in may alias out.
    std::size_t off = 0;
    for (; len - off >= 128; off += 128) {
        __m128i ks[8];
#pragma GCC unroll 8
        for (int l = 0; l < 8; ++l)
            ks[l] = next();
        aes_.encryptLanes(ks);
#pragma GCC unroll 8
        for (int l = 0; l < 8; ++l)
            storeu(out + off + 16 * l,
                   _mm_xor_si128(loadu(in + off + 16 * l), ks[l]));
    }
    for (; off < len; off += 16) {
        __m128i ks[1] = {next()};
        aes_.encryptLanes(ks);
        if (len - off >= 16) {
            storeu(out + off, _mm_xor_si128(loadu(in + off), ks[0]));
        } else {
            std::uint8_t bytes[16];
            storeu(bytes, ks[0]);
            for (std::size_t i = 0; i < len - off; ++i)
                out[off + i] =
                    static_cast<std::uint8_t>(in[off + i] ^ bytes[i]);
        }
    }
}

#else // !LAKE_CRYPTO_AESNI

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

#endif // LAKE_CRYPTO_AESNI

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
