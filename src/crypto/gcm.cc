#include "crypto/gcm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

#include "base/logging.h"

namespace lake::crypto {

namespace {

#if LAKE_CRYPTO_AESNI

// Field elements live in registers byte-reversed from GCM's order, so
// bit 127 of the register is GCM's x^0 coefficient and bit 0 its x^127.
//
// The bulk loops below are templates over the register type V: __m128i
// carries one 16-byte block, __m512i (VAES/VPCLMULQDQ) four, lane 0 the
// block at the lowest address. XOR is GCC's vector ^; the overloads and
// `if constexpr` branches here are the only places the widths differ.

using detail::splat;

template <typename V>
V
loadu(const void *p)
{
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename V>
void
storeu(void *p, V v)
{
    std::memcpy(p, &v, sizeof v);
}

template <int Imm>
__m128i
clmul(__m128i a, __m128i b)
{
    return _mm_clmulepi64_si128(a, b, Imm);
}

/** Shuffles the bytes of each block by @p index. */
__m128i
shuffleBytes(__m128i v, __m128i index)
{
    return _mm_shuffle_epi8(v, index);
}

/** Swaps the two 64-bit halves of each block. */
__m128i
swapHalves(__m128i v)
{
    return _mm_shuffle_epi32(v, 0x4e);
}

/** XOR of a register's blocks. */
__m128i
foldBlocks(__m128i v)
{
    return v;
}

#if LAKE_CRYPTO_VAES

template <int Imm>
__m512i
clmul(__m512i a, __m512i b)
{
    return _mm512_clmulepi64_epi128(a, b, Imm);
}

__m512i
shuffleBytes(__m512i v, __m128i index)
{
    return _mm512_shuffle_epi8(v, splat<__m512i>(index));
}

// Masked forms with a full mask, as in detail::splat.

__m512i
swapHalves(__m512i v)
{
    return _mm512_maskz_shuffle_epi32(0xffff, v, _MM_PERM_BADC);
}

__m128i
foldBlocks(__m512i v)
{
    const __m256i t = _mm512_maskz_extracti64x4_epi64(0xff, v, 0) ^
                      _mm512_maskz_extracti64x4_epi64(0xff, v, 1);
    return _mm256_castsi256_si128(t) ^ _mm256_extracti128_si256(t, 1);
}

#endif // LAKE_CRYPTO_VAES

/**
 * Reverses the 16 bytes of each block: GCM's byte order to the register
 * form, and back.
 */
template <typename V>
V
reverseBytes(V v)
{
    return shuffleBytes(v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                        11, 12, 13, 14, 15));
}

/**
 * The byte swap between a counter block in GCM's order and the counter
 * register, where the counter word (bytes 12..15, big-endian) sits
 * byte-swapped in lane 3; it is its own inverse.
 */
__m128i
swapCtr()
{
    return _mm_set_epi8(12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1,
                        0);
}

/**
 * Advances the counter register @p count by one per block of @p ks
 * (_mm_add_epi32 wraps the counter word mod 2^32 exactly as inc32
 * does) and sets @p ks to those counter blocks in GCM byte order.
 */
template <typename V>
void
nextCounters(__m128i &count, V &ks)
{
    if constexpr (sizeof(V) == 16) {
        count = _mm_add_epi32(count, _mm_set_epi32(1, 0, 0, 0));
        ks = shuffleBytes(count, swapCtr());
    }
#if LAKE_CRYPTO_VAES
    else {
        // Block k's counter word is count + k + 1.
        const __m512i steps = _mm512_set_epi32(4, 0, 0, 0, 3, 0, 0, 0, 2,
                                               0, 0, 0, 1, 0, 0, 0);
        ks = shuffleBytes(_mm512_add_epi32(splat<V>(count), steps),
                          swapCtr());
        count = _mm_add_epi32(count, _mm_set_epi32(4, 0, 0, 0));
    }
#endif
}

/**
 * A 256-bit carry-less product before reduction, block by block: the
 * a_lo·b_lo and a_hi·b_hi halves and the sum of the two cross terms.
 * Products XOR into it, so several multiplications share one reduce().
 */
template <typename V>
struct Wide
{
    V lo;
    V mid;
    V hi;
};

/** The unreduced product a·b, block by block. */
template <typename V>
Wide<V>
product(V a, V b)
{
    return {clmul<0x00>(a, b), clmul<0x10>(a, b) ^ clmul<0x01>(a, b),
            clmul<0x11>(a, b)};
}

/** acc += a·b. */
template <typename V>
void
mulAdd(Wide<V> &acc, V a, V b)
{
    const Wide<V> p = product(a, b);
    acc.lo ^= p.lo;
    acc.mid ^= p.mid;
    acc.hi ^= p.hi;
}

/**
 * Reduces each block's product to one field element by Montgomery
 * reduction. In the register's bit order the field is GF(2)[t] modulo
 * t^128 + t^127 + t^126 + t^121 + 1; each of two steps cancels the low
 * 64 bits with a multiple of it (one carry-less multiply by 0xc2 << 56
 * and a swap of halves) and drops them, so the product is divided by
 * t^128. The register product of two reversed elements a and b is the
 * reversal of a·b one bit short, and the division turns it into the
 * reversal of a·b·x; the caller's b carries a factor x^-1 (see
 * AesGcm::h_pow_), so the result is the reversed a·b.
 */
template <typename V>
V
reduce(const Wide<V> &acc)
{
    const V poly = splat<V>(
        _mm_set_epi64x(0, static_cast<long long>(0xc200000000000000ULL)));
    const V mid = acc.mid ^ swapHalves(acc.lo) ^ clmul<0x00>(acc.lo, poly);
    return acc.hi ^ swapHalves(mid) ^ clmul<0x00>(mid, poly);
}

/** a·b for b stored as AesGcm::h_pow_ stores its powers. */
__m128i
gfMul(__m128i a, __m128i b)
{
    return reduce(product(a, b));
}

/**
 * b·x^-1: in the register's bit order, a left shift by one, bit 127 (x^0)
 * coming back as x^-1 = x^127 + x^6 + x + 1.
 */
__m128i
divX(__m128i b)
{
    const std::uint64_t lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(b));
    const std::uint64_t hi = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(b, b)));
    const std::uint64_t wrap = hi >> 63;
    return _mm_set_epi64x(
        static_cast<long long>((hi << 1 | lo >> 63) ^
                               wrap * 0xc200000000000000ULL),
        static_cast<long long>(lo << 1 ^ wrap));
}

/**
 * One aggregated GHASH step over the n = R·sizeof(V)/16 blocks X0..
 * X(n-1) at @p p: Y = (Y + X0)·H^n + X1·H^(n-1) + ... + X(n-1)·H, the
 * same value as n Horner steps, with one reduction (aggregated
 * reduction; lanes are reduced side by side, then summed). @p hp
 * points at H^n, the lower powers following in order.
 */
template <typename V, int R>
__m128i
ghashStep(__m128i y, const std::uint8_t *p, const __m128i *hp)
{
    constexpr int kBlocks = sizeof(V) / 16;
    auto block = [&](int r) {
        return reverseBytes(loadu<V>(p + sizeof(V) * r));
    };
    auto power = [&](int r) { return loadu<V>(hp + kBlocks * r); };
    // Y's product is added last: the others do not wait for Y.
    Wide<V> acc{};
#pragma GCC unroll 8
    for (int r = 1; r < R; ++r)
        mulAdd(acc, block(r), power(r));
    V first = block(0);
    if constexpr (sizeof(V) == 16)
        first ^= y;
#if LAKE_CRYPTO_VAES
    else
        first = _mm512_mask_xor_epi64(first, 0x03, first,
                                      _mm512_castsi128_si512(y));
#endif
    mulAdd(acc, first, power(0));
    return foldBlocks(reduce(acc));
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
    const __m128i h1 = divX(reverseBytes(loadu<__m128i>(h)));
    h_pow_[kHPowers - 1] = h1;
    for (int i = kHPowers - 2; i >= 0; --i)
        h_pow_[i] = gfMul(h_pow_[i + 1], h1);
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
    // absorb takes and returns Y by value, so Y stays in a register
    // across the loop instead of round-tripping through memory.
    const __m128i *h = h_pow_ + kHPowers - 1;
    auto absorb = [h](__m128i y, const std::uint8_t *data,
                      std::size_t len) {
        const std::size_t blocks = len / 16;
        std::size_t i = 0;
        // Sixteen, then eight blocks per reduction, then one.
#if LAKE_CRYPTO_VAES
        for (; i + 16 <= blocks; i += 16)
            y = ghashStep<__m512i, 4>(y, data + 16 * i, h - 15);
#endif
        for (; i + 8 <= blocks; i += 8)
            y = ghashStep<__m128i, 8>(y, data + 16 * i, h - 7);
        for (; i < blocks; ++i)
            y = ghashStep<__m128i, 1>(y, data + 16 * i, h);
        if (len % 16 != 0) {
            std::uint8_t padded[16] = {};
            std::memcpy(padded, data + 16 * blocks, len % 16);
            y = ghashStep<__m128i, 1>(y, padded, h);
        }
        return y;
    };
    __m128i y = _mm_setzero_si128();
    if (aad_len)
        y = absorb(y, aad, aad_len);
    if (text_len)
        y = absorb(y, text, text_len);

    // len(A) || len(C) in bits, each big-endian 64: reversed, the text
    // length is the low quadword and the AAD length the high one.
    const __m128i lens =
        _mm_set_epi64x(static_cast<long long>(aad_len * 8),
                       static_cast<long long>(text_len * 8));
    y = gfMul(y ^ lens, *h);
    storeu(out, reverseBytes(y));
}

void
AesGcm::ctr(const std::uint8_t *iv, const std::uint8_t *in,
            std::size_t len, std::uint8_t *out) const
{
    // J0 = IV || 0^31 || 1 for 96-bit IVs; the first keystream block
    // is E(K, inc32(J0)).
    std::uint8_t j0[16] = {};
    std::memcpy(j0, iv, kGcmIvBytes);
    j0[15] = 1;
    __m128i count = _mm_shuffle_epi8(loadu<__m128i>(j0), swapCtr());

    // One pass: the registers of @p ks filled with the next counter
    // blocks, through the AES rounds together, XORed into the text.
    // Each register of in is loaded before the same bytes of out are
    // stored, so in may alias out.
    std::size_t off = 0;
    auto pass = [&](auto &ks) {
        using V = std::remove_reference_t<decltype(ks[0])>;
#pragma GCC unroll 8
        for (V &k : ks)
            nextCounters(count, k);
        aes_.encryptLanes(ks);
#pragma GCC unroll 8
        for (const V &k : ks) {
            storeu(out + off, loadu<V>(in + off) ^ k);
            off += sizeof(V);
        }
    };
    // Sixteen blocks per pass while 256 bytes remain, then eight, then
    // one at a time; a partial last block takes its bytes from a whole
    // keystream block.
#if LAKE_CRYPTO_VAES
    while (len - off >= 256) {
        __m512i ks[4];
        pass(ks);
    }
#endif
    while (len - off >= 128) {
        __m128i ks[8];
        pass(ks);
    }
    while (len - off >= 16) {
        __m128i ks[1];
        pass(ks);
    }
    if (off < len) {
        __m128i ks[1];
        nextCounters(count, ks[0]);
        aes_.encryptLanes(ks);
        std::uint8_t bytes[16];
        storeu(bytes, ks[0]);
        for (std::size_t i = 0; off + i < len; ++i)
            out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ bytes[i]);
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
