#ifndef LAKE_CRYPTO_AES_H
#define LAKE_CRYPTO_AES_H

/**
 * @file
 * AES block cipher (FIPS 197), 128- and 256-bit keys.
 *
 * The eCryptfs case study (§7.7) needs a real cipher so encrypted file
 * contents round-trip bit-exactly across the CPU, AES-NI and GPU
 * engines. Only block *encryption* is implemented — CTR and GCM never
 * run the inverse cipher.
 *
 * Three bodies, one chosen by the build target:
 *  - VAES, VPCLMULQDQ and AVX-512 (LAKE_CRYPTO_VAES below): GCM's bulk
 *    loops run four blocks per 512-bit register through `vaesenc` and
 *    `vpclmulqdq`, and the AES-NI body below runs what is left over;
 *  - AES-NI and PCLMULQDQ (LAKE_CRYPTO_AESNI): the rounds run `aesenc`
 *    on 128-bit registers and GHASH runs carry-less multiplies;
 *  - elsewhere the table-driven body (T-table AES, Shoup byte-table
 *    GHASH) is the only path.
 * All three produce the same bytes; only the table body is not
 * constant-time.
 */

#if defined(__AES__) && defined(__PCLMUL__) && defined(__SSSE3__)
#define LAKE_CRYPTO_AESNI 1
#include <immintrin.h>
#else
#define LAKE_CRYPTO_AESNI 0
#include <array>
#endif

#if LAKE_CRYPTO_AESNI && defined(__VAES__) && defined(__VPCLMULQDQ__) &&   \
    defined(__AVX512F__) && defined(__AVX512BW__)
#define LAKE_CRYPTO_VAES 1
#else
#define LAKE_CRYPTO_VAES 0
#endif

#include <cstddef>
#include <cstdint>

namespace lake::crypto {

#if LAKE_CRYPTO_AESNI
namespace detail {

// AES-NI rounds on one block per __m128i or, with VAES, four per
// __m512i. The round keys are 128-bit; splat puts one in every block.

template <typename V>
V splat(__m128i k);

template <>
inline __m128i
splat<__m128i>(__m128i k)
{
    return k;
}

inline __m128i
aesRound(__m128i b, __m128i k)
{
    return _mm_aesenc_si128(b, k);
}

inline __m128i
aesLastRound(__m128i b, __m128i k)
{
    return _mm_aesenclast_si128(b, k);
}

#if LAKE_CRYPTO_VAES
// A full-mask broadcast: GCC 12's unmasked one passes an undefined
// register that -Wmaybe-uninitialized flags.
template <>
inline __m512i
splat<__m512i>(__m128i k)
{
    return _mm512_maskz_broadcast_i32x4(0xffff, k);
}

inline __m512i
aesRound(__m512i b, __m512i k)
{
    return _mm512_aesenc_epi128(b, k);
}

inline __m512i
aesLastRound(__m512i b, __m512i k)
{
    return _mm512_aesenclast_epi128(b, k);
}
#endif

} // namespace detail
#endif

/** AES key schedule + block encryption. */
class Aes
{
  public:
    /** Block size in bytes. */
    static constexpr std::size_t kBlockBytes = 16;

    /**
     * Expands @p key of @p key_bytes (16 for AES-128, 32 for AES-256).
     * Panics on any other key length.
     */
    Aes(const std::uint8_t *key, std::size_t key_bytes);

    /** Encrypts one 16-byte block (in-place safe: in may equal out). */
    void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

    /**
     * Encrypts four consecutive 16-byte blocks, interleaved round by
     * round so the four blocks' rounds overlap. In-place safe like
     * encryptBlock.
     */
    void encryptBlocks4(const std::uint8_t in[64],
                        std::uint8_t out[64]) const;

    /** Number of rounds (10 for AES-128, 14 for AES-256). */
    int rounds() const { return rounds_; }

  private:
#if LAKE_CRYPTO_AESNI
    /** AesGcm's CTR loop runs encryptLanes on its counter registers. */
    friend class AesGcm;

    /**
     * The one round body: @p L registers of blocks (__m128i, or __m512i
     * with VAES) side by side through each round, so L independent
     * `aesenc` chains fill the pipeline.
     */
    template <typename V, int L>
    void encryptLanes(V (&b)[L]) const
    {
        const V first = detail::splat<V>(round_keys_[0]);
#pragma GCC unroll 8
        for (int l = 0; l < L; ++l)
            b[l] ^= first;
        for (int r = 1; r < rounds_; ++r) {
            const V k = detail::splat<V>(round_keys_[r]);
#pragma GCC unroll 8
            for (int l = 0; l < L; ++l)
                b[l] = detail::aesRound(b[l], k);
        }
        const V last = detail::splat<V>(round_keys_[rounds_]);
#pragma GCC unroll 8
        for (int l = 0; l < L; ++l)
            b[l] = detail::aesLastRound(b[l], last);
    }

    int rounds_;
    /** Round keys as AES-NI takes them: FIPS 197 byte order. */
    __m128i round_keys_[15]{};
#else
    /** The one round body: @p L blocks side by side through each round. */
    template <int L>
    void encryptLanes(const std::uint8_t *in, std::uint8_t *out) const;

    int rounds_;
    /** Round keys: 4*(rounds+1) 32-bit words. */
    std::array<std::uint32_t, 60> round_keys_{};
#endif
};

} // namespace lake::crypto

#endif // LAKE_CRYPTO_AES_H
