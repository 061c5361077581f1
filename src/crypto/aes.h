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
 * Two bodies, one chosen by the build target: where it has AES-NI and
 * PCLMULQDQ (LAKE_CRYPTO_AESNI below) the rounds run `aesenc` and GCM's
 * GHASH runs carry-less multiplies; elsewhere the table-driven body
 * (T-table AES, Shoup byte-table GHASH) is the only path. Both produce
 * the same bytes; only the table body is not constant-time.
 */

#if defined(__AES__) && defined(__PCLMUL__) && defined(__SSSE3__)
#define LAKE_CRYPTO_AESNI 1
#include <immintrin.h>
#else
#define LAKE_CRYPTO_AESNI 0
#include <array>
#endif

#include <cstddef>
#include <cstdint>

namespace lake::crypto {

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
     * The one round body: @p L blocks side by side through each round,
     * so L independent `aesenc` chains fill the pipeline.
     */
    template <int L>
    void encryptLanes(__m128i (&b)[L]) const
    {
#pragma GCC unroll 8
        for (int l = 0; l < L; ++l)
            b[l] = _mm_xor_si128(b[l], round_keys_[0]);
        for (int r = 1; r < rounds_; ++r) {
            const __m128i k = round_keys_[r];
#pragma GCC unroll 8
            for (int l = 0; l < L; ++l)
                b[l] = _mm_aesenc_si128(b[l], k);
        }
#pragma GCC unroll 8
        for (int l = 0; l < L; ++l)
            b[l] = _mm_aesenclast_si128(b[l], round_keys_[rounds_]);
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
