#ifndef LAKE_CRYPTO_GCM_H
#define LAKE_CRYPTO_GCM_H

/**
 * @file
 * AES-GCM (NIST SP 800-38D).
 *
 * The paper "modified eCryptfs to use AES-GCM instead of CBC because it
 * is parallelizable" (§7.7) — CTR keystream blocks are independent,
 * which is what the GPU engine exploits, and what the host CTR loop
 * exploits by running several counter blocks through each AES round
 * together. 96-bit IVs only (the standard fast path).
 *
 * The body follows aes.h's choice. With AES-NI and PCLMULQDQ, CTR runs
 * eight counter blocks per iteration and GHASH multiplies carry-lessly
 * by precomputed powers H^1..H^8, folding eight blocks per reduction
 * (aggregated reduction, Gueron & Kounavis, "Intel Carry-Less
 * Multiplication Instruction and its Usage for Computing the GCM
 * Mode"). With VAES and VPCLMULQDQ as well, both bulk loops first run
 * sixteen blocks per pass as four 512-bit registers of four blocks:
 * CTR encrypts sixteen counter blocks per AES pass, and GHASH
 * multiplies each register lane by its power of H^1..H^16, reduces the
 * lanes side by side and XORs them into one, once per sixteen blocks;
 * the 128-bit loops take the fewer-than-sixteen blocks left over. Without AES-NI,
 * CTR runs four blocks per AES call and GHASH uses Shoup's 8-bit table
 * (one lookup per byte).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes.h"

namespace lake::crypto {

/** Authentication tag length in bytes. */
constexpr std::size_t kGcmTagBytes = 16;
/** Supported IV length in bytes. */
constexpr std::size_t kGcmIvBytes = 12;

/**
 * AES-GCM authenticated encryption with one key.
 */
class AesGcm
{
  public:
    /** @param key, key_bytes as Aes */
    AesGcm(const std::uint8_t *key, std::size_t key_bytes);

    /**
     * Encrypts @p len bytes of @p plain into @p cipher (may alias) and
     * writes the 16-byte tag.
     * @param iv 12-byte nonce — never reuse under one key
     * @param aad optional additional authenticated data (may be null)
     */
    void encrypt(const std::uint8_t *iv, const std::uint8_t *plain,
                 std::size_t len, const std::uint8_t *aad,
                 std::size_t aad_len, std::uint8_t *cipher,
                 std::uint8_t tag_out[kGcmTagBytes]) const;

    /**
     * Decrypts and authenticates.
     * The tag is checked before the CTR pass, so on failure no
     * keystream-decrypted byte is ever written.
     * @return true when the tag verifies; on failure @p plain is
     *         zeroed (release-of-unverified-plaintext is a classic
     *         GCM misuse).
     */
    bool decrypt(const std::uint8_t *iv, const std::uint8_t *cipher,
                 std::size_t len, const std::uint8_t *aad,
                 std::size_t aad_len,
                 const std::uint8_t tag_in[kGcmTagBytes],
                 std::uint8_t *plain) const;

    /**
     * The authentic tag of @p cipher under @p iv and @p aad:
     * GHASH(aad, cipher) XOR E(K, J0). encrypt returns it and decrypt
     * compares against it.
     */
    void tag(const std::uint8_t *iv, const std::uint8_t *cipher,
             std::size_t len, const std::uint8_t *aad, std::size_t aad_len,
             std::uint8_t out[kGcmTagBytes]) const;

    /**
     * The bare CTR pass of encrypt/decrypt: XORs the keystream that
     * starts at inc32(J0) into @p len bytes of @p in (may alias
     * @p out). No authentication — a caller that decrypts with it
     * must have verified tag() first.
     */
    void ctr(const std::uint8_t *iv, const std::uint8_t *in,
             std::size_t len, std::uint8_t *out) const;

  private:
    /** GHASH over aad and text, returning the pre-tag hash. */
    void ghash(const std::uint8_t *aad, std::size_t aad_len,
               const std::uint8_t *text, std::size_t text_len,
               std::uint8_t out[16]) const;

    Aes aes_;
#if LAKE_CRYPTO_AESNI
    /** Powers of H the widest GHASH loop multiplies by. */
    static constexpr int kHPowers = LAKE_CRYPTO_VAES ? 16 : 8;
    /**
     * h_pow_[i] = H^(kHPowers - i)·x^-1, highest power first, H = E(K,
     * 0^128), byte-reversed so bit 127 of the register is GCM's x^0
     * coefficient (16 bytes per power). The x^-1 cancels the factor x
     * the reduction leaves. Highest first, so the powers the n blocks
     * of one aggregated step multiply by are the last n entries, in
     * block order.
     */
    __m128i h_pow_[kHPowers];
#else
    /**
     * Y = Y·H in GF(2^128); Y as big-endian 64-bit halves. Shoup's
     * 8-bit table method: 16 byte steps of Z = Z·x^8 + byte·H.
     */
    void mulH(std::uint64_t &yh, std::uint64_t &yl) const;

    /**
     * n·H for each byte n, as high/low 64-bit halves (4 KiB per key);
     * H = E(K, 0^128). Table lookups are indexed by hashed data, so
     * this is not constant-time — the same side-channel class as the
     * AES T-tables, acceptable for a simulator with no real secrets.
     */
    std::uint64_t hh_[256];
    std::uint64_t hl_[256];
#endif
};

} // namespace lake::crypto

#endif // LAKE_CRYPTO_GCM_H
