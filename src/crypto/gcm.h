#ifndef LAKE_CRYPTO_GCM_H
#define LAKE_CRYPTO_GCM_H

/**
 * @file
 * AES-GCM (NIST SP 800-38D).
 *
 * The paper "modified eCryptfs to use AES-GCM instead of CBC because it
 * is parallelizable" (§7.7) — CTR keystream blocks are independent,
 * which is what the GPU engine exploits. 96-bit IVs only (the standard
 * fast path).
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
                 std::uint8_t tag[kGcmTagBytes]) const;

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
                 const std::uint8_t tag[kGcmTagBytes],
                 std::uint8_t *plain) const;

  private:
    /** GHASH over aad and text, returning the pre-tag hash. */
    void ghash(const std::uint8_t *aad, std::size_t aad_len,
               const std::uint8_t *text, std::size_t text_len,
               std::uint8_t out[16]) const;

    /** Y = Y·H in GF(2^128); Y as big-endian 64-bit halves. */
    void mulH(std::uint64_t &yh, std::uint64_t &yl) const;

    /** CTR keystream application starting at counter block @p j. */
    void ctr(std::uint8_t j[16], const std::uint8_t *in, std::size_t len,
             std::uint8_t *out) const;

    Aes aes_;
    /** n·H for each 4-bit n, as high/low 64-bit halves; H = E(K, 0^128). */
    std::uint64_t hh_[16];
    std::uint64_t hl_[16];
};

} // namespace lake::crypto

#endif // LAKE_CRYPTO_GCM_H
