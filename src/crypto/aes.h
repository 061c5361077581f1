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
 */

#include <array>
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
     * round so their independent table lookups overlap (the CTR fast
     * path). In-place safe like encryptBlock.
     */
    void encryptBlocks4(const std::uint8_t in[64],
                        std::uint8_t out[64]) const;

    /** Number of rounds (10 for AES-128, 14 for AES-256). */
    int rounds() const { return rounds_; }

  private:
    /** The one round body: @p L blocks side by side through each round. */
    template <int L>
    void encryptLanes(const std::uint8_t *in, std::uint8_t *out) const;

    int rounds_;
    /** Round keys: 4*(rounds+1) 32-bit words. */
    std::array<std::uint32_t, 60> round_keys_{};
};

} // namespace lake::crypto

#endif // LAKE_CRYPTO_AES_H
