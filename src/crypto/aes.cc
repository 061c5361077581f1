#include "crypto/aes.h"

#include "base/logging.h"

namespace lake::crypto {

namespace {

/** FIPS 197 S-box. */
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

constexpr std::uint8_t kRcon[15] = {
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40,
    0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d,
};

std::uint32_t
subWord(std::uint32_t w)
{
    return (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[w & 0xff]);
}

std::uint32_t
rotWord(std::uint32_t w)
{
    return (w << 8) | (w >> 24);
}

#if !LAKE_CRYPTO_AESNI

/** GF(2^8) multiply by 2 (xtime). */
constexpr std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

/**
 * Round T-table: entry x is the MixColumns column of SubBytes(x) in
 * row 0, i.e. the big-endian word (2·S[x], S[x], S[x], 3·S[x]) rotated
 * right by 8*@p row bits for the byte arriving from row @p row.
 */
constexpr std::array<std::uint32_t, 256>
makeTable(int row)
{
    std::array<std::uint32_t, 256> t{};
    for (int x = 0; x < 256; ++x) {
        std::uint8_t s = kSbox[x];
        std::uint8_t s2 = xtime(s);
        std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                          (static_cast<std::uint32_t>(s) << 16) |
                          (static_cast<std::uint32_t>(s) << 8) |
                          static_cast<std::uint32_t>(s2 ^ s);
        int r = 8 * row;
        t[x] = r == 0 ? w : (w >> r) | (w << (32 - r));
    }
    return t;
}

constexpr std::array<std::uint32_t, 256> kTe0 = makeTable(0);
constexpr std::array<std::uint32_t, 256> kTe1 = makeTable(1);
constexpr std::array<std::uint32_t, 256> kTe2 = makeTable(2);
constexpr std::array<std::uint32_t, 256> kTe3 = makeTable(3);

#endif // !LAKE_CRYPTO_AESNI

std::uint32_t
loadBe32(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

void
storeBe32(std::uint8_t *p, std::uint32_t w)
{
    p[0] = static_cast<std::uint8_t>(w >> 24);
    p[1] = static_cast<std::uint8_t>(w >> 16);
    p[2] = static_cast<std::uint8_t>(w >> 8);
    p[3] = static_cast<std::uint8_t>(w);
}

/**
 * FIPS 197 KeyExpansion of an @p nk-word key into @p w: 4*(nk+7)
 * words, row 0 of each column in the most significant byte.
 */
void
expandKey(const std::uint8_t *key, int nk, std::uint32_t *w)
{
    int total = 4 * (nk + 7);
    for (int i = 0; i < nk; ++i) {
        w[i] = loadBe32(key + 4 * i);
    }
    for (int i = nk; i < total; ++i) {
        std::uint32_t temp = w[i - 1];
        if (i % nk == 0) {
            temp = subWord(rotWord(temp)) ^
                   (static_cast<std::uint32_t>(kRcon[i / nk]) << 24);
        } else if (nk > 6 && i % nk == 4) {
            temp = subWord(temp);
        }
        w[i] = w[i - nk] ^ temp;
    }
}

} // namespace

Aes::Aes(const std::uint8_t *key, std::size_t key_bytes)
{
    LAKE_ASSERT(key_bytes == 16 || key_bytes == 32,
                "AES key must be 16 or 32 bytes, got %zu", key_bytes);
    int nk = static_cast<int>(key_bytes / 4);
    rounds_ = nk + 6;
#if LAKE_CRYPTO_AESNI
    std::uint32_t w[60];
    expandKey(key, nk, w);
    for (int r = 0; r <= rounds_; ++r) {
        std::uint8_t bytes[16];
        for (int c = 0; c < 4; ++c)
            storeBe32(bytes + 4 * c, w[4 * r + c]);
        round_keys_[r] =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(bytes));
    }
#else
    expandKey(key, nk, round_keys_.data());
#endif
}

#if LAKE_CRYPTO_AESNI

void
Aes::encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const
{
    __m128i b[1] = {_mm_loadu_si128(reinterpret_cast<const __m128i *>(in))};
    encryptLanes(b);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), b[0]);
}

void
Aes::encryptBlocks4(const std::uint8_t in[64], std::uint8_t out[64]) const
{
    __m128i b[4];
    for (int l = 0; l < 4; ++l)
        b[l] = _mm_loadu_si128(reinterpret_cast<const __m128i *>(in) + l);
    encryptLanes(b);
    for (int l = 0; l < 4; ++l)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out) + l, b[l]);
}

#else // !LAKE_CRYPTO_AESNI

template <int L>
void
Aes::encryptLanes(const std::uint8_t *in, std::uint8_t *out) const
{
    // Lane l's state is s[4l .. 4l+3]: word c is column c, row 0 in the
    // most significant byte — the layout of round_keys_. Each inner
    // round is SubBytes, ShiftRows and MixColumns folded into four
    // table lookups per column; ShiftRows is the choice of source
    // column per row. Lanes share nothing, so their lookups overlap
    // instead of each round waiting on the one before it; the lane
    // loops are unrolled so the state stays in registers.
    const std::uint32_t *rk = round_keys_.data();
    std::uint32_t s[4 * L];
#pragma GCC unroll 16
    for (int i = 0; i < 4 * L; ++i)
        s[i] = loadBe32(in + 4 * i) ^ rk[i % 4];

    auto round = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    std::uint32_t d, std::uint32_t k) {
        return kTe0[a >> 24] ^ kTe1[(b >> 16) & 0xff] ^
               kTe2[(c >> 8) & 0xff] ^ kTe3[d & 0xff] ^ k;
    };
    for (int r = 1; r < rounds_; ++r) {
        rk += 4;
        std::uint32_t t[4 * L];
#pragma GCC unroll 4
        for (int l = 0; l < 4 * L; l += 4) {
            const std::uint32_t *w = s + l;
            t[l] = round(w[0], w[1], w[2], w[3], rk[0]);
            t[l + 1] = round(w[1], w[2], w[3], w[0], rk[1]);
            t[l + 2] = round(w[2], w[3], w[0], w[1], rk[2]);
            t[l + 3] = round(w[3], w[0], w[1], w[2], rk[3]);
        }
#pragma GCC unroll 16
        for (int i = 0; i < 4 * L; ++i)
            s[i] = t[i];
    }

    // Final round: SubBytes and ShiftRows only.
    rk += 4;
    auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t k) {
        return ((static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
                (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff])
                 << 16) |
                (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
                static_cast<std::uint32_t>(kSbox[d & 0xff])) ^
               k;
    };
#pragma GCC unroll 4
    for (int l = 0; l < 4 * L; l += 4) {
        const std::uint32_t *w = s + l;
        storeBe32(out + 4 * l, last(w[0], w[1], w[2], w[3], rk[0]));
        storeBe32(out + 4 * l + 4, last(w[1], w[2], w[3], w[0], rk[1]));
        storeBe32(out + 4 * l + 8, last(w[2], w[3], w[0], w[1], rk[2]));
        storeBe32(out + 4 * l + 12, last(w[3], w[0], w[1], w[2], rk[3]));
    }
}

void
Aes::encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const
{
    encryptLanes<1>(in, out);
}

void
Aes::encryptBlocks4(const std::uint8_t in[64], std::uint8_t out[64]) const
{
    encryptLanes<4>(in, out);
}

#endif // LAKE_CRYPTO_AESNI

} // namespace lake::crypto
