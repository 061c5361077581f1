#include "crypto/engines.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "gpu/kernels.h"

namespace lake::crypto {

using gpu::CuResult;

namespace {

/** Control block layout in device memory for the "aes_gcm" kernel. */
constexpr std::size_t kCtlKeyOff = 0;   // 32 bytes (max key)
constexpr std::size_t kCtlIvOff = 32;   // 12 bytes
constexpr std::size_t kCtlEncOff = 44;  // 1 byte: 1=encrypt
constexpr std::size_t kCtlTagOff = 48;  // 16 bytes (in or out)
constexpr std::size_t kCtlOkOff = 64;   // 1 byte result
constexpr std::size_t kCtlBytes = 80;

/**
 * Streaming-mode slot layout: the control block occupies [0, kCtlSlot)
 * and extent data starts at kCtlSlot, so one coalesced copy moves both
 * (the scatter-gather win applied to the cipher path).
 */
constexpr std::size_t kCtlSlot = 128;

void
check(CuResult r, const char *what)
{
    LAKE_ASSERT(r == CuResult::Success, "%s failed: %s", what,
                gpu::cuResultName(r));
}

CuResult
aesGcmBody(gpu::Device &dev, const gpu::LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    std::uint64_t len = cfg.u64Arg(2);
    std::uint64_t key_bytes = cfg.u64Arg(3);
    if (key_bytes != 16 && key_bytes != 32)
        return CuResult::InvalidValue;

    auto *ctl = static_cast<std::uint8_t *>(
        dev.resolve(cfg.u64Arg(0), kCtlBytes));
    auto *buf =
        static_cast<std::uint8_t *>(dev.resolve(cfg.u64Arg(1), len));
    if (!ctl || !buf)
        return CuResult::LaunchFailed;

    AesGcm gcm(ctl + kCtlKeyOff, key_bytes);
    const std::uint8_t *iv = ctl + kCtlIvOff;
    if (ctl[kCtlEncOff]) {
        gcm.encrypt(iv, buf, len, nullptr, 0, buf, ctl + kCtlTagOff);
        ctl[kCtlOkOff] = 1;
    } else {
        bool ok = gcm.decrypt(iv, buf, len, nullptr, 0, ctl + kCtlTagOff,
                              buf);
        ctl[kCtlOkOff] = ok ? 1 : 0;
    }
    return CuResult::Success;
}

Nanos
aesGcmCost(const gpu::Device &dev, const gpu::LaunchConfig &cfg)
{
    std::uint64_t len = cfg.args.size() == 4 ? cfg.u64Arg(2) : 0;
    return static_cast<Nanos>(static_cast<double>(len) /
                              dev.spec().aes_gbps);
}

} // namespace

void
CipherEngine::encryptBatch(ExtentOp *ops, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        encryptExtent(ops[i].iv, ops[i].in, ops[i].len, ops[i].out,
                      ops[i].tag);
        ops[i].ok = true;
    }
}

bool
CipherEngine::decryptBatch(ExtentOp *ops, std::size_t n)
{
    bool all = true;
    for (std::size_t i = 0; i < n; ++i) {
        ops[i].ok = decryptExtent(ops[i].iv, ops[i].in, ops[i].len,
                                  ops[i].tag, ops[i].out);
        all = all && ops[i].ok;
    }
    return all;
}

void
registerCryptoKernels()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    gpu::KernelRegistry::global().add("aes_gcm", aesGcmBody, aesGcmCost);
}

CpuCipher::CpuCipher(const std::uint8_t *key, std::size_t key_bytes,
                     Clock &clock, gpu::CpuSpec spec)
    : gcm_(key, key_bytes), clock_(clock), spec_(std::move(spec))
{
}

void
CpuCipher::encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                         const std::uint8_t *plain, std::size_t len,
                         std::uint8_t *cipher,
                         std::uint8_t tag[kGcmTagBytes])
{
    clock_.advance(kPerExtent +
                   static_cast<Nanos>(static_cast<double>(len) /
                                      spec_.aes_sw_gbps));
    gcm_.encrypt(iv, plain, len, nullptr, 0, cipher, tag);
}

bool
CpuCipher::decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                         const std::uint8_t *cipher, std::size_t len,
                         const std::uint8_t tag[kGcmTagBytes],
                         std::uint8_t *plain)
{
    clock_.advance(kPerExtent +
                   static_cast<Nanos>(static_cast<double>(len) /
                                      spec_.aes_sw_gbps));
    return gcm_.decrypt(iv, cipher, len, nullptr, 0, tag, plain);
}

AesNiCipher::AesNiCipher(const std::uint8_t *key, std::size_t key_bytes,
                         Clock &clock, gpu::CpuSpec spec)
    : gcm_(key, key_bytes), clock_(clock), spec_(std::move(spec))
{
}

void
AesNiCipher::encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                           const std::uint8_t *plain, std::size_t len,
                           std::uint8_t *cipher,
                           std::uint8_t tag[kGcmTagBytes])
{
    clock_.advance(kPerExtent +
                   static_cast<Nanos>(static_cast<double>(len) /
                                      spec_.aes_ni_gbps));
    gcm_.encrypt(iv, plain, len, nullptr, 0, cipher, tag);
}

bool
AesNiCipher::decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                           const std::uint8_t *cipher, std::size_t len,
                           const std::uint8_t tag[kGcmTagBytes],
                           std::uint8_t *plain)
{
    clock_.advance(kPerExtent +
                   static_cast<Nanos>(static_cast<double>(len) /
                                      spec_.aes_ni_gbps));
    return gcm_.decrypt(iv, cipher, len, nullptr, 0, tag, plain);
}

LakeGpuCipher::LakeGpuCipher(const std::uint8_t *key,
                             std::size_t key_bytes, remote::LakeLib &lib,
                             std::size_t max_extent)
    : lib_(lib), arena_(lib.arena()), key_bytes_(key_bytes),
      max_extent_(max_extent)
{
    registerCryptoKernels();
    LAKE_ASSERT(key_bytes == 16 || key_bytes == 32, "bad key length");
    LAKE_ASSERT(max_extent_ > 0, "max_extent must be positive");

    check(lib_.cuMemAlloc(&d_ctl_, kCtlBytes), "cuMemAlloc(ctl)");
    check(lib_.cuMemAlloc(&d_buf_, max_extent_), "cuMemAlloc(buf)");
    h_buf_ = arena_.alloc(max_extent_);
    h_ctl_ = arena_.alloc(kCtlBytes);
    LAKE_ASSERT(h_buf_ != shm::kNullOffset && h_ctl_ != shm::kNullOffset,
                "lakeShm exhausted");

    // Stage the key once; iv/flags are refreshed per extent.
    auto *ctl = static_cast<std::uint8_t *>(arena_.at(h_ctl_));
    std::memset(ctl, 0, kCtlBytes);
    std::memcpy(ctl + kCtlKeyOff, key, key_bytes);
    std::memcpy(key_, key, key_bytes);
    check(lib_.cuMemcpyHtoDShm(d_ctl_, h_ctl_, kCtlBytes), "upload key");
}

LakeGpuCipher::~LakeGpuCipher()
{
    lib_.cuMemFree(d_ctl_);
    lib_.cuMemFree(d_buf_);
    for (gpu::DevicePtr d : d_slab_)
        lib_.cuMemFree(d);
    arena_.free(h_buf_);
    arena_.free(h_ctl_);
}

void
LakeGpuCipher::enableStreaming(remote::StreamOrchestrator *orch)
{
    if (orch == orch_)
        return;
    for (gpu::DevicePtr d : d_slab_)
        lib_.cuMemFree(d);
    d_slab_.clear();
    orch_ = orch;
    if (orch_ == nullptr)
        return;
    // One [ctl|data] slab per stream, allocated here and never again:
    // the steady-state batch path performs zero cuMemAlloc/Free calls.
    d_slab_.resize(orch_->streams(), 0);
    for (std::size_t k = 0; k < d_slab_.size(); ++k)
        check(lib_.cuMemAlloc(&d_slab_[k], kCtlSlot + max_extent_),
              "cuMemAlloc(slab)");
}

bool
LakeGpuCipher::run(bool encrypt, const std::uint8_t iv[kGcmIvBytes],
                   const std::uint8_t *in, std::size_t len,
                   std::uint8_t *out, std::uint8_t tag[kGcmTagBytes])
{
    LAKE_ASSERT(len > 0 && len <= max_extent_,
                "extent %zu outside 1..%zu", len, max_extent_);

    auto *ctl = static_cast<std::uint8_t *>(arena_.at(h_ctl_));
    std::memcpy(ctl + kCtlIvOff, iv, kGcmIvBytes);
    ctl[kCtlEncOff] = encrypt ? 1 : 0;
    if (!encrypt)
        std::memcpy(ctl + kCtlTagOff, tag, kGcmTagBytes);

    std::memcpy(arena_.at(h_buf_), in, len);

    check(lib_.cuMemcpyHtoDShmAsync(d_ctl_, h_ctl_, kCtlBytes, 0),
          "ctl HtoD");
    check(lib_.cuMemcpyHtoDShmAsync(d_buf_, h_buf_, len, 0), "buf HtoD");

    gpu::LaunchConfig cfg;
    cfg.kernel = "aes_gcm";
    cfg.grid_x = static_cast<std::uint32_t>((len + 4095) / 4096);
    cfg.block_x = 256;
    cfg.arg(d_ctl_).arg(d_buf_)
        .arg(static_cast<std::uint64_t>(len), nullptr)
        .arg(static_cast<std::uint64_t>(key_bytes_), nullptr);
    check(lib_.cuLaunchKernel(cfg, 0), "launch aes_gcm");

    check(lib_.cuMemcpyDtoHShm(h_buf_, d_buf_, len), "buf DtoH");
    check(lib_.cuMemcpyDtoHShm(h_ctl_, d_ctl_, kCtlBytes), "ctl DtoH");

    std::memcpy(out, arena_.at(h_buf_), len);
    ctl = static_cast<std::uint8_t *>(arena_.at(h_ctl_));
    if (encrypt)
        std::memcpy(tag, ctl + kCtlTagOff, kGcmTagBytes);
    bool ok = ctl[kCtlOkOff] == 1;
    if (!encrypt && !ok)
        std::memset(out, 0, len);
    return ok;
}

bool
LakeGpuCipher::runBatch(bool encrypt, ExtentOp *ops, std::size_t n)
{
    // Depth-1 software pipeline per stream: position i uses stream
    // i % K, and before reusing a stream we sync it and complete the
    // extent that was in flight there. With K streams, extent i+1's
    // coalesced upload overlaps extent i's kernel and extent i-1's
    // download on the modeled engine timelines.
    std::uint32_t streams = orch_->streams();
    struct Pending
    {
        std::size_t idx = 0;
        remote::StreamOrchestrator::Buffer *buf = nullptr;
    };
    std::vector<Pending> pend(streams);
    bool all = true;

    // Reads the retired slot (read-after-sync window: always called
    // right after syncStream, before any further acquire).
    auto complete = [&](Pending &p, gpu::CuResult sync_r) {
        ExtentOp &op = ops[p.idx];
        auto *slot = static_cast<std::uint8_t *>(arena_.at(p.buf->shm));
        if (sync_r != CuResult::Success) {
            op.ok = false;
            std::memset(op.out, 0, op.len);
        } else {
            std::memcpy(op.out, slot + kCtlSlot, op.len);
            if (encrypt)
                std::memcpy(op.tag, slot + kCtlTagOff, kGcmTagBytes);
            op.ok = slot[kCtlOkOff] == 1;
            if (!encrypt && !op.ok)
                std::memset(op.out, 0, op.len);
        }
        all = all && op.ok;
        p.buf = nullptr;
    };

    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t k = static_cast<std::uint32_t>(i % streams);
        gpu::StreamId s = orch_->streamAt(k);
        if (pend[k].buf != nullptr)
            complete(pend[k], orch_->syncStream(s));

        ExtentOp &op = ops[i];
        LAKE_ASSERT(op.len > 0 && op.len <= max_extent_,
                    "extent %zu outside 1..%zu", op.len, max_extent_);
        auto *buf = orch_->acquire(kCtlSlot + op.len);
        if (buf == nullptr) {
            // Slot bigger than the pool's largest class: this extent
            // takes the classic serial path (h_ctl_/h_buf_ still fit).
            if (encrypt) {
                run(true, op.iv, op.in, op.len, op.out, op.tag);
                op.ok = true;
            } else {
                op.ok = run(false, op.iv, op.in, op.len, op.out, op.tag);
                all = all && op.ok;
            }
            continue;
        }

        auto *slot = static_cast<std::uint8_t *>(arena_.at(buf->shm));
        std::memset(slot, 0, kCtlSlot);
        std::memcpy(slot + kCtlKeyOff, key_, key_bytes_);
        std::memcpy(slot + kCtlIvOff, op.iv, kGcmIvBytes);
        slot[kCtlEncOff] = encrypt ? 1 : 0;
        if (!encrypt)
            std::memcpy(slot + kCtlTagOff, op.tag, kGcmTagBytes);
        std::memcpy(slot + kCtlSlot, op.in, op.len);

        // ONE coalesced HtoD moves ctl + data; the serial path pays
        // two transfers (and two transfer overheads) per extent.
        Status st = orch_->stageIn(buf, d_slab_[k], kCtlSlot + op.len, s);
        LAKE_ASSERT(st.isOk(), "stageIn: %s", st.toString().c_str());

        gpu::LaunchConfig cfg;
        cfg.kernel = "aes_gcm";
        cfg.grid_x = static_cast<std::uint32_t>((op.len + 4095) / 4096);
        cfg.block_x = 256;
        cfg.arg(d_slab_[k]).arg(d_slab_[k] + kCtlSlot)
            .arg(static_cast<std::uint64_t>(op.len), nullptr)
            .arg(static_cast<std::uint64_t>(key_bytes_), nullptr);
        check(lib_.cuLaunchKernel(cfg, s), "launch aes_gcm");

        st = orch_->stageOut(buf, d_slab_[k], kCtlSlot + op.len, s);
        LAKE_ASSERT(st.isOk(), "stageOut: %s", st.toString().c_str());
        pend[k] = {i, buf};
    }

    for (std::uint32_t k = 0; k < streams; ++k)
        if (pend[k].buf != nullptr)
            complete(pend[k], orch_->syncStream(orch_->streamAt(k)));
    return all;
}

void
LakeGpuCipher::encryptBatch(ExtentOp *ops, std::size_t n)
{
    if (orch_ == nullptr || n <= 1) {
        CipherEngine::encryptBatch(ops, n);
        return;
    }
    bool ok = runBatch(true, ops, n);
    LAKE_ASSERT(ok, "GPU batch encrypt failed (degraded transport?)");
}

bool
LakeGpuCipher::decryptBatch(ExtentOp *ops, std::size_t n)
{
    if (orch_ == nullptr || n <= 1)
        return CipherEngine::decryptBatch(ops, n);
    return runBatch(false, ops, n);
}

void
LakeGpuCipher::encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                             const std::uint8_t *plain, std::size_t len,
                             std::uint8_t *cipher,
                             std::uint8_t tag[kGcmTagBytes])
{
    bool ok = run(true, iv, plain, len, cipher, tag);
    LAKE_ASSERT(ok, "GPU encrypt cannot fail");
}

bool
LakeGpuCipher::decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                             const std::uint8_t *cipher, std::size_t len,
                             const std::uint8_t tag[kGcmTagBytes],
                             std::uint8_t *plain)
{
    std::uint8_t tag_in[kGcmTagBytes];
    std::memcpy(tag_in, tag, kGcmTagBytes);
    return run(false, iv, cipher, len, plain, tag_in);
}

HybridCipher::HybridCipher(const std::uint8_t *key, std::size_t key_bytes,
                           remote::LakeLib &lib, Clock &clock,
                           gpu::CpuSpec cpu, std::size_t max_extent)
    : gcm_(key, key_bytes), gpu_(key, key_bytes, lib, max_extent),
      clock_(clock), cpu_(std::move(cpu))
{
}

namespace {

/**
 * Share of each extent handled by AES-NI while the GPU takes the rest;
 * ~0.85 GB/s of NI against an effective ~2.5 GB/s GPU pipeline.
 */
constexpr double kNiShare = 0.25;

/** Splits an extent at a 16-byte boundary. */
std::size_t
splitPoint(std::size_t len)
{
    std::size_t s = static_cast<std::size_t>(kNiShare *
                                             static_cast<double>(len));
    return std::min(len, (s / 16) * 16);
}

/** Derives the GPU half's IV from the extent IV. */
void
secondIv(const std::uint8_t iv[kGcmIvBytes], std::uint8_t out[kGcmIvBytes])
{
    std::memcpy(out, iv, kGcmIvBytes);
    out[kGcmIvBytes - 1] ^= 0x5a;
}

} // namespace

void
HybridCipher::encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                            const std::uint8_t *plain, std::size_t len,
                            std::uint8_t *cipher,
                            std::uint8_t tag[kGcmTagBytes])
{
    std::size_t ni_len = splitPoint(len);
    std::size_t gpu_len = len - ni_len;

    // GPU half runs first so its elapsed time is observable; the NI
    // half executes concurrently on the CPU, so only the excess of its
    // modeled time over the GPU's is charged afterwards.
    Nanos t0 = clock_.now();
    std::uint8_t tag_gpu[kGcmTagBytes] = {};
    if (gpu_len > 0) {
        std::uint8_t iv2[kGcmIvBytes];
        secondIv(iv, iv2);
        gpu_.encryptExtent(iv2, plain + ni_len, gpu_len, cipher + ni_len,
                           tag_gpu);
    }
    Nanos gpu_elapsed = clock_.now() - t0;

    std::uint8_t tag_ni[kGcmTagBytes] = {};
    if (ni_len > 0) {
        gcm_.encrypt(iv, plain, ni_len, nullptr, 0, cipher, tag_ni);
        Nanos t_ni = AesNiCipher::kPerExtent +
                     static_cast<Nanos>(static_cast<double>(ni_len) /
                                        cpu_.aes_ni_gbps);
        if (t_ni > gpu_elapsed)
            clock_.advance(t_ni - gpu_elapsed);
    }

    for (std::size_t i = 0; i < kGcmTagBytes; ++i)
        tag[i] = static_cast<std::uint8_t>(tag_ni[i] ^ tag_gpu[i]);
}

bool
HybridCipher::decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                            const std::uint8_t *cipher, std::size_t len,
                            const std::uint8_t tag[kGcmTagBytes],
                            std::uint8_t *plain)
{
    std::size_t ni_len = splitPoint(len);
    std::size_t gpu_len = len - ni_len;

    // Each half's authentic tag is a function of its ciphertext alone,
    // so both are checked before any plaintext is released.
    std::uint8_t iv2[kGcmIvBytes];
    secondIv(iv, iv2);
    std::uint8_t tag_ni[kGcmTagBytes] = {};
    std::uint8_t tag_gpu[kGcmTagBytes] = {};
    if (ni_len > 0)
        gcm_.tag(iv, cipher, ni_len, nullptr, 0, tag_ni);
    if (gpu_len > 0)
        gcm_.tag(iv2, cipher + ni_len, gpu_len, nullptr, 0, tag_gpu);

    // The GPU half decrypts without a per-half tag: CTR is its own
    // inverse, so encrypting the ciphertext yields the plaintext.
    Nanos t0 = clock_.now();
    std::vector<std::uint8_t> tmp(gpu_len);
    if (gpu_len > 0) {
        std::uint8_t scratch_tag[kGcmTagBytes];
        gpu_.encryptExtent(iv2, cipher + ni_len, gpu_len, tmp.data(),
                           scratch_tag);
    }
    Nanos gpu_elapsed = clock_.now() - t0;

    if (ni_len > 0) {
        Nanos t_ni = AesNiCipher::kPerExtent +
                     static_cast<Nanos>(static_cast<double>(ni_len) /
                                        cpu_.aes_ni_gbps);
        if (t_ni > gpu_elapsed)
            clock_.advance(t_ni - gpu_elapsed);
    }

    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < kGcmTagBytes; ++i)
        diff |= static_cast<std::uint8_t>(tag[i] ^ tag_ni[i] ^ tag_gpu[i]);
    if (diff != 0) {
        std::memset(plain, 0, len);
        return false;
    }
    if (gpu_len > 0)
        std::memcpy(plain + ni_len, tmp.data(), gpu_len);
    gcm_.ctr(iv, cipher, ni_len, plain);
    return true;
}

} // namespace lake::crypto
