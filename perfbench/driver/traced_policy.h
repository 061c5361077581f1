#ifndef LAKE_PERFBENCH_TRACED_POLICY_H
#define LAKE_PERFBENCH_TRACED_POLICY_H

/**
 * @file
 * Decorators for the callbacks the benchmark registers with the library:
 * they forward every call unchanged and wrap it in a span, so the
 * policy and cipher layers are timed from outside. Forwarding only:
 * decisions and ciphertext are exactly the inner object's.
 */

#include <cstdint>
#include <memory>

#include "crypto/engines.h"
#include "policy/policy.h"
#include "spans.h"

namespace lake::perfbench {

/** An execution policy that spans and counts every decision. */
class TracedPolicy final : public policy::ExecPolicy
{
  public:
    /**
     * @param decisions, gpu_decisions counters owned by the caller,
     *        incremented on every decision (traced or not)
     */
    TracedPolicy(std::unique_ptr<policy::ExecPolicy> inner, Tracer *tr,
                 std::uint64_t *decisions, std::uint64_t *gpu_decisions)
        : inner_(std::move(inner)), tr_(tr), decisions_(decisions),
          gpu_decisions_(gpu_decisions)
    {}

    policy::Engine
    decide(const policy::PolicyInput &in) override
    {
        Span s(tr_, Kind::PolicyDecide);
        policy::Engine e = inner_->decide(in);
        ++*decisions_;
        if (e == policy::Engine::Gpu)
            ++*gpu_decisions_;
        return e;
    }

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<policy::ExecPolicy> inner_;
    Tracer *tr_;
    std::uint64_t *decisions_;
    std::uint64_t *gpu_decisions_;
};

/** A cipher engine that spans every extent transform. */
class TracedCipher final : public crypto::CipherEngine
{
  public:
    TracedCipher(crypto::CipherEngine &inner, Tracer *tr)
        : inner_(inner), tr_(tr)
    {}

    void
    encryptExtent(const std::uint8_t iv[crypto::kGcmIvBytes],
                  const std::uint8_t *plain, std::size_t len,
                  std::uint8_t *cipher,
                  std::uint8_t tag[crypto::kGcmTagBytes]) override
    {
        Span s(tr_, Kind::CryptoEncrypt);
        ++extents_;
        inner_.encryptExtent(iv, plain, len, cipher, tag);
    }

    bool
    decryptExtent(const std::uint8_t iv[crypto::kGcmIvBytes],
                  const std::uint8_t *cipher, std::size_t len,
                  const std::uint8_t tag[crypto::kGcmTagBytes],
                  std::uint8_t *plain) override
    {
        Span s(tr_, Kind::CryptoDecrypt);
        ++extents_;
        bool ok = inner_.decryptExtent(iv, cipher, len, tag, plain);
        if (!ok)
            ++auth_failures_;
        return ok;
    }

    // The batch path is forwarded only when the inner engine really
    // has one, so eCryptfs picks the same route it would without us.
    bool batched() const override { return inner_.batched(); }

    void
    encryptBatch(crypto::ExtentOp *ops, std::size_t n) override
    {
        Span s(tr_, Kind::CryptoEncrypt);
        extents_ += n;
        inner_.encryptBatch(ops, n);
    }

    bool
    decryptBatch(crypto::ExtentOp *ops, std::size_t n) override
    {
        Span s(tr_, Kind::CryptoDecrypt);
        extents_ += n;
        bool ok = inner_.decryptBatch(ops, n);
        for (std::size_t i = 0; i < n; ++i)
            auth_failures_ += ops[i].ok ? 0 : 1;
        return ok;
    }

    const char *name() const override { return inner_.name(); }

    /** Extents transformed (encrypt + decrypt). */
    std::uint64_t extents() const { return extents_; }
    /** Decrypted extents whose tag did not verify. */
    std::uint64_t authFailures() const { return auth_failures_; }

  private:
    crypto::CipherEngine &inner_;
    Tracer *tr_;
    std::uint64_t extents_ = 0;
    std::uint64_t auth_failures_ = 0;
};

} // namespace lake::perfbench

#endif // LAKE_PERFBENCH_TRACED_POLICY_H
