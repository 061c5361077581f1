#ifndef LAKE_POLICY_BPF_H
#define LAKE_POLICY_BPF_H

/**
 * @file
 * An eBPF-like virtual machine for installable policies.
 *
 * §4.2: "LAKE allows developers to write and install such policies
 * using eBPF." This is a faithful miniature of that pipeline: policies
 * are bytecode programs over 64-bit registers, statically checked by a
 * verifier (forward-only jumps, bounded length, valid context accesses
 * and helper calls — so every accepted program provably terminates) and
 * interpreted against a read-only context the framework fills per
 * decision.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "policy/policy.h"

namespace lake::policy {

/** Opcodes of the policy VM (a pragmatic eBPF subset). */
enum class BpfOp : std::uint8_t
{
    MovImm,  //!< dst = imm
    MovReg,  //!< dst = src
    AddImm,  //!< dst += imm
    AddReg,  //!< dst += src
    SubImm,  //!< dst -= imm
    SubReg,  //!< dst -= src
    MulImm,  //!< dst *= imm
    MulReg,  //!< dst *= src
    DivImm,  //!< dst /= imm (dst = 0 when imm == 0, eBPF semantics)
    DivReg,  //!< dst /= src (dst = 0 when src == 0)
    ModImm,  //!< dst %= imm (dst unchanged when imm == 0)
    ModReg,  //!< dst %= src
    AndImm,  //!< dst &= imm
    OrImm,   //!< dst |= imm
    XorImm,  //!< dst ^= imm
    LshImm,  //!< dst <<= imm
    RshImm,  //!< dst >>= imm (logical)
    Neg,     //!< dst = -dst
    LdCtx,   //!< dst = ctx[imm] (verifier bounds-checks imm)
    Ja,      //!< pc += off
    JeqImm,  //!< if (dst == imm) pc += off
    JeqReg,  //!< if (dst == src) pc += off
    JneImm,  //!< if (dst != imm) pc += off
    JgtImm,  //!< if (dst >  imm) pc += off (unsigned)
    JgtReg,  //!< if (dst >  src) pc += off
    JgeImm,  //!< if (dst >= imm) pc += off
    JltImm,  //!< if (dst <  imm) pc += off
    JleImm,  //!< if (dst <= imm) pc += off
    Call,    //!< r0 = helper[imm](r1..r5)
    Exit,    //!< return r0
};

/** One instruction. */
struct BpfInsn
{
    BpfOp op;
    std::uint8_t dst = 0;  //!< destination register (0..10)
    std::uint8_t src = 0;  //!< source register
    std::int32_t off = 0;  //!< jump offset (instructions, relative)
    std::int64_t imm = 0;  //!< immediate
};

/**
 * A helper callable from bytecode: receives r1..r5, returns r0.
 */
using BpfHelper =
    std::function<std::uint64_t(const std::array<std::uint64_t, 5> &)>;

/**
 * Verifier + interpreter.
 */
class BpfVm
{
  public:
    /** Number of general registers (r0..r10). */
    static constexpr std::size_t kNumRegs = 11;
    /** Maximum accepted program length. */
    static constexpr std::size_t kMaxInsns = 4096;

    BpfVm() = default;

    /** Registers a helper under @p id (before verification). */
    void registerHelper(std::uint32_t id, BpfHelper fn);

    /**
     * Statically checks @p prog against a context of @p ctx_words
     * 64-bit slots. Rejections name the offending instruction.
     */
    Status verify(const std::vector<BpfInsn> &prog,
                  std::size_t ctx_words) const;

    /**
     * Runs a *verified* program. @return r0.
     * Panics on conditions the verifier excludes (internal bug).
     */
    std::uint64_t run(const std::vector<BpfInsn> &prog,
                      const std::vector<std::uint64_t> &ctx) const;

  private:
    std::unordered_map<std::uint32_t, BpfHelper> helpers_;
};

/**
 * Convenience assembler for building policy programs in tests and
 * examples without hand-writing struct literals.
 */
class BpfProgramBuilder
{
  public:
    BpfProgramBuilder &movImm(std::uint8_t dst, std::int64_t imm);
    BpfProgramBuilder &movReg(std::uint8_t dst, std::uint8_t src);
    BpfProgramBuilder &addImm(std::uint8_t dst, std::int64_t imm);
    BpfProgramBuilder &ldCtx(std::uint8_t dst, std::int64_t slot);
    BpfProgramBuilder &jltImm(std::uint8_t dst, std::int64_t imm,
                              std::int32_t off);
    BpfProgramBuilder &jgeImm(std::uint8_t dst, std::int64_t imm,
                              std::int32_t off);
    BpfProgramBuilder &call(std::uint32_t helper);
    BpfProgramBuilder &exit();
    /** Appends an arbitrary instruction. */
    BpfProgramBuilder &emit(BpfInsn insn);

    /** The assembled program. */
    std::vector<BpfInsn> take() { return std::move(prog_); }

  private:
    std::vector<BpfInsn> prog_;
};

/**
 * Context-slot layout the framework presents to policy bytecode.
 */
enum BpfCtxSlot : std::size_t
{
    kCtxBatchSize = 0,      //!< pending batch size
    kCtxNowMs,              //!< virtual time, milliseconds
    kCtxInterArrivalUsX100, //!< mean inter-arrival, centi-microseconds
    kCtxGpuUtilX100,        //!< smoothed GPU utilization, centi-percent
    kCtxSlotCount,
};

/**
 * Adapts a verified bytecode program into an ExecPolicy.
 *
 * The adapter maintains the rate-limited utilization moving average
 * (the stateful part eBPF would keep in a map) and exposes it via
 * kCtxGpuUtilX100; the program returns 0 for CPU, nonzero for GPU.
 */
class BpfPolicy final : public ExecPolicy
{
  public:
    /** Probe rate-limit / smoothing knobs (as ContentionConfig). */
    struct Config
    {
        Nanos probe_interval = 5_ms;
        std::size_t avg_window = 4;
    };

    /**
     * @param vm      VM with helpers registered; shared, not owned
     * @param program verified policy bytecode
     * @param probe   utilization source (may be null: util reads as 0)
     */
    BpfPolicy(const BpfVm &vm, std::vector<BpfInsn> program,
              UtilProbe probe, Config config);

    Engine decide(const PolicyInput &in) override;
    const char *name() const override { return "bpf"; }

  private:
    const BpfVm &vm_;
    std::vector<BpfInsn> program_;
    UtilProbe probe_;
    /** Config's probe knobs; stale_windows keeps its default. */
    ContentionConfig probe_cfg_;
    UtilSmoother smoother_;
};

/**
 * Assembles the Fig. 3 policy as bytecode:
 *   if (util < exec_threshold && batch >= batch_threshold) return GPU;
 *   return CPU;
 */
std::vector<BpfInsn> buildFig3Program(double exec_threshold_pct,
                                      std::size_t batch_threshold);

} // namespace lake::policy

#endif // LAKE_POLICY_BPF_H
