#include "policy/bpf.h"

#include <utility>

#include "base/logging.h"

namespace lake::policy {

namespace {

/** Instruction classes the verifier reasons about. */
bool
isJump(BpfOp op)
{
    switch (op) {
      case BpfOp::Ja:
      case BpfOp::JeqImm:
      case BpfOp::JeqReg:
      case BpfOp::JneImm:
      case BpfOp::JgtImm:
      case BpfOp::JgtReg:
      case BpfOp::JgeImm:
      case BpfOp::JltImm:
      case BpfOp::JleImm:
        return true;
      default:
        return false;
    }
}

bool
usesSrc(BpfOp op)
{
    switch (op) {
      case BpfOp::MovReg:
      case BpfOp::AddReg:
      case BpfOp::SubReg:
      case BpfOp::MulReg:
      case BpfOp::DivReg:
      case BpfOp::ModReg:
      case BpfOp::JeqReg:
      case BpfOp::JgtReg:
        return true;
      default:
        return false;
    }
}

} // namespace

void
BpfVm::registerHelper(std::uint32_t id, BpfHelper fn)
{
    LAKE_ASSERT(fn != nullptr, "null bpf helper %u", id);
    helpers_[id] = std::move(fn);
}

Status
BpfVm::verify(const std::vector<BpfInsn> &prog, std::size_t ctx_words) const
{
    if (prog.empty())
        return Status(Code::InvalidArgument, "empty program");
    if (prog.size() > kMaxInsns)
        return Status(Code::InvalidArgument, "program too long");

    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
        const BpfInsn &insn = prog[pc];
        auto reject = [pc](const std::string &why) {
            return Status(Code::InvalidArgument,
                          detail::format("insn %zu: %s", pc, why.c_str()));
        };

        if (insn.dst >= kNumRegs)
            return reject("bad dst register");
        if (usesSrc(insn.op) && insn.src >= kNumRegs)
            return reject("bad src register");

        if (isJump(insn.op)) {
            if (insn.off <= 0)
                return reject("backward or zero jump (loops forbidden)");
            std::size_t target = pc + 1 + static_cast<std::size_t>(insn.off);
            if (target >= prog.size())
                return reject("jump past end of program");
        }

        switch (insn.op) {
          case BpfOp::LdCtx:
            if (insn.imm < 0 ||
                static_cast<std::size_t>(insn.imm) >= ctx_words) {
                return reject("context access out of bounds");
            }
            break;
          case BpfOp::LshImm:
          case BpfOp::RshImm:
            if (insn.imm < 0 || insn.imm > 63)
                return reject("shift amount out of range");
            break;
          case BpfOp::Call:
            if (!helpers_.count(static_cast<std::uint32_t>(insn.imm)))
                return reject("call to unregistered helper");
            break;
          default:
            break;
        }
    }

    if (prog.back().op != BpfOp::Exit)
        return Status(Code::InvalidArgument,
                      "program must end with Exit");
    return Status::ok();
}

std::uint64_t
BpfVm::run(const std::vector<BpfInsn> &prog,
           const std::vector<std::uint64_t> &ctx) const
{
    std::array<std::uint64_t, kNumRegs> regs{};
    std::size_t pc = 0;

    // Forward-only jumps bound execution by program length, but keep a
    // belt-and-braces fuel counter against verifier bugs.
    std::size_t fuel = prog.size() + 1;

    while (pc < prog.size()) {
        LAKE_ASSERT(fuel-- > 0, "bpf fuel exhausted: verifier bug");
        const BpfInsn &insn = prog[pc];
        std::uint64_t &dst = regs[insn.dst];
        std::uint64_t srcv = regs[insn.src];
        auto imm = static_cast<std::uint64_t>(insn.imm);
        bool taken = false;

        switch (insn.op) {
          case BpfOp::MovImm: dst = imm; break;
          case BpfOp::MovReg: dst = srcv; break;
          case BpfOp::AddImm: dst += imm; break;
          case BpfOp::AddReg: dst += srcv; break;
          case BpfOp::SubImm: dst -= imm; break;
          case BpfOp::SubReg: dst -= srcv; break;
          case BpfOp::MulImm: dst *= imm; break;
          case BpfOp::MulReg: dst *= srcv; break;
          case BpfOp::DivImm: dst = imm ? dst / imm : 0; break;
          case BpfOp::DivReg: dst = srcv ? dst / srcv : 0; break;
          case BpfOp::ModImm: dst = imm ? dst % imm : dst; break;
          case BpfOp::ModReg: dst = srcv ? dst % srcv : dst; break;
          case BpfOp::AndImm: dst &= imm; break;
          case BpfOp::OrImm:  dst |= imm; break;
          case BpfOp::XorImm: dst ^= imm; break;
          case BpfOp::LshImm: dst <<= insn.imm; break;
          case BpfOp::RshImm: dst >>= insn.imm; break;
          case BpfOp::Neg:    dst = ~dst + 1; break;
          case BpfOp::LdCtx:
            dst = ctx.at(static_cast<std::size_t>(insn.imm));
            break;
          case BpfOp::Ja:     taken = true; break;
          case BpfOp::JeqImm: taken = dst == imm; break;
          case BpfOp::JeqReg: taken = dst == srcv; break;
          case BpfOp::JneImm: taken = dst != imm; break;
          case BpfOp::JgtImm: taken = dst > imm; break;
          case BpfOp::JgtReg: taken = dst > srcv; break;
          case BpfOp::JgeImm: taken = dst >= imm; break;
          case BpfOp::JltImm: taken = dst < imm; break;
          case BpfOp::JleImm: taken = dst <= imm; break;
          case BpfOp::Call: {
            auto it = helpers_.find(static_cast<std::uint32_t>(insn.imm));
            LAKE_ASSERT(it != helpers_.end(),
                        "unverified helper call %lld",
                        static_cast<long long>(insn.imm));
            std::array<std::uint64_t, 5> args{regs[1], regs[2], regs[3],
                                              regs[4], regs[5]};
            regs[0] = it->second(args);
            break;
          }
          case BpfOp::Exit:
            return regs[0];
        }

        pc += 1;
        if (taken && isJump(insn.op))
            pc += static_cast<std::size_t>(insn.off);
    }
    panic("bpf program ran off the end: verifier bug");
}

BpfProgramBuilder &
BpfProgramBuilder::movImm(std::uint8_t dst, std::int64_t imm)
{
    return emit({BpfOp::MovImm, dst, 0, 0, imm});
}

BpfProgramBuilder &
BpfProgramBuilder::movReg(std::uint8_t dst, std::uint8_t src)
{
    return emit({BpfOp::MovReg, dst, src, 0, 0});
}

BpfProgramBuilder &
BpfProgramBuilder::addImm(std::uint8_t dst, std::int64_t imm)
{
    return emit({BpfOp::AddImm, dst, 0, 0, imm});
}

BpfProgramBuilder &
BpfProgramBuilder::ldCtx(std::uint8_t dst, std::int64_t slot)
{
    return emit({BpfOp::LdCtx, dst, 0, 0, slot});
}

BpfProgramBuilder &
BpfProgramBuilder::jltImm(std::uint8_t dst, std::int64_t imm,
                          std::int32_t off)
{
    return emit({BpfOp::JltImm, dst, 0, off, imm});
}

BpfProgramBuilder &
BpfProgramBuilder::jgeImm(std::uint8_t dst, std::int64_t imm,
                          std::int32_t off)
{
    return emit({BpfOp::JgeImm, dst, 0, off, imm});
}

BpfProgramBuilder &
BpfProgramBuilder::call(std::uint32_t helper)
{
    return emit({BpfOp::Call, 0, 0, 0, helper});
}

BpfProgramBuilder &
BpfProgramBuilder::exit()
{
    return emit({BpfOp::Exit, 0, 0, 0, 0});
}

BpfProgramBuilder &
BpfProgramBuilder::emit(BpfInsn insn)
{
    prog_.push_back(insn);
    return *this;
}

BpfPolicy::BpfPolicy(const BpfVm &vm, std::vector<BpfInsn> program,
                     UtilProbe probe, Config config)
    : vm_(vm), program_(std::move(program)), probe_(std::move(probe)),
      probe_cfg_{.probe_interval = config.probe_interval,
                 .avg_window = config.avg_window},
      smoother_(probe_cfg_)
{
    Status st = vm_.verify(program_, kCtxSlotCount);
    if (!st.isOk())
        fatal("rejected bpf policy: %s", st.toString().c_str());
}

Engine
BpfPolicy::decide(const PolicyInput &in)
{
    // The same rate-limited, staleness-bounded smoothing as the native
    // Fig. 3 policy; without a probe utilization reads as 0.
    double util =
        probe_ ? smoother_.sample(probe_, in.now, probe_cfg_) : 0.0;

    std::vector<std::uint64_t> ctx(kCtxSlotCount, 0);
    ctx[kCtxBatchSize] = in.batch_size;
    ctx[kCtxNowMs] = in.now / 1'000'000ull;
    ctx[kCtxInterArrivalUsX100] =
        static_cast<std::uint64_t>(in.inter_arrival_us * 100.0);
    ctx[kCtxGpuUtilX100] = static_cast<std::uint64_t>(util * 100.0);

    return vm_.run(program_, ctx) != 0 ? Engine::Gpu : Engine::Cpu;
}

std::vector<BpfInsn>
buildFig3Program(double exec_threshold_pct, std::size_t batch_threshold)
{
    // r1 = util_x100; r2 = batch
    // if (r1 >= exec_threshold_x100) return 0    (contended -> CPU)
    // if (r2 <  batch_threshold)     return 0    (unprofitable -> CPU)
    // return 1                                    (GPU)
    auto exec_x100 = static_cast<std::int64_t>(exec_threshold_pct * 100.0);
    BpfProgramBuilder b;
    b.ldCtx(1, kCtxGpuUtilX100)                                   // 0
        .ldCtx(2, kCtxBatchSize)                                  // 1
        .movImm(0, 0)                                             // 2
        .jgeImm(1, exec_x100, 2)          // 3: contended -> 6    (CPU)
        .jltImm(2, static_cast<std::int64_t>(batch_threshold), 1)
                                          // 4: small batch -> 6  (CPU)
        .movImm(0, 1)                     // 5: GPU
        .exit();                          // 6: return r0
    return b.take();
}

} // namespace lake::policy
