// Contention management (§4.2/§4.3): installing the Fig. 3 policy, in
// both its native and eBPF-bytecode forms, and watching LAKE modulate
// between CPU and GPU as a user process takes and releases the GPU.

#include <cstdio>

#include "core/lake.h"
#include "policy/bpf.h"
#include "policy/policy.h"

using namespace lake;

namespace {

const char *
decide(policy::ExecPolicy &p, Clock &clock, std::size_t batch)
{
    policy::PolicyInput in;
    in.batch_size = batch;
    in.now = clock.now();
    return policy::engineName(p.decide(in));
}

} // namespace

int
main()
{
    core::Lake lake;
    Clock &clock = lake.clock();
    gpu::Device &dev = lake.device();

    // ---- native form of the Fig. 3 policy ----------------------------
    policy::ContentionConfig cfg;
    cfg.probe_interval = 5_ms;   // "...5 ms elapsed since last check..."
    cfg.avg_window = 4;          // moving average of utilization
    cfg.exec_threshold = 40.0;   // % GPU busy considered contended
    cfg.batch_threshold = 8;     // Table 3 crossover for the NN
    policy::FleetPlacementPolicy native({lake.nvmlProbe()},
                                        {.contention = cfg});

    // ---- the same policy as eBPF bytecode ----------------------------
    // The verifier statically checks it: forward-only jumps, bounded
    // context accesses, registered helpers only.
    policy::BpfVm vm;
    auto program = policy::buildFig3Program(40.0, 8);
    Status verdict = vm.verify(program, policy::kCtxSlotCount);
    std::printf("eBPF policy: %zu instructions, verifier says %s\n\n",
                program.size(), verdict.toString().c_str());
    policy::BpfPolicy::Config bcfg;
    bcfg.probe_interval = 5_ms;
    bcfg.avg_window = 4;
    policy::BpfPolicy bytecode(vm, program, lake.nvmlProbe(), bcfg);

    // ---- scenario -----------------------------------------------------
    std::printf("%-26s %8s %10s %10s\n", "phase", "util%",
                "native", "bytecode");

    auto show = [&](const char *phase, std::size_t batch) {
        double util = dev.utilization(clock.now(), 20_ms);
        std::printf("%-26s %7.0f%% %10s %10s\n", phase, util,
                    decide(native, clock, batch),
                    decide(bytecode, clock, batch));
    };

    show("idle GPU, batch 16", 16);
    show("idle GPU, batch 2", 2); // below the profitability crossover

    // A user process saturates the GPU for 100 ms.
    for (int i = 0; i < 20; ++i) {
        dev.reserveCompute(clock.now(), 5_ms);
        clock.advance(5_ms);
        policy::PolicyInput in;
        in.batch_size = 16;
        in.now = clock.now();
        native.decide(in);
        bytecode.decide(in);
    }
    show("user process on GPU", 16);

    // The user process exits; utilization decays across probe windows.
    for (int i = 0; i < 6; ++i) {
        clock.advance(5_ms);
        policy::PolicyInput in;
        in.batch_size = 16;
        in.now = clock.now();
        native.decide(in);
        bytecode.decide(in);
    }
    show("user process exited", 16);

    std::printf("\nBoth forms agree at every decision point: bytecode "
                "policies are how kernel developers install new "
                "contention behaviour without rebuilding LAKE.\n");
    return 0;
}
