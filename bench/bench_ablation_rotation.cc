/**
 * @file
 * Ablation: how many rotational states does rotate-vertical
 * coalescing need? The paper fixes 3 (shift by -1/0/+1) to bound the
 * rotator cost and argues it triples the effective combination
 * window. We sweep the state count on the worst-case kernel (28
 * accumulators sharing one B register, effective CW ~ 1) to show the
 * marginal value of more states.
 */

#include "bench_util.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    int step = flags.getInt("grid", 3);

    MachineConfig m;
    NetworkModel net = resnet50Pruned();
    KernelSpec spec = makeConvKernel(findConvLayer(net, "resnet3_2b"),
                                     Phase::BwdInput, net.batch);
    Engine base(m, SaveConfig::baseline());
    ResultStore store(storeOptions(flags));
    GemmConfig dense = sliceFor(spec, Precision::Fp32, 0, 0, flags);
    auto rb = memoRunGemm(store, base, dense, 1, 2);

    std::printf("Rotation-state ablation on %s (%dx%d, CW~1), 1 VPU, "
                "speedup over 2-VPU baseline:\n\n",
                spec.name.c_str(), spec.shape.mr,
                spec.shape.nrVecs * 16);
    std::printf("%-12s", "NBS");
    for (int w = 0; w < 10; w += step)
        std::printf(" %5d%%", w * 10);
    std::printf("\n");

    for (int states : {1, 2, 3, 5, 7}) {
        SaveConfig s;
        s.rotationStates = states;
        Engine e(m, s);
        std::printf("%d state%s   ", states, states == 1 ? " " : "s");
        for (int w = 0; w < 10; w += step) {
            GemmConfig g = sliceFor(spec, Precision::Fp32, 0.0,
                                    w * 0.1, flags,
                                    91 + static_cast<uint64_t>(w));
            auto r = memoRunGemm(store, e, g, 1, 1);
            std::printf(" %6.2f", speedup(rb, r));
        }
        std::printf("\n");
    }
    std::printf("\n1 state degenerates to plain vertical coalescing; "
                "the paper's 3 states capture most of the benefit — "
                "additional states trade more rotator hardware for "
                "small returns.\n");
    maybePrintCacheStats(flags, &store);
    return 0;
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
