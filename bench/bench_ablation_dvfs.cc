/**
 * @file
 * Ablation: the paper's dynamic VPU-count selection (SecIV-D) via
 * performance-counter heuristics. For each sparsity point we compare
 * the counter heuristic's choice against the oracle (simulate both,
 * keep the faster), and report the time lost to wrong choices plus
 * the VPU energy saved by disabling a VPU at high sparsity.
 */

#include "bench_util.h"
#include "save/frequency.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    int step = flags.getInt("grid", 2);

    MachineConfig m;
    NetworkModel net = resnet50Pruned();
    KernelSpec spec = makeConvKernel(findConvLayer(net, "resnet2_2b"),
                                     Phase::Forward, net.batch);
    Engine sv(m, SaveConfig{});
    ResultStore store(storeOptions(flags));
    VpuPowerModel power;

    std::printf("Counter-driven VPU selection on %s, sweeping "
                "activation sparsity (weights dense):\n\n",
                spec.name.c_str());
    std::printf("%-5s %-6s %-7s %-8s %-8s %-8s %-10s %s\n", "BS",
                "util", "choice", "t2(us)", "t1(us)", "oracle",
                "heuristic", "VPU energy vs 2-VPU");

    int correct = 0, points = 0;
    for (int a = 0; a < 10; a += step) {
        double bs = a * 0.1;
        GemmConfig g = sliceFor(spec, Precision::Fp32, bs, 0.0, flags,
                                101 + static_cast<uint64_t>(a));
        VpuChoice choice = chooseVpusByCounters(sv, g);
        auto r2 = memoRunGemm(store, sv, g, 1, 2);
        auto r1 = memoRunGemm(store, sv, g, 1, 1);
        int oracle = r1.timeNs < r2.timeNs ? 1 : 2;
        const KernelResult &chosen = choice.vpus == 1 ? r1 : r2;
        double e2 = power.energy(r2, 2);
        double ec = power.energy(chosen, choice.vpus);
        ++points;
        correct += choice.vpus == oracle;
        std::printf("%3d%%  %5.2f  %d VPU   %8.2f %8.2f  %d VPU    "
                    "%d VPU      %+5.1f%%\n",
                    a * 10, choice.vpuUtilization, choice.vpus,
                    r2.timeNs / 1000, r1.timeNs / 1000, oracle,
                    choice.vpus, 100 * (ec - e2) / e2);
    }
    std::printf("\nheuristic agreement with oracle: %d/%d points\n",
                correct, points);
    std::printf("The heuristic needs one short probe run; the oracle "
                "needs both full configurations. Disabling a VPU cuts "
                "leakage roughly in half while the op count is "
                "unchanged.\n");
    maybePrintCacheStats(flags, &store);
    return 0;
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
