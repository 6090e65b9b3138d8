/**
 * @file
 * Fig. 19 reproduction: SAVE's mixed-precision multiplicand-lane
 * compression (SecV) on the MP back-propagation of input of
 * ResNet4_1a, with 1 VPU, swept over non-broadcasted sparsity.
 * Speedups are over the 2-VPU baseline.
 */

#include "bench_util.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    int step = flags.getInt("grid", 1);
    SweepRunner runner(sweepOptions(flags));

    MachineConfig m;
    NetworkModel net = resnet50Pruned();
    KernelSpec spec = makeConvKernel(findConvLayer(net, "resnet4_1a"),
                                     Phase::BwdInput, net.batch);
    std::printf("kernel %s: %dx%d mixed precision\n\n",
                spec.name.c_str(), spec.shape.mr,
                spec.shape.nrVecs * 16);

    Engine base(m, SaveConfig::baseline());
    ResultStore store(storeOptions(flags));
    GemmConfig dense = sliceFor(spec, Precision::Bf16, 0, 0, flags);
    auto rb = memoRunGemm(store, base, dense, 1, 2);

    SaveConfig with_mp;
    SaveConfig without_mp;
    without_mp.mpCompress = false;
    Engine ew(m, with_mp), eo(m, without_mp);

    // Both rows' sweeps are independent seeded simulations: run the
    // whole (technique, NBS) grid through the thread pool.
    std::vector<int> nbs_bins;
    for (int w = 0; w < 10; w += step)
        nbs_bins.push_back(w);
    int n = static_cast<int>(nbs_bins.size());

    std::vector<double> speedups =
        parallelSweep(2 * n, [&](int i) {
            const Engine &e = i < n ? eo : ew;
            int w = nbs_bins[static_cast<size_t>(i % n)];
            std::string key = std::string(i < n ? "nomp" : "mp") +
                              "/w" + std::to_string(w);
            return runner.point<double>(key, [&] {
                GemmConfig g = sliceFor(spec, Precision::Bf16, 0.0,
                                        w * 0.1, flags,
                                        71 + static_cast<uint64_t>(w));
                return speedup(rb, memoRunGemm(store, e, g, 1, 1));
            });
        });

    std::printf("%-18s", "NBS");
    for (int w : nbs_bins)
        std::printf(" %5d%%", w * 10);
    std::printf("\n%-18s", "w/o MP technique");
    for (int i = 0; i < n; ++i)
        std::printf(" %6.2f", speedups[static_cast<size_t>(i)]);
    std::printf("\n%-18s", "w/ MP technique");
    for (int i = 0; i < n; ++i)
        std::printf(" %6.2f", speedups[static_cast<size_t>(n + i)]);
    std::printf("\n\nPaper: the MP technique improves speedup at every "
                "sparsity level, sometimes substantially (exploitable "
                "sparsity without it is only the square of the ML "
                "sparsity).\n");
    maybePrintCacheStats(flags, &store);
    return runner.finish();
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
