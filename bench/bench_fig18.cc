/**
 * @file
 * Fig. 18 reproduction: VPU lane load-balancing techniques — VC, RVC,
 * VC+LWD, RVC+LWD, and the impractical HC reference — on the two
 * paper kernels: the FP32 back-propagation of input of ResNet3_2
 * (28 accumulators, full B reuse, effective CW ~ 1) and of ResNet5_1a
 * (21 accumulators, B reuse 7, effective CW ~ 3), with 1 VPU and
 * non-broadcasted sparsity only. Speedups are over the 2-VPU
 * baseline.
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
    ResultStore store(storeOptions(flags));

    struct Variant
    {
        SchedPolicy policy;
        bool lwd;
        const char *label;
    };
    const Variant variants[] = {
        {SchedPolicy::VC, false, "VC"},
        {SchedPolicy::RVC, false, "RVC"},
        {SchedPolicy::VC, true, "VC+LWD"},
        {SchedPolicy::RVC, true, "RVC+LWD"},
        {SchedPolicy::HC, true, "HC"},
    };

    for (const char *layer : {"resnet3_2b", "resnet5_1a"}) {
        KernelSpec spec = makeConvKernel(findConvLayer(net, layer),
                                         Phase::BwdInput, net.batch);
        std::printf("=== %s: %dx%d, effective CW ~ %d ===\n",
                    spec.name.c_str(), spec.shape.mr,
                    spec.shape.nrVecs * 16,
                    spec.shape.mr * spec.shape.nrVecs / spec.shape.mr);

        Engine base(m, SaveConfig::baseline());
        GemmConfig dense = sliceFor(spec, Precision::Fp32, 0, 0, flags);
        auto rb = memoRunGemm(store, base, dense, 1, 2);

        std::printf("%-9s", "NBS");
        for (int w = 0; w < 10; w += step)
            std::printf(" %5d%%", w * 10);
        std::printf("\n");
        // All (variant, NBS) cells are independent: fan them out.
        struct Point
        {
            SchedPolicy policy;
            bool lwd;
            int w;
        };
        std::vector<Point> points;
        for (const Variant &v : variants)
            for (int w = 0; w < 10; w += step)
                points.push_back({v.policy, v.lwd, w});

        std::vector<double> speedups = parallelSweep(
            static_cast<int>(points.size()), [&](int i) {
                const Point &p = points[static_cast<size_t>(i)];
                std::string key =
                    std::string(layer) + "/pol" +
                    std::to_string(static_cast<int>(p.policy)) +
                    "/lwd" + std::to_string(p.lwd ? 1 : 0) + "/w" +
                    std::to_string(p.w);
                return runner.point<double>(key, [&] {
                    SaveConfig s;
                    s.policy = p.policy;
                    s.laneWiseDep = p.lwd;
                    Engine e(m, s);
                    GemmConfig g = sliceFor(
                        spec, Precision::Fp32, 0.0, p.w * 0.1, flags,
                        53 + static_cast<uint64_t>(p.w));
                    return speedup(rb, memoRunGemm(store, e, g, 1, 1));
                });
            });

        size_t next = 0;
        for (const Variant &v : variants) {
            std::printf("%-9s", v.label);
            for (int w = 0; w < 10; w += step)
                std::printf(" %6.2f", speedups[next++]);
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf("Paper: with CW~1, plain VC suffers badly and RVC "
                "recovers; with CW~3, VC+LWD catches up to RVC; "
                "RVC+LWD is best everywhere and close to HC.\n");
    maybePrintCacheStats(flags, &store);
    return runner.finish();
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
