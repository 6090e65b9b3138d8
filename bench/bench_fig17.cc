/**
 * @file
 * Fig. 17 reproduction: broadcast-cache designs on an
 * embedded-broadcast kernel — the FP32 back-propagation of weights of
 * ResNet3_2 with 2 VPUs — at 0% and 40% broadcasted sparsity, swept
 * over non-broadcasted sparsity.
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
    KernelSpec spec = makeConvKernel(findConvLayer(net, "resnet3_2b"),
                                     Phase::BwdWeights, net.batch);
    std::printf("kernel %s: %dx%d %s\n\n", spec.name.c_str(),
                spec.shape.mr, spec.shape.nrVecs * 16,
                spec.shape.pattern == BroadcastPattern::Embedded
                    ? "embedded-broadcast"
                    : "explicit-broadcast");

    Engine base(m, SaveConfig::baseline());
    ResultStore store(storeOptions(flags));
    GemmConfig dense = sliceFor(spec, Precision::Fp32, 0, 0, flags);
    auto rb = memoRunGemm(store, base, dense, 1, 2);

    struct Design
    {
        BcastCacheKind kind;
        const char *label;
    };
    const Design designs[] = {
        {BcastCacheKind::None, "No B$"},
        {BcastCacheKind::Mask, "B$ w/ masks"},
        {BcastCacheKind::Data, "B$ w/ data"},
    };

    // Fan the independent (BS, design, NBS) simulations across the
    // host thread pool, then print the grid serially in order.
    struct Point
    {
        double bs;
        BcastCacheKind kind;
        int w;
    };
    std::vector<Point> points;
    for (double bs : {0.0, 0.4})
        for (const Design &d : designs)
            for (int w = 0; w < 10; w += step)
                points.push_back({bs, d.kind, w});

    std::vector<double> speedups = parallelSweep(
        static_cast<int>(points.size()), [&](int i) {
            const Point &p = points[static_cast<size_t>(i)];
            std::string key =
                "bs" + std::to_string(p.bs) + "/bc" +
                std::to_string(static_cast<int>(p.kind)) + "/w" +
                std::to_string(p.w);
            return runner.point<double>(key, [&] {
                SaveConfig s;
                s.bcache = p.kind;
                Engine e(m, s);
                GemmConfig g = sliceFor(
                    spec, Precision::Fp32, p.bs, p.w * 0.1, flags,
                    31 + static_cast<uint64_t>(p.w));
                return speedup(rb, memoRunGemm(store, e, g, 1, 2));
            });
        });

    size_t next = 0;
    for (double bs : {0.0, 0.4}) {
        std::printf("BS = %s:\n%-13s", fmtPct(bs), "NBS");
        for (int w = 0; w < 10; w += step)
            std::printf(" %5d%%", w * 10);
        std::printf("\n");
        for (const Design &d : designs) {
            std::printf("%-13s", d.label);
            for (int w = 0; w < 10; w += step)
                std::printf(" %6.2f", speedups[next++]);
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf("Paper: without a B$ there is no speedup at any "
                "sparsity; the data design keeps gaining with NBS "
                "while the mask design is limited by L1 bandwidth on "
                "non-zero broadcasts.\n");
    maybePrintCacheStats(flags, &store);
    return runner.finish();
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
