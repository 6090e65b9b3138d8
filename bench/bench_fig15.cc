/**
 * @file
 * Fig. 15 reproduction: SAVE speedup over the baseline on the
 * mixed-precision forward propagation of ResNet2_2, swept over
 * non-broadcasted (weight) and broadcasted (activation) sparsity at
 * 10% intervals, with (a) 2 VPUs @1.7GHz and (b) 1 VPU @2.1GHz.
 *
 * Extra flags:
 *   --trace-out=F  record the dense baseline slice into trace file F
 *   --trace-in=F   replay trace F as the baseline instead of
 *                  regenerating it (see `save-trace --help`)
 */

#include "bench_util.h"

#include "trace/replay.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    int step = flags.getInt("grid", 1);
    SweepRunner runner(sweepOptions(flags));

    MachineConfig m;
    NetworkModel net = resnet50Pruned();
    KernelSpec spec = makeConvKernel(findConvLayer(net, "resnet2_2b"),
                                     Phase::Forward, net.batch);

    Engine base(m, SaveConfig::baseline());
    Engine sv(m, SaveConfig{});
    ResultStore store(storeOptions(flags));

    // The upfront dense baseline doubles as the trace hook: --trace-out
    // records it, --trace-in replays a recording in its place (so a
    // captured slice can be swept against without regenerating it).
    GemmConfig dense = sliceFor(spec, Precision::Bf16, 0, 0, flags);
    std::string trace_out = flags.getStr("trace-out", "");
    std::string trace_in = flags.getStr("trace-in", "");
    KernelResult rb;
    if (!trace_in.empty()) {
        ReplayOutcome ro = replayTrace(trace_in);
        rb.cycles = ro.cycles;
        rb.timeNs = ro.timeNs;
        rb.coreGhz = ro.coreGhz;
        rb.stats = ro.stats;
    } else if (!trace_out.empty()) {
        rb = base.recordGemm(dense, trace_out, "fig15-dense-baseline",
                             1, 2);
    } else {
        rb = memoRunGemm(store, base, dense, 1, 2);
    }

    // Enumerate the whole (vpus, NBS, BS) grid up front and fan the
    // independent slice simulations across the host thread pool.
    struct Point
    {
        int vpus, w, a;
    };
    std::vector<Point> points;
    for (int vpus : {2, 1})
        for (int w = 0; w < 10; w += step)
            for (int a = 0; a < 10; a += step)
                points.push_back({vpus, w, a});

    std::vector<double> speedups = parallelSweep(
        static_cast<int>(points.size()), [&](int i) {
            const Point &p = points[static_cast<size_t>(i)];
            std::string key = "vpus" + std::to_string(p.vpus) + "/w" +
                              std::to_string(p.w) + "/a" +
                              std::to_string(p.a);
            return runner.point<double>(key, [&] {
                GemmConfig g = sliceFor(
                    spec, Precision::Bf16, p.a * 0.1, p.w * 0.1, flags,
                    7 + static_cast<uint64_t>(p.w * 10 + p.a));
                return speedup(rb, memoRunGemm(store, sv, g, 1, p.vpus));
            });
        });

    size_t next = 0;
    for (int vpus : {2, 1}) {
        std::printf("=== Fig. 15%s: %d VPU(s) at %.1fGHz ===\n",
                    vpus == 2 ? "a" : "b", vpus,
                    m.coreFreqGhz(vpus));
        std::printf("%8s", "NBS\\BS");
        for (int a = 0; a < 10; a += step)
            std::printf(" %5d%%", a * 10);
        std::printf("\n");
        for (int w = 0; w < 10; w += step) {
            std::printf("%7d%%", w * 10);
            for (int a = 0; a < 10; a += step)
                std::printf(" %6.2f", speedups[next++]);
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf("Paper: 2 VPUs cap ~1.49x (reached near 60%% of either "
                "type); 1 VPU starts at 0.71x dense, reaches ~1.96x, "
                "and beats 2 VPUs when either sparsity exceeds "
                "~70%%.\n");
    maybePrintCacheStats(flags, &store);
    return runner.finish();
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
