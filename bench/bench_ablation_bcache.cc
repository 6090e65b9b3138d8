/**
 * @file
 * Ablation: Broadcast Cache sizing. The paper argues 32 entries (one
 * per architectural vector register, bounding the accumulation
 * buffers) with 4 read ports gives >90% hit rates on all kernels. We
 * sweep entries and ports on an embedded-broadcast kernel.
 */

#include "bench_util.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);

    NetworkModel net = resnet50Pruned();
    KernelSpec spec = makeConvKernel(findConvLayer(net, "resnet3_2b"),
                                     Phase::BwdWeights, net.batch);
    GemmConfig g = sliceFor(spec, Precision::Fp32, 0.2, 0.5, flags);

    MachineConfig base_m;
    Engine base(base_m, SaveConfig::baseline());
    ResultStore store(storeOptions(flags));
    auto rb = memoRunGemm(store, base, g, 1, 2);

    std::printf("B$ sizing on %s (embedded broadcast, BS=20%% "
                "NBS=50%%), data design, 2 VPUs:\n\n",
                spec.name.c_str());
    std::printf("%-8s %-7s %-6s %-9s %s\n", "layout", "entries",
                "ports", "hit rate", "speedup over baseline");
    for (ALayout layout : {ALayout::PackedKMajor, ALayout::RowMajor}) {
        GemmConfig gl = g;
        gl.aLayout = layout;
        for (int entries : {4, 8, 16, 32, 64}) {
            for (int ports : {2, 4}) {
                MachineConfig m;
                m.bcacheEntries = entries;
                m.bcachePorts = ports;
                Engine e(m, SaveConfig{});
                auto r = memoRunGemm(store, e, gl, 1, 2);
                std::printf("%-8s %-7d %-6d %7.1f%%  %6.2fx\n",
                            layout == ALayout::PackedKMajor ? "packed"
                                                            : "rowmaj",
                            entries, ports,
                            100 * r.stats.get("bcache_hit_rate"),
                            speedup(rb, r));
            }
        }
    }
    std::printf("\nPaper: 32 direct-mapped entries suffice (>90%% hit "
                "rate) because the accumulation buffers bound the "
                "live broadcast lines; 4 ports cover the VFMA "
                "throughput. With the DNNL packed panel even a tiny "
                "B$ hits; an unpacked row-major panel conflicts in a "
                "direct-mapped B$ at any size — the locality the "
                "paper's design exploits is created by the kernel's "
                "data layout.\n");
    maybePrintCacheStats(flags, &store);
    return 0;
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
