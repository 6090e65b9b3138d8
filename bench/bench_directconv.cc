/**
 * @file
 * Cross-validation of the kernel abstraction: the figure benches
 * model conv layers as im2col GEMM slices; here the same layer runs
 * as a true direct convolution (padded halos, strided broadcast
 * streams, kh x kw x ic loop nest) and the SAVE speedups are compared
 * across activation sparsity.
 */

#include <memory>

#include "bench_util.h"
#include "kernels/directconv.h"
#include "sim/multicore.h"

using namespace save;

namespace {

double
runConv(const SaveConfig &scfg, const DirectConvWorkload &w,
        MemoryImage &image)
{
    MachineConfig m;
    m.cores = 1;
    m.dramGBps /= 28.0;
    Multicore mc(m, scfg, 2, &image);
    w.warmup(mc.hierarchy());
    VectorTrace t(w.trace);
    mc.bindTraces({&t});
    return static_cast<double>(mc.run(100'000'000)) /
           m.coreFreqGhz(2);
}

} // namespace

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    int step = flags.getInt("grid", 2);

    NetworkModel net = resnet50Pruned();
    ConvLayer layer = findConvLayer(net, "resnet3_2b");
    layer.ih = layer.iw = 14; // a slice of the 28x28 plane
    KernelSpec spec =
        makeConvKernel(layer, Phase::Forward, net.batch);

    std::printf("Direct convolution vs im2col-GEMM abstraction, "
                "%s (3x3, %d->%d channels), forward, 2 VPUs.\n"
                "SAVE speedup over the dense baseline, sweeping "
                "activation sparsity (weights dense):\n\n",
                layer.name.c_str(), layer.inC, layer.outC);

    std::printf("%-18s", "BS");
    for (int a = 0; a < 10; a += step)
        std::printf(" %5d%%", a * 10);
    std::printf("\n");

    // Direct-convolution path.
    double direct_dense = 0;
    std::printf("%-18s", "direct conv");
    for (int a = 0; a < 10; a += step) {
        DirectConvConfig c;
        c.layer = layer;
        c.ohRows = 2;
        c.actSparsity = a * 0.1;
        c.seed = 500 + static_cast<uint64_t>(a);
        MemoryImage i1, i2;
        DirectConvWorkload w1 = buildDirectConv(c, i1);
        DirectConvWorkload w2 = buildDirectConv(c, i2);
        if (a == 0)
            direct_dense = runConv(SaveConfig::baseline(), w1, i1);
        double t = runConv(SaveConfig{}, w2, i2);
        std::printf(" %5.2f", direct_dense / t);
    }
    std::printf("\n");

    // im2col GEMM abstraction of the same layer.
    MachineConfig m;
    Engine base(m, SaveConfig::baseline());
    Engine sv(m, SaveConfig{});
    ResultStore store(storeOptions(flags));
    GemmConfig dense_g = sliceFor(spec, Precision::Fp32, 0, 0, flags);
    auto rb = memoRunGemm(store, base, dense_g, 1, 2);
    std::printf("%-18s", "im2col GEMM");
    for (int a = 0; a < 10; a += step) {
        GemmConfig g = sliceFor(spec, Precision::Fp32, a * 0.1, 0.0,
                                flags, 520 + static_cast<uint64_t>(a));
        std::printf(" %5.2f", speedup(rb, memoRunGemm(store, sv, g, 1, 2)));
    }
    std::printf("\n\nBoth kernel forms expose the same broadcast "
                "sparsity to SAVE; the direct form adds padding-halo "
                "zeros and strided broadcast streams, which the B$ "
                "and the MGU handle identically.\n");
    maybePrintCacheStats(flags, &store);
    return 0;
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
