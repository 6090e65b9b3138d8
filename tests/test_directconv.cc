/**
 * @file
 * Direct-convolution kernel tests: the emitted trace must compute a
 * true convolution (checked against an independent direct
 * computation, not just trace replay), the padding halo must behave
 * as real zero broadcasts, and SAVE must accelerate it like any
 * other sparse vector workload.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "engine/engine.h"
#include "kernels/directconv.h"
#include "sim/multicore.h"

namespace save {
namespace {

DirectConvConfig
smallConv(double act, double wsp)
{
    DirectConvConfig c;
    c.layer = ConvLayer{"t", 8, 48, 3, 3, 12, 12, 1};
    c.owBlock = 7;
    c.ocBlocks = 3;
    c.ohRows = 2;
    c.actSparsity = act;
    c.weightSparsity = wsp;
    c.seed = 17;
    return c;
}

/** Simulate and return cycles; output lands in `image`. */
uint64_t
simulate(const SaveConfig &scfg, const DirectConvWorkload &w,
         MemoryImage &image, int vpus = 2)
{
    MachineConfig m;
    m.cores = 1;
    Multicore mc(m, scfg, vpus, &image);
    mc.hierarchy().warmL3(w.warmRanges());
    VectorTrace t(w.trace);
    mc.bindTraces({&t});
    return mc.run(50'000'000);
}

void
checkOutputs(const DirectConvWorkload &w, const MemoryImage &image)
{
    const ConvLayer &l = w.cfg.layer;
    for (int oy = 0; oy < w.cfg.ohRows; ++oy)
        for (int ox = 0; ox < l.ow(); ++ox)
            for (int oc = 0; oc < w.cfg.ocBlocks * kVecLanes; ++oc) {
                float got =
                    image.readLine(w.outAddr(oc / kVecLanes, oy, ox))
                        .f32(oc % kVecLanes);
                float want = referenceConvOutput(w, image, oc, oy, ox);
                ASSERT_EQ(got, want)
                    << "oc=" << oc << " oy=" << oy << " ox=" << ox;
            }
}

TEST(DirectConv, DenseConvolutionBitwiseCorrect)
{
    MemoryImage image;
    DirectConvWorkload w = buildDirectConv(smallConv(0.0, 0.0), image);
    simulate(SaveConfig{}, w, image);
    checkOutputs(w, image);
}

TEST(DirectConv, SparseConvolutionBitwiseCorrect)
{
    for (auto [a, ws] : {std::pair{0.6, 0.0}, {0.0, 0.7}, {0.5, 0.5}}) {
        MemoryImage image;
        DirectConvWorkload w =
            buildDirectConv(smallConv(a, ws), image);
        simulate(SaveConfig{}, w, image);
        checkOutputs(w, image);
    }
}

TEST(DirectConv, BaselinePipelineAlsoCorrect)
{
    MemoryImage image;
    DirectConvWorkload w = buildDirectConv(smallConv(0.4, 0.4), image);
    simulate(SaveConfig::baseline(), w, image);
    checkOutputs(w, image);
}

TEST(DirectConv, PaddingHaloYieldsZeroBroadcastSkips)
{
    // Dense interior, dense weights: the only zeros are the padding
    // halo, and the first output row reads it -> BS-skipped VFMAs.
    MemoryImage image;
    DirectConvWorkload w = buildDirectConv(smallConv(0.0, 0.0), image);
    MachineConfig m;
    m.cores = 1;
    Multicore mc(m, SaveConfig{}, 2, &image);
    mc.hierarchy().warmL3(w.warmRanges());
    VectorTrace t(w.trace);
    mc.bindTraces({&t});
    mc.run(50'000'000);
    EXPECT_GT(mc.core(0).stats().get("bs_skipped_vfmas"), 0.0);
}

TEST(DirectConv, SaveSpeedsUpSparseActivations)
{
    DirectConvConfig cfg = smallConv(0.7, 0.0);
    cfg.layer.inC = 16;
    cfg.ohRows = 3;
    MemoryImage i1, i2;
    DirectConvWorkload w1 = buildDirectConv(cfg, i1);
    DirectConvWorkload w2 = buildDirectConv(cfg, i2);
    uint64_t base = simulate(SaveConfig::baseline(), w1, i1);
    uint64_t sv = simulate(SaveConfig{}, w2, i2);
    EXPECT_LT(sv, base * 4 / 5);
}

TEST(DirectConv, EngineRunKernelIsTheOneCoreShareBuiltByHand)
{
    // Engine::runKernel on one core of the default machine is the
    // machine the direct-conv sweep points once built by hand: one
    // core, a 28th of the DRAM bandwidth, the kernel's warm-up, one
    // VectorTrace. Same cycles, same time, same stat map.
    const DirectConvConfig c = smallConv(0.5, 0.3);
    MemoryImage hand_image;
    const DirectConvWorkload hand = buildDirectConv(c, hand_image);
    MachineConfig m;
    m.cores = 1;
    m.dramGBps /= 28.0;
    Multicore mc(m, SaveConfig{}, 2, &hand_image);
    mc.hierarchy().warmL3(hand.warmRanges());
    VectorTrace t(hand.trace);
    mc.bindTraces({&t});
    const uint64_t cycles = mc.run(100'000'000);

    MemoryImage image;
    const DirectConvWorkload w = buildDirectConv(c, image);
    const KernelResult r = Engine(MachineConfig{}, SaveConfig{})
                               .runKernel(image, {w.trace}, w.warmRanges(),
                                          2, 100'000'000);
    EXPECT_EQ(r.cycles, cycles);
    EXPECT_EQ(r.timeNs, static_cast<double>(cycles) / m.coreFreqGhz(2));
    EXPECT_EQ(r.stats.all(), mc.aggregateStats().all());
    checkOutputs(w, image);
}

TEST(DirectConv, MacCountMatchesGeometry)
{
    DirectConvConfig cfg = smallConv(0.0, 0.0);
    MemoryImage image;
    DirectConvWorkload w = buildDirectConv(cfg, image);
    // ohRows x ow x (ocBlocks*16) x inC x kh x kw
    EXPECT_EQ(w.macs(), 2ull * 12 * 48 * 8 * 9);
    size_t vfmas = 0;
    for (const Uop &u : w.trace)
        vfmas += u.isVfma();
    EXPECT_EQ(vfmas * kVecLanes, w.macs());
}

TEST(DirectConv, RaggedOwBlockHandled)
{
    // ow = 12 with owBlock 7: second block covers only 5 columns.
    MemoryImage image;
    DirectConvWorkload w = buildDirectConv(smallConv(0.3, 0.3), image);
    simulate(SaveConfig{}, w, image);
    checkOutputs(w, image); // includes columns 7..11
}

TEST(DirectConvDeathTest, StrideUnsupported)
{
    DirectConvConfig cfg = smallConv(0, 0);
    cfg.layer.stride = 2;
    MemoryImage image;
    EXPECT_DEATH(buildDirectConv(cfg, image), "stride");
}

} // namespace
} // namespace save
