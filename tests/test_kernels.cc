/**
 * @file
 * Unit tests for the workload generators: sparsity injection, GEMM
 * trace structure, conv-to-GEMM lowering, micro-kernel shape choice,
 * LSTM cells, and multicore sharding.
 */

#include <gtest/gtest.h>

#include "cache/result_store.h"
#include "engine/engine.h"
#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "kernels/lstm.h"
#include "kernels/sparsity.h"
#include "util/error.h"

namespace save {
namespace {

TEST(Sparsity, FillRateF32)
{
    MemoryImage m;
    uint64_t base = m.allocRegion(4 * 20000);
    Rng rng(3);
    fillF32(m, base, 20000, 0.6, rng);
    EXPECT_NEAR(measuredSparsityF32(m, base, 20000), 0.6, 0.02);
}

TEST(Sparsity, FillRateBf16)
{
    MemoryImage m;
    uint64_t base = m.allocRegion(2 * 20000);
    Rng rng(4);
    fillBf16(m, base, 20000, 0.3, rng);
    EXPECT_NEAR(measuredSparsityBf16(m, base, 20000), 0.3, 0.02);
}

TEST(Sparsity, DenseFillHasNoZeros)
{
    MemoryImage m;
    uint64_t base = m.allocRegion(4 * 1000);
    Rng rng(5);
    fillF32(m, base, 1000, 0.0, rng);
    EXPECT_EQ(measuredSparsityF32(m, base, 1000), 0.0);
}

TEST(GemmGen, MacCount)
{
    GemmConfig g;
    g.mr = 4;
    g.nrVecs = 2;
    g.kSteps = 10;
    g.tiles = 3;
    EXPECT_EQ(g.macs(), 4ull * 2 * 16 * 10 * 3);
    g.precision = Precision::Bf16;
    EXPECT_EQ(g.macs(), 4ull * 2 * 16 * 10 * 3 * 2);
}

TEST(GemmGen, TraceStructureExplicit)
{
    MemoryImage m;
    GemmConfig g;
    g.mr = 3;
    g.nrVecs = 2;
    g.kSteps = 5;
    g.tiles = 2;
    GemmWorkload w = buildGemm(g, m);
    size_t vfmas = 0, bcasts = 0, loads = 0, stores = 0, alus = 0;
    for (const Uop &u : w.trace) {
        if (u.op == Opcode::VfmaPs) ++vfmas;
        if (u.op == Opcode::BroadcastLoad) ++bcasts;
        if (u.op == Opcode::LoadVec) ++loads;
        if (u.op == Opcode::StoreVec) ++stores;
        if (u.op == Opcode::Alu) ++alus;
    }
    EXPECT_EQ(vfmas, 2u * 5 * 3 * 2);       // tiles*k*mr*nr
    EXPECT_EQ(bcasts, 2u * 5 * 3);          // tiles*k*mr
    EXPECT_EQ(loads, 2u * (5 * 2 + 3 * 2)); // B per k + C tile loads
    EXPECT_EQ(stores, 2u * 3 * 2);
    EXPECT_EQ(alus, 2u * 5);
}

TEST(GemmGen, TraceStructureEmbedded)
{
    MemoryImage m;
    GemmConfig g;
    g.mr = 4;
    g.nrVecs = 1;
    g.kSteps = 3;
    g.pattern = BroadcastPattern::Embedded;
    GemmWorkload w = buildGemm(g, m);
    size_t vfmas = 0, bcasts = 0;
    for (const Uop &u : w.trace) {
        if (u.op == Opcode::VfmaPsBcast) ++vfmas;
        if (u.op == Opcode::BroadcastLoad) ++bcasts;
    }
    EXPECT_EQ(vfmas, 3u * 4);
    EXPECT_EQ(bcasts, 0u); // embedded: no explicit broadcast uops
}

TEST(GemmGen, PackedAPanelIsKMajor)
{
    // One k step's broadcasts must be contiguous (B$ locality).
    MemoryImage m;
    GemmConfig g;
    g.mr = 8;
    g.nrVecs = 1;
    g.kSteps = 4;
    g.pattern = BroadcastPattern::Embedded;
    GemmWorkload w = buildGemm(g, m);
    std::vector<uint64_t> step0_addrs;
    for (const Uop &u : w.trace)
        if (u.op == Opcode::VfmaPsBcast)
            step0_addrs.push_back(u.addr);
    ASSERT_GE(step0_addrs.size(), 8u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(step0_addrs[static_cast<size_t>(i + 1)] -
                      step0_addrs[static_cast<size_t>(i)],
                  4u);
}

TEST(GemmGen, RegisterBudgetEnforced)
{
    MemoryImage m;
    GemmConfig g;
    g.mr = 28;
    g.nrVecs = 1;
    g.pattern = BroadcastPattern::Embedded;
    EXPECT_NO_THROW(buildGemm(g, m)); // 29 regs: fits
    GemmConfig bad = g;
    bad.mr = 32;
    try {
        buildGemm(bad, m);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("register tile too big"),
                  std::string::npos)
            << e.what();
    }
}

TEST(GemmGen, ShardedSharesAPanel)
{
    MemoryImage m;
    GemmConfig g;
    g.mr = 4;
    g.nrVecs = 2;
    g.kSteps = 8;
    auto shards = buildShardedGemm(g, m, 3);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].aBase, shards[1].aBase);
    EXPECT_EQ(shards[1].aBase, shards[2].aBase);
    EXPECT_NE(shards[0].bBase, shards[1].bBase);
    EXPECT_NE(shards[0].cBase, shards[1].cBase);
}

bool
sameUop(const Uop &a, const Uop &b)
{
    return a.op == b.op && a.dst == b.dst && a.srcA == b.srcA &&
           a.srcB == b.srcB && a.srcC == b.srcC && a.wmask == b.wmask &&
           a.addr == b.addr && a.maskImm == b.maskImm;
}

/** Every region's base and bytes are equal. */
void
expectSameImage(const MemoryImage &a, const MemoryImage &b)
{
    ASSERT_EQ(a.numRegions(), b.numRegions());
    for (size_t r = 0; r < a.numRegions(); ++r) {
        EXPECT_EQ(a.regionBase(r), b.regionBase(r)) << r;
        EXPECT_TRUE(a.regionData(r) == b.regionData(r)) << r;
    }
}

GemmConfig
streamedSlice()
{
    GemmConfig g;
    g.mr = 5;
    g.nrVecs = 4;
    g.kSteps = 9;
    g.tiles = 2;
    g.pattern = BroadcastPattern::Embedded;
    g.precision = Precision::Bf16;
    g.bsSparsity = 0.5;
    g.nbsSparsity = 0.25;
    g.useWriteMask = true;
    g.writeMask = 0x00ff;
    g.seed = 5;
    return g;
}

TEST(GemmGen, FillAndStreamMatchBuild)
{
    // fillShardedGemm writes buildShardedGemm's data, and each core's
    // GemmStream emits that core's trace, uop for uop.
    MemoryImage built, filled;
    const auto want = buildShardedGemm(streamedSlice(), built, 2);
    const auto got = fillShardedGemm(streamedSlice(), filled, 2);
    expectSameImage(filled, built);
    ASSERT_EQ(got.size(), 2u);
    for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_TRUE(got[c].trace.empty());
        GemmStream stream(got[c]);
        size_t n = 0;
        for (Uop u; stream.next(u); ++n)
            ASSERT_TRUE(n < want[c].trace.size() &&
                        sameUop(u, want[c].trace[n]))
                << "core " << c << " uop " << n;
        EXPECT_EQ(n, want[c].trace.size());
        Uop u;
        EXPECT_FALSE(stream.next(u)); // stays exhausted
    }
}

TEST(GemmGen, RunFilledMatchesRunGemm)
{
    // Runs on copies of one fill equal runGemm's, stat for stat, for
    // every configuration that shares the fill, and leave it as filled.
    MemoryImage image;
    const auto work = fillShardedGemm(streamedSlice(), image, 2);
    const MemoryImage filled = image;
    for (const SaveConfig &scfg : {SaveConfig::baseline(), SaveConfig{}})
        for (int vpus : {2, 1}) {
            const Engine eng(MachineConfig{}, scfg);
            const CasValue got = toCasValue(eng.runFilled(image, work, vpus));
            const CasValue want =
                toCasValue(eng.runGemm(streamedSlice(), 2, vpus));
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(got.timeNs, want.timeNs);
            EXPECT_EQ(got.coreGhz, want.coreGhz);
            EXPECT_EQ(got.stats, want.stats);
        }
    expectSameImage(image, filled);
}

TEST(ConvDims, ForwardGemm)
{
    ConvLayer l{"x", 256, 512, 3, 3, 28, 28, 1};
    GemmDims d = convGemmDims(l, Phase::Forward, 32);
    EXPECT_EQ(d.m, 28 * 28 * 32);
    EXPECT_EQ(d.n, 512);
    EXPECT_EQ(d.k, 256 * 9);
    EXPECT_EQ(d.macs(), l.macsPerImage() * 32);
}

TEST(ConvDims, BackwardGemms)
{
    ConvLayer l{"x", 64, 128, 3, 3, 56, 56, 1};
    GemmDims di = convGemmDims(l, Phase::BwdInput, 8);
    EXPECT_EQ(di.n, 64);
    EXPECT_EQ(di.k, 128 * 9);
    GemmDims dw = convGemmDims(l, Phase::BwdWeights, 8);
    EXPECT_EQ(dw.m, 64 * 9);
    EXPECT_EQ(dw.n, 128);
    EXPECT_EQ(dw.k, 56 * 56 * 8);
    // All three phases move the same MAC volume.
    EXPECT_EQ(di.macs(), dw.macs());
}

TEST(ConvDims, StridedOutput)
{
    ConvLayer l{"x", 3, 64, 7, 7, 224, 224, 2};
    EXPECT_EQ(l.oh(), 112);
    EXPECT_EQ(l.ow(), 112);
}

TEST(ShapeChooser, ForwardExplicitScalesWithN)
{
    KernelShape s64 = chooseShape(Phase::Forward, 64);
    EXPECT_EQ(s64.pattern, BroadcastPattern::Explicit);
    EXPECT_EQ(s64.nrVecs, 4);
    KernelShape s512 = chooseShape(Phase::Forward, 512);
    EXPECT_EQ(s512.nrVecs, 6);
    EXPECT_EQ(s512.mr, 4);
    // Register budget always respected.
    for (int64_t n : {16, 48, 64, 128, 512}) {
        KernelShape s = chooseShape(Phase::Forward, n);
        EXPECT_LE(s.mr * s.nrVecs + s.nrVecs + 2, kLogicalVecRegs);
    }
}

TEST(ShapeChooser, BackwardMatchesPaperKernels)
{
    // SecVII-D: narrow-N backward kernels use 28 accumulators with
    // full B reuse; wide-N use 21 accumulators (7x3).
    KernelShape narrow = chooseShape(Phase::BwdInput, 128);
    EXPECT_EQ(narrow.mr, 28);
    EXPECT_EQ(narrow.nrVecs, 1);
    EXPECT_EQ(narrow.pattern, BroadcastPattern::Embedded);
    KernelShape wide = chooseShape(Phase::BwdInput, 512);
    EXPECT_EQ(wide.mr, 7);
    EXPECT_EQ(wide.nrVecs, 3);
}

TEST(KernelSpec, SliceClampsToProblemK)
{
    ConvLayer l{"x", 3, 64, 3, 3, 224, 224, 1}; // K = 27
    KernelSpec spec = makeConvKernel(l, Phase::Forward, 32);
    GemmConfig slice = spec.slice(Precision::Fp32, 0, 0, 128);
    EXPECT_LE(slice.kSteps, 27);
    EXPECT_GE(slice.kSteps, 8);
}

TEST(KernelSpec, MacScaleConsistency)
{
    ConvLayer l{"x", 256, 256, 3, 3, 28, 28, 1};
    KernelSpec spec = makeConvKernel(l, Phase::Forward, 32);
    GemmConfig slice = spec.slice(Precision::Fp32, 0, 0, 128);
    double scale = spec.macScale(slice);
    EXPECT_NEAR(scale * static_cast<double>(slice.macs()),
                static_cast<double>(spec.dims.macs()), 1.0);
    EXPECT_GT(scale, 1.0);
}

TEST(KernelSpec, MpSliceCoversSameKWithHalfSteps)
{
    ConvLayer l{"x", 256, 256, 3, 3, 28, 28, 1};
    KernelSpec spec = makeConvKernel(l, Phase::Forward, 32);
    GemmConfig f32 = spec.slice(Precision::Fp32, 0, 0, 64);
    GemmConfig mp = spec.slice(Precision::Bf16, 0, 0, 64);
    EXPECT_EQ(f32.macs(), 64ull * f32.mr * f32.nrVecs * 16);
    EXPECT_EQ(mp.macs(), f32.macs() * 2 / 1); // same steps, 2 MACs/lane
}

TEST(Lstm, GemmShape)
{
    LstmCell c;
    c.name = "cell";
    c.inputDim = 1024;
    c.hiddenDim = 1024;
    c.batch = 64;
    c.timeSteps = 16;
    KernelSpec spec = makeLstmKernel(c, Phase::Forward);
    EXPECT_EQ(spec.dims.m, 64 * 16);
    EXPECT_EQ(spec.dims.n, 4096);
    EXPECT_EQ(spec.dims.k, 2048);
    EXPECT_EQ(spec.dims.macs(), c.macs());
    EXPECT_EQ(spec.shape.pattern, BroadcastPattern::Explicit);
}

TEST(LstmDeathTest, NoSeparateWeightPhase)
{
    LstmCell c;
    c.name = "cell";
    try {
        makeLstmKernel(c, Phase::BwdWeights);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("merged"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace save
