/**
 * @file
 * Tests for the extension features (rotation-state ablation knob,
 * counter-driven VPU selection, A-panel layouts, power model) and
 * whole-pipeline hygiene invariants (no physical-register leaks, no
 * stat anomalies across a full run).
 */

#include <gtest/gtest.h>

#include "save/frequency.h"
#include "sim/multicore.h"

namespace save {
namespace {

MachineConfig
oneCore()
{
    MachineConfig m;
    m.cores = 1;
    return m;
}

TEST(RotationStates, OneStateEqualsPlainVc)
{
    GemmConfig g;
    g.mr = 28;
    g.nrVecs = 1;
    g.kSteps = 48;
    g.pattern = BroadcastPattern::Embedded;
    g.nbsSparsity = 0.6;

    SaveConfig one;
    one.rotationStates = 1;
    SaveConfig vc;
    vc.policy = SchedPolicy::VC;

    Engine e1(oneCore(), one), evc(oneCore(), vc);
    EXPECT_EQ(e1.runGemm(g, 1, 1).cycles, evc.runGemm(g, 1, 1).cycles);
}

TEST(RotationStates, MoreStatesNeverSlower)
{
    GemmConfig g;
    g.mr = 28;
    g.nrVecs = 1;
    g.kSteps = 64;
    g.tiles = 2;
    g.pattern = BroadcastPattern::Embedded;
    g.nbsSparsity = 0.7;

    uint64_t prev = ~0ull;
    for (int states : {1, 3, 5}) {
        SaveConfig s;
        s.rotationStates = states;
        Engine e(oneCore(), s);
        uint64_t cycles = e.runGemm(g, 1, 1).cycles;
        EXPECT_LE(cycles, prev + prev / 50) << states << " states";
        prev = cycles;
    }
}

TEST(RotationStates, WideRotationStaysBitwiseCorrect)
{
    GemmConfig g;
    g.mr = 14;
    g.nrVecs = 2;
    g.kSteps = 24;
    g.nbsSparsity = 0.5;
    g.bsSparsity = 0.3;
    SaveConfig s;
    s.rotationStates = 7;
    Engine e(oneCore(), s);
    std::string why;
    EXPECT_TRUE(e.verifyGemm(g, 2, &why)) << why;
}

TEST(VpuSelection, PrefersTwoVpusWhenDense)
{
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 96;
    g.tiles = 4;
    g.pattern = BroadcastPattern::Embedded;
    Engine e(oneCore(), SaveConfig{});
    const GemmConfig p = vpuProbe(g);
    VpuChoice c =
        chooseVpusByCounters(p, e.runGemm(p, 1, 2), e.runGemm(p, 1, 1));
    EXPECT_EQ(c.vpus, 2);
    EXPECT_NEAR(c.effectualFraction, 1.0, 0.05);
}

TEST(VpuSelection, PrefersOneVpuAtHighSparsity)
{
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 96;
    g.tiles = 4;
    g.pattern = BroadcastPattern::Embedded;
    g.nbsSparsity = 0.9;
    g.bsSparsity = 0.5;
    Engine e(oneCore(), SaveConfig{});
    const GemmConfig p = vpuProbe(g);
    VpuChoice c =
        chooseVpusByCounters(p, e.runGemm(p, 1, 2), e.runGemm(p, 1, 1));
    EXPECT_EQ(c.vpus, 1);
    EXPECT_LT(c.vpuUtilization, 0.5);
    EXPECT_LT(c.effectualFraction, 0.2);
}

TEST(VpuSelection, PowerModelChargesOpsAndLeakage)
{
    VpuPowerModel pm;
    KernelResult r;
    r.cycles = 1000;
    r.stats.set("vpu_ops", 500);
    EXPECT_DOUBLE_EQ(pm.energy(r, 2),
                     500 * pm.opEnergy + 2000 * pm.leakPerVpuCycle);
    EXPECT_LT(pm.energy(r, 1), pm.energy(r, 2));
}

TEST(ALayout, RowMajorStaysBitwiseCorrect)
{
    GemmConfig g;
    g.mr = 14;
    g.nrVecs = 1;
    g.kSteps = 32;
    g.pattern = BroadcastPattern::Embedded;
    g.aLayout = ALayout::RowMajor;
    g.bsSparsity = 0.4;
    g.nbsSparsity = 0.4;
    Engine e(oneCore(), SaveConfig{});
    std::string why;
    EXPECT_TRUE(e.verifyGemm(g, 2, &why)) << why;
}

TEST(ALayout, PackedPanelHitsBcacheBetter)
{
    GemmConfig g;
    g.mr = 28;
    g.nrVecs = 1;
    g.kSteps = 64;
    g.tiles = 2;
    g.pattern = BroadcastPattern::Embedded;
    Engine e(oneCore(), SaveConfig{});

    auto packed = e.runGemm(g, 1, 2);
    g.aLayout = ALayout::RowMajor;
    auto rowmaj = e.runGemm(g, 1, 2);
    EXPECT_GT(packed.stats.get("bcache_hit_rate"),
              rowmaj.stats.get("bcache_hit_rate") + 0.3);
}

/** After a run fully drains, exactly the 32 architectural registers
 *  remain mapped: anything else is a physical-register leak. */
TEST(PipelineHygiene, NoPhysRegLeakAfterDrain)
{
    MemoryImage image;
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 48;
    g.nbsSparsity = 0.5;
    g.bsSparsity = 0.3;
    GemmWorkload w = buildGemm(g, image);

    for (SaveConfig s : {SaveConfig{}, SaveConfig::baseline()}) {
        MachineConfig m = oneCore();
        Multicore mc(m, s, 2, &image);
        VectorTrace t(w.trace);
        mc.bindTraces({&t});
        mc.run(10'000'000);
        Core &c = mc.core(0);
        EXPECT_EQ(c.prf.numFree(),
                  c.prf.numRegs() - kLogicalVecRegs);
        EXPECT_TRUE(c.rob.empty());
        EXPECT_EQ(c.rs.size(), 0);
    }
}

TEST(PipelineHygiene, LaneAccountingConserved)
{
    // Every VFMA publishes exactly 16 accumulator lanes: the sum of
    // VPU lanes and pass-through lanes equals 16 * #VFMAs for any
    // SAVE policy without write masks.
    GemmConfig g;
    g.mr = 14;
    g.nrVecs = 2;
    g.kSteps = 48;
    g.nbsSparsity = 0.6;
    g.bsSparsity = 0.2;
    for (SchedPolicy p :
         {SchedPolicy::VC, SchedPolicy::RVC, SchedPolicy::HC}) {
        SaveConfig s;
        s.policy = p;
        Engine e(oneCore(), s);
        auto r = e.runGemm(g, 1, 2);
        double lanes = r.stats.get("vpu_lanes") +
                       r.stats.get("passthrough_lanes");
        EXPECT_DOUBLE_EQ(lanes, 16.0 * r.stats.get("vfmas"))
            << "policy " << static_cast<int>(p);
    }
}

/** Uop count of a slice (for the accounting test below). */
double
traceUops(const GemmConfig &g)
{
    MemoryImage img;
    return static_cast<double>(buildGemm(g, img).trace.size());
}

TEST(PipelineHygiene, MpLaneAccountingConserved)
{
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 32;
    g.precision = Precision::Bf16;
    g.nbsSparsity = 0.5;
    g.bsSparsity = 0.3;
    for (bool compress : {true, false}) {
        SaveConfig s;
        s.mpCompress = compress;
        Engine e(oneCore(), s);
        auto r = e.runGemm(g, 1, 2);
        double lanes = r.stats.get("vpu_lanes") +
                       r.stats.get("passthrough_lanes");
        // Chain-compressed ALs publish via events, not VPU lane
        // writes; count them through the committed-lane identity
        // instead: every VFMA retires with 16 lanes done.
        EXPECT_LE(lanes, 16.0 * r.stats.get("vfmas"));
        EXPECT_EQ(r.stats.get("committed"), traceUops(g));
    }
}

} // namespace
} // namespace save
