/**
 * @file
 * Precise-exception tests (paper SecIII end + SecV-B): inject a fault
 * mid-kernel, let the core squash and replay, and require the final
 * architectural state to be bitwise identical to an uninterrupted
 * in-order run — for every policy, both precisions, and with partial
 * mixed-precision results in flight at the squash point. Every
 * counter of twenty such runs is pinned against a golden.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "kernels/gemm.h"
#include "sim/multicore.h"
#include "sim/reference.h"

namespace save {
namespace {

struct FaultRun
{
    uint64_t cycles = 0;
    double exceptions = 0;
    double squashed = 0;
    /** The whole machine's stat map, cycles included. */
    StatGroup stats;
};

GemmConfig
kernel(Precision prec)
{
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 32;
    g.tiles = 2;
    g.precision = prec;
    g.bsSparsity = 0.3;
    g.nbsSparsity = 0.5;
    g.seed = 77;
    return g;
}

/** Run with an optional fault; returns stats. C memory is checked
 *  against the in-order reference. */
FaultRun
runWithFault(const SaveConfig &scfg, const GemmConfig &g,
             int64_t fault_seq)
{
    MemoryImage image;
    GemmWorkload w = buildGemm(g, image);

    MachineConfig m;
    m.cores = 1;
    Multicore mc(m, scfg, 2, &image);
    w.warmup(mc.hierarchy());
    if (fault_seq >= 0)
        mc.core(0).injectFaultAtSeq(static_cast<uint64_t>(fault_seq));
    VectorTrace t(w.trace);
    mc.bindTraces({&t});

    FaultRun r;
    r.cycles = mc.run(10'000'000);
    r.exceptions = mc.core(0).stats().get("exceptions_serviced");
    r.squashed = mc.core(0).stats().get("uops_squashed");
    r.stats = mc.aggregateStats();
    r.stats.set("cycles", static_cast<double>(r.cycles));

    MemoryImage ref_image;
    GemmWorkload ref_w = buildGemm(g, ref_image);
    ArchExecutor ref(&ref_image);
    ref.run(ref_w.trace);
    for (uint64_t off = 0; off < w.cBytes; off += 4) {
        EXPECT_EQ(image.readU32(w.cBase + off),
                  ref_image.readU32(ref_w.cBase + off))
            << "offset " << off << " fault_seq " << fault_seq;
        if (image.readU32(w.cBase + off) !=
            ref_image.readU32(ref_w.cBase + off))
            break;
    }
    // No leaks after squash + replay + drain.
    Core &c = mc.core(0);
    EXPECT_EQ(c.prf.numFree(), c.prf.numRegs() - kLogicalVecRegs);
    EXPECT_TRUE(c.rob.empty());
    EXPECT_EQ(c.rs.size(), 0);
    return r;
}

TEST(Exceptions, Fp32SquashReplayIsTransparent)
{
    for (int64_t seq : {5, 100, 333, 700}) {
        FaultRun r = runWithFault(SaveConfig{}, kernel(Precision::Fp32),
                                  seq);
        EXPECT_EQ(r.exceptions, 1.0) << seq;
        EXPECT_GT(r.squashed, 0.0) << seq;
    }
}

TEST(Exceptions, BaselinePipelineAlsoSquashes)
{
    FaultRun r = runWithFault(SaveConfig::baseline(),
                              kernel(Precision::Fp32), 200);
    EXPECT_EQ(r.exceptions, 1.0);
}

TEST(Exceptions, HcPolicySquashes)
{
    SaveConfig s;
    s.policy = SchedPolicy::HC;
    FaultRun r = runWithFault(s, kernel(Precision::Fp32), 200);
    EXPECT_EQ(r.exceptions, 1.0);
}

TEST(Exceptions, MixedPrecisionPartialResultsDiscarded)
{
    // Faults land while chain compression has partial results in
    // flight; SecV-B requires them to be discarded and recomputed.
    for (int64_t seq : {50, 150, 400, 650}) {
        FaultRun r = runWithFault(SaveConfig{},
                                  kernel(Precision::Bf16), seq);
        EXPECT_EQ(r.exceptions, 1.0) << seq;
    }
}

TEST(Exceptions, MixedPrecisionWithoutCompression)
{
    SaveConfig s;
    s.mpCompress = false;
    FaultRun r = runWithFault(s, kernel(Precision::Bf16), 300);
    EXPECT_EQ(r.exceptions, 1.0);
}

TEST(Exceptions, FaultCostsHandlerLatencyAndReplay)
{
    GemmConfig g = kernel(Precision::Fp32);
    FaultRun clean = runWithFault(SaveConfig{}, g, -1);
    FaultRun faulted = runWithFault(SaveConfig{}, g, 300);
    EXPECT_EQ(clean.exceptions, 0.0);
    MachineConfig m;
    EXPECT_GE(faulted.cycles,
              clean.cycles + static_cast<uint64_t>(
                                 m.exceptionServiceCycles));
}

TEST(Exceptions, FaultOnSetMaskRestoresMaskState)
{
    // A write-masked kernel whose SetMask gets squashed and replayed:
    // mask state must be restored so the replay recomputes it.
    GemmConfig g = kernel(Precision::Fp32);
    g.useWriteMask = true;
    g.writeMask = 0x0ff0;
    // Seq 0 is the SetMask uop; fault right on it.
    FaultRun r = runWithFault(SaveConfig{}, g, 0);
    EXPECT_EQ(r.exceptions, 1.0);
    // And somewhere later, with the mask long applied.
    FaultRun r2 = runWithFault(SaveConfig{}, g, 250);
    EXPECT_EQ(r2.exceptions, 1.0);
}

TEST(Exceptions, WriteMaskedMpFault)
{
    GemmConfig g = kernel(Precision::Bf16);
    g.useWriteMask = true;
    g.writeMask = 0x3c3c;
    FaultRun r = runWithFault(SaveConfig{}, g, 320);
    EXPECT_EQ(r.exceptions, 1.0);
}

TEST(Exceptions, FaultingRunStatMapsMatchGolden)
{
    // Every counter of a faulting run is pinned, not just the
    // architectural state: the kernel under each scheduler
    // configuration and precision, faulted at two mid-stream points
    // where mixed-precision partial results are in flight. The maps
    // print as `save-trace stats --json` prints them. On a mismatch
    // the actual maps are written beside the test binary for `diff`.
    SaveConfig vc, hc, nompc, hc_nompc;
    vc.policy = SchedPolicy::VC;
    hc.policy = SchedPolicy::HC;
    nompc.mpCompress = false;
    // HC select's own mixed-precision lane runs only without SecV
    // compression.
    hc_nompc.policy = SchedPolicy::HC;
    hc_nompc.mpCompress = false;
    const std::pair<const char *, SaveConfig> configs[] = {
        {"baseline", SaveConfig::baseline()},
        {"vc", vc},
        {"rvc", SaveConfig{}},
        {"hc", hc},
        {"rvc_nompc", nompc},
        {"hc_nompc", hc_nompc},
    };
    std::string actual;
    for (const auto &[name, scfg] : configs) {
        for (Precision prec : {Precision::Fp32, Precision::Bf16}) {
            for (int64_t seq : {150, 400}) {
                FaultRun r = runWithFault(scfg, kernel(prec), seq);
                actual += std::string("== ") + name +
                          (prec == Precision::Bf16 ? " bf16" : " fp32") +
                          " fault " + std::to_string(seq) + "\n" +
                          r.stats.toJson("  ") + "\n";
            }
        }
    }
    std::ifstream golden(SAVE_FAULT_STATMAPS_GOLDEN);
    ASSERT_TRUE(golden.is_open()) << SAVE_FAULT_STATMAPS_GOLDEN;
    std::ostringstream expected;
    expected << golden.rdbuf();
    if (actual != expected.str()) {
        std::ofstream(SAVE_FAULT_STATMAPS_OUT) << actual;
        FAIL() << "faulting-run stat maps differ from the golden; see: "
                  "diff " SAVE_FAULT_STATMAPS_GOLDEN
                  " " SAVE_FAULT_STATMAPS_OUT;
    }
}

using FaultParam = std::tuple<SchedPolicy, int /*precision*/,
                              int /*fault seq step*/>;

class FaultSweep : public ::testing::TestWithParam<FaultParam>
{
};

TEST_P(FaultSweep, TransparentAcrossPoliciesAndPositions)
{
    auto [pol, prec, pos] = GetParam();
    SaveConfig s;
    s.policy = pol;
    GemmConfig g =
        kernel(prec ? Precision::Bf16 : Precision::Fp32);
    g.kSteps = 16; // keep the sweep quick
    FaultRun r = runWithFault(s, g, 40 + 90 * pos);
    EXPECT_EQ(r.exceptions, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweep,
    ::testing::Combine(::testing::Values(SchedPolicy::VC,
                                         SchedPolicy::RVC,
                                         SchedPolicy::HC),
                       ::testing::Values(0, 1),
                       ::testing::Range(0, 4)));

} // namespace
} // namespace save
