/**
 * @file
 * Tests for the full cache-blocked GEMM builder used by the
 * methodology-validation bench, and a golden of the builders' kernels
 * and data.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "cache/cas_key.h"
#include "kernels/gemm.h"
#include "sim/multicore.h"
#include "sim/reference.h"

namespace save {
namespace {

GemmConfig
cfg()
{
    GemmConfig g;
    g.mr = 4;
    g.nrVecs = 2;
    g.kSteps = 8;
    g.tiles = 3;
    g.bsSparsity = 0.3;
    g.nbsSparsity = 0.4;
    g.seed = 31;
    return g;
}

TEST(BlockedGemm, UopCountScalesWithPanels)
{
    MemoryImage m1, m2;
    GemmWorkload one = buildBlockedGemm(cfg(), 1, m1);
    GemmWorkload four = buildBlockedGemm(cfg(), 4, m2);
    EXPECT_EQ(four.trace.size(), 4 * one.trace.size());
    EXPECT_EQ(four.bBytes, 4 * one.bBytes);
    EXPECT_EQ(four.cBytes, 4 * one.cBytes);
}

TEST(BlockedGemm, SinglePanelMatchesBuildGemm)
{
    MemoryImage m1, m2;
    GemmWorkload a = buildGemm(cfg(), m1);
    GemmWorkload b = buildBlockedGemm(cfg(), 1, m2);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].op, b.trace[i].op) << i;
        EXPECT_EQ(a.trace[i].dst, b.trace[i].dst) << i;
    }
}

TEST(BlockedGemm, PanelsTouchDisjointBandC)
{
    MemoryImage m;
    GemmWorkload w = buildBlockedGemm(cfg(), 3, m);
    // Every B load and C store address must be unique per (panel,
    // position): collect and count.
    std::vector<uint64_t> stores;
    for (const Uop &u : w.trace)
        if (u.op == Opcode::StoreVec)
            stores.push_back(u.addr);
    std::sort(stores.begin(), stores.end());
    EXPECT_TRUE(std::adjacent_find(stores.begin(), stores.end()) ==
                stores.end());
    EXPECT_EQ(stores.size(),
              3u * cfg().tiles * cfg().mr * cfg().nrVecs);
}

TEST(BlockedGemm, BitwiseCorrectThroughThePipeline)
{
    GemmConfig g = cfg();
    MemoryImage image;
    GemmWorkload w = buildBlockedGemm(g, 3, image);

    MachineConfig m;
    m.cores = 1;
    Multicore mc(m, SaveConfig{}, 2, &image);
    VectorTrace t(w.trace);
    mc.bindTraces({&t});
    mc.run(10'000'000);

    MemoryImage ref_image;
    GemmWorkload ref_w = buildBlockedGemm(g, 3, ref_image);
    ArchExecutor ref(&ref_image);
    ref.run(ref_w.trace);
    for (uint64_t off = 0; off < w.cBytes; off += 4)
        ASSERT_EQ(image.readU32(w.cBase + off),
                  ref_image.readU32(ref_w.cBase + off));
}

/** One trace's length and hash, and its image's hash, as a line. */
std::string
kernelLine(const std::string &label, const std::vector<Uop> &trace,
           const MemoryImage &image)
{
    CasHasher t;
    for (const Uop &u : trace) {
        t.mix(static_cast<uint8_t>(u.op));
        t.mix(u.dst);
        t.mix(u.srcA);
        t.mix(u.srcB);
        t.mix(u.srcC);
        t.mix(u.wmask);
        t.mix(u.addr);
        t.mix(u.maskImm);
    }
    CasHasher m;
    for (size_t r = 0; r < image.numRegions(); ++r) {
        m.mix(image.regionBase(r));
        m.mix(static_cast<uint64_t>(image.regionData(r).size()));
        for (uint8_t b : image.regionData(r))
            m.mix(b);
    }
    char line[160];
    std::snprintf(line, sizeof line, "%s uops=%zu trace=%016llx "
                  "image=%016llx\n", label.c_str(), trace.size(),
                  static_cast<unsigned long long>(t.value()),
                  static_cast<unsigned long long>(m.value()));
    return line;
}

TEST(GemmKernels, MatchGolden)
{
    // Every builder's uops, uop for uop, and its data, byte for byte:
    // both patterns and precisions, a write mask, row-major A, two
    // cores and blocked panels. The golden was generated by the
    // builders as they were before the kernels streamed.
    struct Case
    {
        const char *label;
        int mr, nr, kSteps, tiles;
        BroadcastPattern pattern;
        Precision precision;
        ALayout layout;
        bool mask;
        int cores;  // buildShardedGemm; 0: buildGemm
        int panels; // buildBlockedGemm when > 0
    };
    using P = BroadcastPattern;
    using Q = Precision;
    using L = ALayout;
    const Case cases[] = {
        {"explicit-fp32", 4, 6, 16, 2, P::Explicit, Q::Fp32,
         L::PackedKMajor, false, 1, 0},
        {"embedded-bf16-2cores", 7, 3, 12, 3, P::Embedded, Q::Bf16,
         L::PackedKMajor, false, 2, 0},
        {"fig14-embedded-bf16", 7, 3, 192, 6, P::Embedded, Q::Bf16,
         L::PackedKMajor, false, 1, 0},
        {"explicit-bf16-2cores", 3, 7, 24, 2, P::Explicit, Q::Bf16,
         L::PackedKMajor, false, 2, 0},
        {"mask-explicit-fp32", 4, 2, 8, 2, P::Explicit, Q::Fp32,
         L::PackedKMajor, true, 0, 0},
        {"mask-embedded-bf16", 5, 4, 10, 1, P::Embedded, Q::Bf16,
         L::PackedKMajor, true, 0, 0},
        {"rowmajor-explicit-bf16", 6, 3, 20, 3, P::Explicit, Q::Bf16,
         L::RowMajor, false, 0, 0},
        {"rowmajor-embedded-fp32-2cores", 4, 4, 9, 2, P::Embedded,
         Q::Fp32, L::RowMajor, false, 2, 0},
        {"blocked-explicit-fp32", 4, 2, 8, 3, P::Explicit, Q::Fp32,
         L::PackedKMajor, false, 0, 3},
        {"blocked-mask-rowmajor-embedded-bf16", 3, 5, 6, 2, P::Embedded,
         Q::Bf16, L::RowMajor, true, 0, 4},
    };
    std::string actual;
    for (const Case &c : cases) {
        GemmConfig g;
        g.mr = c.mr;
        g.nrVecs = c.nr;
        g.kSteps = c.kSteps;
        g.tiles = c.tiles;
        g.pattern = c.pattern;
        g.precision = c.precision;
        g.aLayout = c.layout;
        g.bsSparsity = 0.4;
        g.nbsSparsity = 0.3;
        g.seed = 1234;
        g.useWriteMask = c.mask;
        g.writeMask = c.mask ? 0x0ff0 : 0xffff;
        MemoryImage image;
        if (c.panels > 0) {
            GemmWorkload w = buildBlockedGemm(g, c.panels, image);
            actual += kernelLine(c.label, w.trace, image);
        } else if (c.cores == 0) {
            GemmWorkload w = buildGemm(g, image);
            actual += kernelLine(c.label, w.trace, image);
        } else {
            std::vector<GemmWorkload> work =
                buildShardedGemm(g, image, c.cores);
            for (size_t i = 0; i < work.size(); ++i)
                actual += kernelLine(std::string(c.label) + " core" +
                                         std::to_string(i),
                                     work[i].trace, image);
        }
    }
    std::ifstream golden(SAVE_KERNELS_GOLDEN);
    ASSERT_TRUE(golden.is_open()) << SAVE_KERNELS_GOLDEN;
    std::ostringstream expected;
    expected << golden.rdbuf();
    if (actual != expected.str()) {
        std::ofstream(SAVE_KERNELS_OUT) << actual;
        FAIL() << "kernels differ from the golden; see: diff "
               << SAVE_KERNELS_GOLDEN << " " << SAVE_KERNELS_OUT;
    }
}

} // namespace
} // namespace save
