/**
 * @file
 * Unit tests for the OoO pipeline building blocks: physical register
 * file, renamer, ROB, reservation stations, MGU, and VPU pipeline —
 * plus whole-pipeline squash regressions driven through the fuzzer's
 * differential checker (sim/fuzz.h).
 */

#include <gtest/gtest.h>

#include "sim/fuzz.h"
#include "sim/mgu.h"
#include "sim/regfile.h"
#include "sim/renamer.h"
#include "sim/rob.h"
#include "sim/rs.h"
#include "sim/vpu.h"

namespace save {
namespace {

TEST(PhysRegFile, AllocExhaustRelease)
{
    PhysRegFile prf(4);
    int a = prf.alloc(), b = prf.alloc(), c = prf.alloc(),
        d = prf.alloc();
    EXPECT_NE(a, kNoReg);
    EXPECT_NE(d, kNoReg);
    EXPECT_EQ(prf.alloc(), kNoReg);
    prf.release(b);
    EXPECT_EQ(prf.alloc(), b);
    (void)a;
    (void)c;
}

TEST(PhysRegFile, LaneReadiness)
{
    PhysRegFile prf(2);
    int r = prf.alloc();
    EXPECT_FALSE(prf.fullyReady(r));
    for (int lane = 0; lane < kVecLanes; ++lane)
        prf.publishLane(r, lane, static_cast<float>(lane));
    EXPECT_TRUE(prf.fullyReady(r));
    EXPECT_EQ(prf.value(r).f32(7), 7.0f);
}

TEST(PhysRegFile, PartialLaneMask)
{
    PhysRegFile prf(2);
    int r = prf.alloc();
    prf.publishLane(r, 3, 1.0f);
    prf.publishLane(r, 9, 2.0f);
    EXPECT_EQ(prf.laneReady(r), (1u << 3) | (1u << 9));
    EXPECT_TRUE(prf.laneIsReady(r, 3));
    EXPECT_FALSE(prf.laneIsReady(r, 4));
}

TEST(PhysRegFile, AllocResetsReadiness)
{
    PhysRegFile prf(1);
    int r = prf.alloc();
    prf.setAllReady(r);
    prf.release(r);
    int r2 = prf.alloc();
    EXPECT_EQ(r2, r);
    EXPECT_FALSE(prf.fullyReady(r2));
}

TEST(Renamer, InitialMappingIsReadyZero)
{
    PhysRegFile prf(64);
    Renamer ren(&prf);
    for (int l = 0; l < kLogicalVecRegs; ++l) {
        int p = ren.mapOf(l);
        EXPECT_TRUE(prf.fullyReady(p));
        EXPECT_EQ(prf.value(p).f32(0), 0.0f);
    }
}

TEST(Renamer, RenameDstTracksOld)
{
    PhysRegFile prf(64);
    Renamer ren(&prf);
    int old = ren.mapOf(5);
    auto r = ren.renameDst(5);
    EXPECT_EQ(r.oldPhys, old);
    EXPECT_EQ(ren.mapOf(5), r.newPhys);
    EXPECT_NE(r.newPhys, old);
}

TEST(Renamer, ExhaustionReturnsNoRegWithoutCorruption)
{
    PhysRegFile prf(kLogicalVecRegs); // exactly the architectural set
    Renamer ren(&prf);
    int before = ren.mapOf(0);
    auto r = ren.renameDst(0);
    EXPECT_EQ(r.newPhys, kNoReg);
    EXPECT_EQ(ren.mapOf(0), before);
}

TEST(Renamer, ArchValueAndMasks)
{
    PhysRegFile prf(64);
    Renamer ren(&prf);
    ren.setArchValue(3, VecReg::broadcastF32(2.0f));
    EXPECT_EQ(ren.archValue(3).f32(15), 2.0f);
    EXPECT_EQ(ren.mask(0), 0xffffu); // default: unmasked
    ren.setMask(2, 0x00ff);
    EXPECT_EQ(ren.mask(2), 0x00ffu);
}

TEST(Rob, InOrderCommit)
{
    Rob rob(4);
    RobEntry e;
    e.lanesPending = 0;
    e.done = false;
    int a = rob.push(e);
    int b = rob.push(e);
    rob.markDone(b);
    EXPECT_FALSE(rob.at(rob.head()).done); // head (a) not done yet
    rob.markDone(a);
    EXPECT_EQ(rob.pop().seq, rob.at(b).seq); // pops a first
    rob.pop();
    EXPECT_TRUE(rob.empty());
}

TEST(Rob, LaneCountdown)
{
    Rob rob(2);
    RobEntry e;
    e.lanesPending = 3;
    int i = rob.push(e);
    rob.laneDone(i);
    rob.laneDone(i);
    EXPECT_FALSE(rob.at(i).done);
    rob.laneDone(i);
    EXPECT_TRUE(rob.at(i).done);
}

TEST(Rob, WrapsAround)
{
    Rob rob(2);
    for (int i = 0; i < 5; ++i) {
        RobEntry e;
        e.seq = static_cast<uint64_t>(i);
        int idx = rob.push(e);
        rob.markDone(idx);
        EXPECT_EQ(rob.pop().seq, static_cast<uint64_t>(i));
    }
}

TEST(RobDeathTest, PopUndonePanics)
{
    Rob rob(2);
    rob.push(RobEntry{});
    EXPECT_DEATH(rob.pop(), "incomplete");
}

TEST(Rs, AgeOrderMaintained)
{
    Rs rs(4);
    RsEntry e;
    e.seq = 1;
    int a = rs.push(e);
    e.seq = 2;
    int b = rs.push(e);
    e.seq = 3;
    int c = rs.push(e);
    rs.release(b);
    ASSERT_EQ(rs.order().size(), 2u);
    EXPECT_EQ(rs.order()[0], a);
    EXPECT_EQ(rs.order()[1], c);
    // Freed slot is reused but lands at the back of the age order.
    e.seq = 4;
    int d = rs.push(e);
    EXPECT_EQ(rs.order().back(), d);
}

TEST(Rs, SublistsStayAgeOrderedWhateverTheEventOrder)
{
    Rs rs(4);
    RsEntry e;
    int slot[4];
    for (int i = 0; i < 4; ++i) {
        e.seq = static_cast<uint64_t>(i + 1);
        slot[i] = rs.push(e);
    }
    auto walk = [&](int first, int (Rs::*next)(int) const) {
        std::vector<int> out;
        for (int idx = first; idx != Rs::kEnd; idx = (rs.*next)(idx))
            out.push_back(idx);
        return out;
    };

    // Multiplicands become ready out of age order; an entry still
    // waiting on one is on no sublist.
    rs.addPending(slot[2]);
    rs.addPending(slot[0]);
    rs.addPending(slot[3]);
    EXPECT_FALSE(rs.listed(slot[1]));
    EXPECT_EQ(walk(rs.firstPending(), &Rs::nextInList),
              (std::vector<int>{slot[0], slot[2], slot[3]}));

    // ELMs arrive out of age order too.
    rs.promote(slot[3], true);
    rs.promote(slot[0], true);
    EXPECT_EQ(walk(rs.firstIssuable(), &Rs::nextInList),
              (std::vector<int>{slot[0], slot[3]}));
    EXPECT_EQ(walk(rs.firstPending(), &Rs::nextInList),
              (std::vector<int>{slot[2]}));

    rs.addPass(slot[3]);
    rs.addPass(slot[0]);
    EXPECT_EQ(walk(rs.firstPass(), &Rs::nextPass),
              (std::vector<int>{slot[0], slot[3]}));
    rs.removePass(slot[0]);
    EXPECT_EQ(walk(rs.firstPass(), &Rs::nextPass),
              (std::vector<int>{slot[3]}));

    // A chain-scheduled entry leaves the pending sublist for no select
    // sublist, yet its pass lanes still put it on the pass list.
    rs.promote(slot[2], false);
    EXPECT_TRUE(rs.listed(slot[2]));
    EXPECT_EQ(rs.pendingCount(), 0);
    EXPECT_EQ(walk(rs.firstIssuable(), &Rs::nextInList),
              (std::vector<int>{slot[0], slot[3]}));
    rs.addPass(slot[2]);
    EXPECT_EQ(walk(rs.firstPass(), &Rs::nextPass),
              (std::vector<int>{slot[2], slot[3]}));

    // Release takes an entry off every list it is on.
    rs.release(slot[3]);
    rs.release(slot[2]);
    EXPECT_EQ(rs.passCount(), 0);
    EXPECT_EQ(rs.issuableCount(), 1);
    EXPECT_EQ(rs.pendingCount(), 0);
    EXPECT_EQ(rs.size(), 2);
}

TEST(Rs, FullAndCapacity)
{
    Rs rs(2);
    rs.push(RsEntry{});
    EXPECT_FALSE(rs.full());
    rs.push(RsEntry{});
    EXPECT_TRUE(rs.full());
    EXPECT_EQ(rs.capacity(), 2);
}

TEST(Mgu, F32BothOperandsNonZero)
{
    VecReg a = VecReg::broadcastF32(1.0f);
    VecReg b = VecReg::broadcastF32(2.0f);
    b.setF32(5, 0.0f);
    a.setF32(9, 0.0f);
    uint16_t elm = elmF32(a, b, 0xffff);
    EXPECT_EQ(elm, 0xffffu & ~(1u << 5) & ~(1u << 9));
}

TEST(Mgu, F32WriteMaskClearsLanes)
{
    VecReg a = VecReg::broadcastF32(1.0f);
    VecReg b = VecReg::broadcastF32(1.0f);
    EXPECT_EQ(elmF32(a, b, 0x00ff), 0x00ffu);
}

TEST(Mgu, NegativeZeroCountsAsZero)
{
    VecReg a = VecReg::broadcastF32(-0.0f);
    VecReg b = VecReg::broadcastF32(1.0f);
    EXPECT_EQ(elmF32(a, b, 0xffff), 0u);
}

TEST(Mgu, MpPerMlGranularity)
{
    VecReg a = VecReg::broadcastBf16Pair(f32ToBf16(1.0f), 0);
    VecReg b = VecReg::broadcastBf16Pair(f32ToBf16(1.0f),
                                         f32ToBf16(1.0f));
    uint32_t elm = elmMp(a, b, 0xffff);
    // Only even MLs are effectual (odd A lanes are zero).
    EXPECT_EQ(elm, 0x55555555u);
    EXPECT_EQ(mpAlMask(elm), 0xffffu);
}

TEST(Mgu, MpWriteMaskPerAl)
{
    VecReg a = VecReg::broadcastBf16Pair(f32ToBf16(1.0f),
                                         f32ToBf16(1.0f));
    uint32_t elm = elmMp(a, a, 0x0001);
    EXPECT_EQ(elm, 0x3u); // only AL 0's two MLs
    EXPECT_EQ(mpAlMask(elm), 0x1u);
}

TEST(Mgu, MpAlMaskCollapsesPairs)
{
    EXPECT_EQ(mpAlMask(0x0), 0u);
    EXPECT_EQ(mpAlMask(0x2), 0x1u);      // ML 1 -> AL 0
    EXPECT_EQ(mpAlMask(0x4), 0x2u);      // ML 2 -> AL 1
    EXPECT_EQ(mpAlMask(0xC0000000u), 0x8000u);
}

TEST(Vpu, PipelinedCompletion)
{
    VpuPipeline v;
    v.issue({{0, 0, 1.0f, 0}}, 4);
    v.tick();
    v.issue({{1, 1, 2.0f, 1}}, 5);
    EXPECT_TRUE(v.drainCompleted(3).empty());
    auto w4 = v.drainCompleted(4);
    ASSERT_EQ(w4.size(), 1u);
    EXPECT_EQ(w4[0].dstPhys, 0);
    auto w5 = v.drainCompleted(5);
    ASSERT_EQ(w5.size(), 1u);
    EXPECT_FALSE(v.idle() && false);
    EXPECT_TRUE(v.idle());
}

TEST(Vpu, CountsOpsAndLanes)
{
    VpuPipeline v;
    v.issue({{0, 0, 1.0f, 0}, {0, 1, 2.0f, 0}}, 4);
    EXPECT_EQ(v.opsIssued(), 1u);
    EXPECT_EQ(v.lanesIssued(), 2u);
}

TEST(VpuDeathTest, DoubleIssueSameCycle)
{
    VpuPipeline v;
    v.issue({}, 4);
    EXPECT_DEATH(v.issue({}, 4), "double issue");
}

TEST(Vpu, MixedLatencyCompletesOutOfIssueOrder)
{
    // A fully pipelined unit fed a 6-cycle VDPBF16PS and then a
    // 4-cycle FP32 FMA completes the later-issued op first. The ring
    // pops from the head assuming it holds the earliest completion,
    // so issue() must insert sorted by done cycle (fuzzer-found:
    // "VPU completion order violated" panic).
    VpuPipeline v;
    v.issue({{0, 0, 1.0f, 0}}, 8); // issued at 2, done at 2+6
    v.tick();
    v.issue({{1, 1, 2.0f, 1}}, 7); // issued at 3, done at 3+4
    EXPECT_EQ(v.nextCompletion(), 7u);
    auto w7 = v.drainCompleted(7);
    ASSERT_EQ(w7.size(), 1u);
    EXPECT_EQ(w7[0].dstPhys, 1);
    EXPECT_EQ(v.nextCompletion(), 8u);
    auto w8 = v.drainCompleted(8);
    ASSERT_EQ(w8.size(), 1u);
    EXPECT_EQ(w8[0].dstPhys, 0);
    EXPECT_TRUE(v.idle());
}

TEST(PipelineSquash, MidStreamFaultRestoresArchState)
{
    // A squash-heavy generated program: rotation-prone VFMAs, MP
    // chains, store->load line reuse, and a mid-stream fault. The
    // differential checker runs it through every policy x fast-forward
    // mode against the in-order oracle and verifies the drained
    // machine leaks nothing (free list full, ROB/RS empty) — failing
    // if the squash leaves stale lane waiters, rotated-copy links, or
    // in-flight store lines behind.
    FuzzProgram p = fuzzGenerate(57);
    ASSERT_GE(p.faultIndex, 0) << "seed 57 must carry a fault";
    EXPECT_EQ(fuzzCheck(p), "");
}

TEST(PipelineSquash, SquashHeavySweep)
{
    // Sweep the first generator seeds that carry an injected fault so
    // the squash path is exercised across several profiles (different
    // sparsity, precision mixes, and mask styles).
    int squashy = 0;
    for (uint64_t seed = 0; seed < 64 && squashy < 8; ++seed) {
        FuzzProgram p = fuzzGenerate(seed);
        if (p.faultIndex < 0)
            continue;
        ++squashy;
        EXPECT_EQ(fuzzCheck(p), "") << "seed " << seed;
    }
    EXPECT_GE(squashy, 8);
}

} // namespace
} // namespace save
