#include "save/scheduler.h"

#include <bit>

#include "isa/bf16.h"
#include "sim/core.h"
#include "trace/event_trace.h"
#include "util/bitutil.h"
#include "util/logging.h"
#include "util/simd.h"

namespace save {

VectorScheduler::VectorScheduler(Core &core)
    : c_(core), temps_(static_cast<size_t>(core.activeVpus)),
      st_passthrough_lanes_(&core.stats(), "passthrough_lanes"),
      st_baseline_issues_(&core.stats(), "baseline_vfma_issues"),
      st_coalesced_lanes_(&core.stats(), "coalesced_lanes"),
      st_hc_lanes_(&core.stats(), "hc_lanes"),
      st_temps_issued_(&core.stats(), "temps_issued"),
      st_temp_fill_(&core.stats(), "temp_fill"),
      st_mp_mls_issued_(&core.stats(), "mp_mls_issued")
{
}

uint16_t
VectorScheduler::schedulableAls(const RsEntry &e) const
{
    if (!e.elmValid || !e.aReady || !e.bReady)
        return 0;
    uint16_t m = e.pendingAl;
    if (m == 0)
        return 0;
    if (c_.scfg.laneWiseDep)
        return m & c_.prf.laneReady(e.pc);
    return c_.prf.fullyReady(e.pc) ? m : 0;
}

void
VectorScheduler::maybeRelease(int rs_idx)
{
    const RsEntry &e = c_.rs.at(rs_idx);
    if (!e.valid)
        return;
    if (e.pendingAl == 0 && e.passPending == 0)
        c_.releaseEntry(rs_idx);
    else
        refreshCw(rs_idx); // every lane-issue site ends here
}

void
VectorScheduler::refreshCw(int rs_idx)
{
    // An ELM implies both multiplicands are ready; cReady is the
    // accumulator register's full readiness.
    RsEntry &e = c_.rs.at(rs_idx);
    const bool in =
        e.elmValid && e.cReady && (e.pendingAl != 0 || e.pendingMl != 0);
    if (in != e.inCw) {
        e.inCw = in;
        cw_ += in ? 1 : -1;
    }
}

int
VectorScheduler::claimHcSlot(int type)
{
    for (size_t v = 0; v < temps_.size(); ++v) {
        Temp &t = temps_[v];
        if (t.type != -1 && (t.type != type || !t.hc))
            continue;
        if (t.count >= kVecLanes)
            continue;
        t.type = type;
        t.hc = true;
        ++t.count;
        return static_cast<int>(v);
    }
    return -1;
}

uint16_t
VectorScheduler::mpFreePositions() const
{
    uint16_t open = 0;
    for (const Temp &t : temps_) {
        if (t.type == -1)
            return 0xffffu;
        if (t.type == 1 && !t.hc)
            open |= static_cast<uint16_t>(~t.lanesUsed);
    }
    return open;
}

bool
VectorScheduler::positionalCapacityLeft() const
{
    for (const Temp &t : temps_) {
        if (t.type == -1)
            return true;
        if (!t.hc && t.lanesUsed != 0xffffu)
            return true;
    }
    return false;
}

void
VectorScheduler::passThrough()
{
    // Lanes whose product is ineffectual forward the accumulator input
    // to the destination; modeled as a one-cycle register move without
    // a VPU slot (paper SecIII: fully-ineffectual uops are removed
    // from the RS without issuing). One masked record per entry per
    // cycle carries every lane it passes.
    // The pass list holds exactly the entries with an ELM and pass
    // lanes left (chain entries too), oldest first; capture the
    // successor first since an entry leaves the list when its last
    // pass lane publishes.
    for (int idx = c_.rs.firstPass(); idx != Rs::kEnd;) {
        int nxt = c_.rs.nextPass(idx);
        RsEntry &e = c_.rs.at(idx);
        SAVE_PROF_WALK(c_.prof_, Pass);
        uint16_t avail = e.passPending & c_.prf.laneReady(e.pc);
        if (!c_.scfg.laneWiseDep && !c_.prf.fullyReady(e.pc))
            avail = 0;
        if (!avail) {
            idx = nxt;
            continue;
        }
        c_.schedulePassThrough(e.dstPhys, avail, e.pc, e.robIdx);
        st_passthrough_lanes_.add(popcount(avail));
        if (c_.etrace_)
            c_.etrace_->passLanes(c_.now(), e.seq, avail);
        e.passPending &= static_cast<uint16_t>(~avail);
        if (!e.passPending) {
            c_.rs.removePass(idx);
            maybeRelease(idx);
        }
        idx = nxt;
    }
}

void
VectorScheduler::scheduleBaseline()
{
    // Event-driven select: the core maintains baseline_ready_ as the
    // age-ordered queue of fully-ready unissued VFMAs (readiness flags
    // transition exactly once per entry), so selecting the oldest
    // ready instructions never rescans the RS.
    size_t taken = 0;
    while (taken < c_.baseline_ready_.size()) {
        int idx = c_.baseline_ready_[taken].second;
        RsEntry &e = c_.rs.at(idx);
        SAVE_ASSERT(e.valid && e.seq == c_.baseline_ready_[taken].first,
                    "stale baseline ready-queue entry");
        SAVE_PROF_WALK(c_.prof_, Select);

        bool mp = e.uop.isMixedPrecision();
        int vpu = -1;
        for (size_t v = 0; v < temps_.size(); ++v) {
            if (temps_[v].type == -1) {
                vpu = static_cast<int>(v);
                break;
            }
        }
        if (vpu < 0)
            break;
        Temp &t = temps_[static_cast<size_t>(vpu)];
        t.type = mp ? 1 : 0;
        t.lanesUsed = 0xffffu;
        t.count = kVecLanes;

        const VecReg &a = c_.operandA(e);
        const VecReg &b = c_.operandB(e);
        const VecReg &cv = c_.prf.value(e.pc);
        // Zero-skip value semantics even though the baseline policy
        // executes every masked lane (bf16.h); whole-register compute
        // through the util/simd.h lane helpers, whole-register
        // writeback.
        t.vec.dstPhys = e.dstPhys;
        t.vec.robIdx = e.robIdx;
        t.vec.value = mp
            ? simd::bf16MacSkipVec(a, b, cv,
                                   simd::expandMask16to32(e.wm))
            : simd::macSkipF32Vec(a, b, cv, e.wm);
        t.vecValid = true;
        e.issued = true;
        if (c_.etrace_)
            c_.etrace_->baselineIssue(c_.now(), e.seq, vpu);
        c_.releaseEntry(idx);
        st_baseline_issues_.add();
        ++taken;
    }
    if (taken > 0)
        c_.baseline_ready_.erase(c_.baseline_ready_.begin(),
                                 c_.baseline_ready_.begin() +
                                     static_cast<long>(taken));
}

void
VectorScheduler::scheduleCoalesced()
{
    // Age-ordered, per-lane oldest-first selection: equivalent to
    // Algorithm 1's lane-major priority select, since walking entries
    // oldest-first hands each temp lane position to the oldest
    // instruction wanting it. Only the post-ELM issuable sublist can
    // have schedulable lanes; chain-scheduled mixed-precision entries
    // are not on it.
    for (int idx = c_.rs.firstIssuable(); idx != Rs::kEnd;) {
        // Once every temp position is claimed no remaining entry can
        // place a lane; the rest of the walk would only recompute
        // failed claims (entries without claims are never mutated).
        if (!positionalCapacityLeft())
            break;
        int nxt = c_.rs.nextInList(idx);
        RsEntry &e = c_.rs.at(idx);
        SAVE_PROF_WALK(c_.prof_, Select);
        uint16_t avail = schedulableAls(e);
        if (!avail) {
            idx = nxt;
            continue;
        }

        bool mp = e.uop.isMixedPrecision();
        const VecReg &a = c_.operandA(e);
        const VecReg &b = c_.operandB(e);
        const VecReg &cv = c_.prf.value(e.pc);
        int type = mp ? 1 : 0;

        if (avail == 0xffffu) {
            // Dense fast path: a fully-effectual entry fills a whole
            // free temp (every rotated position is distinct) and issues
            // as one whole-register write. Only valid when no earlier
            // temp could have absorbed a lane — a partially-filled
            // matching temp falls back to the mask claims below.
            int vpu = -1;
            for (size_t v = 0; v < temps_.size(); ++v) {
                const Temp &t = temps_[v];
                if (t.type != -1 && (t.type != type || t.hc))
                    continue; // never eligible for these lanes
                if (t.type == -1) {
                    vpu = static_cast<int>(v);
                    break;
                }
                if (t.lanesUsed == 0xffffu)
                    continue; // full: cannot take any lane
                vpu = -2;     // partial match: mask claims
                break;
            }
            if (vpu >= 0) {
                Temp &t = temps_[static_cast<size_t>(vpu)];
                t.type = type;
                t.hc = false;
                t.lanesUsed = 0xffffu;
                t.count = kVecLanes;
                t.vec.dstPhys = e.dstPhys;
                t.vec.robIdx = e.robIdx;
                t.vec.value = mp
                    ? simd::bf16MacSkipVec(a, b, cv, e.elm)
                    : simd::macSkipF32Vec(a, b, cv, 0xffffu);
                t.vecValid = true;
                if (mp)
                    e.pendingMl = 0;
                e.pendingAl = 0;
                st_coalesced_lanes_.add(kVecLanes);
                if (c_.etrace_)
                    c_.etrace_->coalesceDense(c_.now(), e.seq, vpu);
                maybeRelease(idx);
                idx = nxt;
                continue;
            }
            if (vpu == -1) {
                // Every temp is full or type-incompatible: no lane can
                // be placed, same outcome as sixteen failed claims.
                idx = nxt;
                continue;
            }
        }

        // Each lane lands in the first type-compatible temp whose
        // rotated position is free.
        uint16_t claimed = 0;
        claimPositions(std::rotl(avail, e.rot), type, [&](int v,
                                                         uint16_t took) {
            // Back to source lanes, written in lane order.
            const uint16_t lanes = std::rotr(took, e.rot);
            claimed |= lanes;
            for (uint16_t m = lanes; m;) {
                int lane = lowestSetBit(m);
                m &= static_cast<uint16_t>(m - 1);
                float r = cv.f32(lane);
                if (mp) {
                    // Both multiplicand lanes of the AL execute in the
                    // slot; ineffectual ones contribute an exact zero.
                    for (int s = 0; s < kMlPerAl; ++s) {
                        int ml = kMlPerAl * lane + s;
                        if ((e.elm >> ml) & 1)
                            r = bf16MacSkip(r, a.bf16(ml), b.bf16(ml));
                    }
                } else {
                    r = macSkipF32(r, a.f32(lane), b.f32(lane));
                }
                temps_[static_cast<size_t>(v)].writes.push_back(
                    {e.dstPhys, static_cast<int8_t>(lane), r, e.robIdx});
                if (c_.etrace_)
                    c_.etrace_->coalesceLane(
                        c_.now(), e.seq, lane,
                        (lane + e.rot + kVecLanes) % kVecLanes, v,
                        false);
            }
        });
        if (claimed) {
            e.pendingAl &= static_cast<uint16_t>(~claimed);
            if (mp)
                e.pendingMl &= ~simd::expandMask16to32(claimed);
            st_coalesced_lanes_.add(popcount(claimed));
        }
        maybeRelease(idx);
        idx = nxt;
    }
}

void
VectorScheduler::scheduleHc()
{
    // Horizontal compression: bubble-collapse each VFMA's effectual
    // lanes and concatenate across instructions; any lane may take any
    // temp slot (paper Fig. 5b), at extra latency for the crossbars.
    for (int idx = c_.rs.firstIssuable(); idx != Rs::kEnd;) {
        int nxt = c_.rs.nextInList(idx);
        RsEntry &e = c_.rs.at(idx);
        SAVE_PROF_WALK(c_.prof_, Select);
        uint16_t avail = schedulableAls(e);
        if (!avail) {
            idx = nxt;
            continue;
        }

        bool mp = e.uop.isMixedPrecision();
        const VecReg &a = c_.operandA(e);
        const VecReg &b = c_.operandB(e);
        const VecReg &cv = c_.prf.value(e.pc);

        int claimed = 0;
        for (uint16_t m = avail; m;) {
            int lane = lowestSetBit(m);
            m &= static_cast<uint16_t>(m - 1);
            int vpu = claimHcSlot(mp ? 1 : 0);
            if (vpu < 0) {
                // All temps full; account what this entry got first.
                // The failed lane is still pending, so the entry
                // cannot be releasable here.
                if (claimed)
                    st_hc_lanes_.add(claimed);
                return;
            }
            float r = cv.f32(lane);
            if (mp) {
                for (int s = 0; s < kMlPerAl; ++s) {
                    int ml = kMlPerAl * lane + s;
                    if ((e.elm >> ml) & 1)
                        r = bf16MacSkip(r, a.bf16(ml), b.bf16(ml));
                }
                e.pendingMl &= ~(0x3u << (kMlPerAl * lane));
            } else {
                r = macSkipF32(r, a.f32(lane), b.f32(lane));
            }
            temps_[static_cast<size_t>(vpu)].writes.push_back(
                {e.dstPhys, static_cast<int8_t>(lane), r, e.robIdx});
            e.pendingAl &= static_cast<uint16_t>(~(1u << lane));
            ++claimed;
            if (c_.etrace_)
                c_.etrace_->coalesceLane(
                    c_.now(), e.seq, lane,
                    temps_[static_cast<size_t>(vpu)].count - 1, vpu,
                    true);
        }
        if (claimed)
            st_hc_lanes_.add(claimed);
        maybeRelease(idx);
        idx = nxt;
    }
}

void
VectorScheduler::issueTemps()
{
    for (size_t v = 0; v < temps_.size(); ++v) {
        Temp &t = temps_[v];
        if (t.count == 0)
            continue;
        int lat = c_.fmaLatency(t.type == 1);
        if (t.hc)
            lat += c_.scfg.hcExtraLatency;
        if (t.vecValid)
            c_.vpus[v].issueVec(t.vec,
                                c_.now() + static_cast<uint64_t>(lat));
        else
            c_.vpus[v].issue(t.writes,
                             c_.now() + static_cast<uint64_t>(lat));
        c_.activity_ = true;
        st_temps_issued_.add();
        st_temp_fill_.add(t.count);
        if (c_.etrace_)
            c_.etrace_->tempIssue(c_.now(), static_cast<int>(v),
                                  t.count, t.type == 1, lat, t.hc);
    }
}

void
VectorScheduler::step()
{
    for (Temp &t : temps_) {
        t.lanesUsed = 0;
        t.count = 0;
        t.type = -1;
        t.hc = false;
        t.writes.clear();
        t.vecValid = false;
    }

    if (!c_.scfg.enabled || c_.scfg.policy == SchedPolicy::Baseline) {
        scheduleBaseline();
        issueTemps();
        return;
    }

    passThrough();

    // Combination-window size (paper SecIII): the *ready* VFMAs — all
    // operands including the full accumulator available — bounded by
    // the number of accumulator registers, since same-accumulator
    // VFMAs carry a true dependence ("often 24-28" for a large GEMM).
    // Kept current by refreshCw/onEntryReleased, so sampling it here
    // costs no walk.
    if (cw_ > 0) {
        c_.st_cw_sum_.add(cw_);
        c_.st_cw_cycles_.add();
        c_.fx_cw_ = cw_;
    }

    if (c_.scfg.mpCompress)
        scheduleChains();
    if (c_.scfg.policy == SchedPolicy::HC)
        scheduleHc();
    else
        scheduleCoalesced();
    issueTemps();
}

} // namespace save
