/**
 * @file
 * Mixed-precision chain scheduling (paper SecV).
 *
 * VDPBF16PS maps two BF16 multiplicand lanes (MLs) onto one FP32
 * accumulator lane (AL), so vertical coalescing alone only skips an AL
 * when both of its MLs are ineffectual. SAVE additionally compresses
 * effectual MLs *horizontally* across VFMAs that share an accumulator
 * chain: up to two queued MLs are packed into each temp AL slot, in
 * program order (which preserves the FP accumulation order and hence
 * bitwise reproducibility, SecV-A), with the partial result forwarded
 * to the next chained operation at half the VFMA latency (SecV-B/C).
 */

#include "isa/bf16.h"
#include "sim/mgu.h"
#include "save/scheduler.h"

#include "sim/core.h"
#include "trace/event_trace.h"
#include "util/bitutil.h"
#include "util/logging.h"

#include <algorithm>
#include <bit>

namespace save {

void
VectorScheduler::onVfmaAllocated(int rs_idx)
{
    RsEntry &e = c_.rs.at(rs_idx);
    if (!e.uop.isMixedPrecision() || !c_.scfg.mpCompress ||
        !c_.scfg.enabled || c_.scfg.policy == SchedPolicy::Baseline) {
        return;
    }

    int chain_id = -1;
    int prod_idx = e.pc == kNoReg
        ? -1
        : c_.vfma_dst_to_rs_[static_cast<size_t>(e.pc)];
    if (prod_idx >= 0 && prod_idx != rs_idx) {
        // A live producer's chain is live: a chain is freed only once
        // every node has left the RS.
        const RsEntry &prod = c_.rs.at(prod_idx);
        if (prod.valid && prod.uop.dst == e.uop.dst && prod.chainId >= 0)
            chain_id = prod.chainId;
    }
    if (chain_id < 0) {
        chain_id = newChain(e.rot);
        // Its front is the youngest live entry, so chain_order_ stays
        // sorted by appending.
        SAVE_ASSERT(chain_order_.empty() || chain_order_.back().first < e.seq,
                    "new chain front older than an existing chain's");
        chain_order_.emplace_back(e.seq, chain_id);
    }
    e.chainId = chain_id;
    Chain &ch = chains_[static_cast<size_t>(chain_id)];
    ch.nodes.push_back({rs_idx, e.seq});
    if (ch.nodes.size() == 1)
        ch.frontSeq = e.seq;
}

int
VectorScheduler::newChain(int8_t rot)
{
    int id;
    if (free_chain_ids_.empty()) {
        id = static_cast<int>(chains_.size());
        chains_.emplace_back();
    } else {
        id = free_chain_ids_.back();
        free_chain_ids_.pop_back();
    }
    Chain &ch = chains_[static_cast<size_t>(id)];
    std::vector<ChainNode> nodes = std::move(ch.nodes);
    ch = Chain{};
    ch.nodes = std::move(nodes);
    ch.rot = rot;
    ch.live = true;
    return id;
}

void
VectorScheduler::freeChain(int id)
{
    Chain &ch = chains_[static_cast<size_t>(id)];
    ch.nodes.clear();
    ch.live = false;
    free_chain_ids_.push_back(id);
}

void
VectorScheduler::onElmGenerated(int rs_idx)
{
    const RsEntry &e = c_.rs.at(rs_idx);
    if (e.chainId >= 0)
        addPendingAls(chains_[static_cast<size_t>(e.chainId)],
                      e.pendingMl);
    refreshCw(rs_idx);
}

void
VectorScheduler::addPendingAls(Chain &chain, uint32_t pending_ml)
{
    for (uint16_t m = mpAlMask(pending_ml); m;) {
        int al = lowestSetBit(m);
        m &= static_cast<uint16_t>(m - 1);
        if (chain.pendingNodes[static_cast<size_t>(al)]++ == 0)
            chain.pendingAls |= static_cast<uint16_t>(1u << al);
    }
}

void
VectorScheduler::onEntryReleased(int rs_idx)
{
    RsEntry &e = c_.rs.at(rs_idx);
    if (e.inCw) {
        e.inCw = false;
        --cw_;
    }
    // Chain nodes detect released entries by seq mismatch; the chain
    // is trimmed at the end of this cycle's scheduleChains.
    if (e.chainId >= 0) {
        Chain &ch = chains_[static_cast<size_t>(e.chainId)];
        if (!ch.trimQueued) {
            ch.trimQueued = true;
            trim_queue_.push_back(e.chainId);
        }
    }
}

void
VectorScheduler::flush()
{
    for (const auto &[seq, id] : chain_order_) {
        (void)seq;
        freeChain(id);
    }
    chain_order_.clear();
    trim_queue_.clear();
    // The core freed every RS slot with Rs::release, which bypasses
    // onEntryReleased.
    cw_ = 0;
}

void
VectorScheduler::advanceCursor(Chain &chain, int al)
{
    int &cur = chain.cursor[static_cast<size_t>(al)];
    while (cur < static_cast<int>(chain.nodes.size())) {
        const ChainNode &n = chain.nodes[static_cast<size_t>(cur)];
        const RsEntry &e = c_.rs.at(n.rsIdx);
        bool stale = !e.valid || e.seq != n.seq;
        if (!stale) {
            if (!e.elmValid)
                break; // ELM unknown: cannot prove this node is done
            if (e.pendingMl & (0x3u << (kMlPerAl * al)))
                break; // effectual work remains here
        }
        ++cur;
    }
}

void
VectorScheduler::trimChains()
{
    for (int id : trim_queue_) {
        Chain &ch = chains_[static_cast<size_t>(id)];
        ch.trimQueued = false;
        // Keys are unique (each is a live entry's seq), so the chain's
        // current key finds it.
        auto pos = std::lower_bound(chain_order_.begin(),
                                    chain_order_.end(),
                                    std::make_pair(ch.frontSeq, id));
        SAVE_ASSERT(pos != chain_order_.end() && pos->second == id,
                    "chain missing from the chain order");
        int dropped = 0;
        for (const ChainNode &n : ch.nodes) {
            const RsEntry &e = c_.rs.at(n.rsIdx);
            if (e.valid && e.seq == n.seq)
                break;
            ++dropped;
        }
        if (dropped == static_cast<int>(ch.nodes.size())) {
            freeChain(id);
            chain_order_.erase(pos);
            continue;
        }
        ch.nodes.erase(ch.nodes.begin(), ch.nodes.begin() + dropped);
        for (auto &cur : ch.cursor)
            cur = std::max(0, cur - dropped);
        ch.frontSeq = ch.nodes.front().seq;
        // The front only moves younger: slide the chain toward the
        // tail to its new rank.
        pos->first = ch.frontSeq;
        for (auto nxt = pos + 1;
             nxt != chain_order_.end() && nxt->first < pos->first;
             ++pos, ++nxt)
            std::iter_swap(pos, nxt);
    }
    trim_queue_.clear();
}

uint64_t
VectorScheduler::nextTimeWake(uint64_t now) const
{
    // A chain AL whose forwarded partial result is still in flight
    // (readyCycle in the future) becomes schedulable purely by time
    // passing; everything else the scheduler waits on arrives through
    // a publish/completion event the core already tracks.
    uint64_t best = kNeverCycle;
    for (const auto &[seq, id] : chain_order_) {
        (void)seq;
        for (const ChainAl &ca : chains_[static_cast<size_t>(id)].al) {
            // >= not >: wakeHorizon probes with cycle_ already advanced
            // to the next un-executed cycle, so a forwarded result that
            // becomes ready exactly at `now` must pin the horizon here
            // (run() then steps normally instead of jumping past the
            // cycle where this AL schedules).
            if (ca.init && ca.readyCycle >= now && ca.readyCycle < best)
                best = ca.readyCycle;
        }
    }
    return best;
}

void
VectorScheduler::scheduleChainAl(Chain &chain, int al)
{
    ChainAl &ca = chain.al[static_cast<size_t>(al)];
    if (ca.init && ca.readyCycle > c_.now())
        return; // waiting on the forwarded partial result (fast path:
                // skips the cursor walk; advanceCursor is idempotent)

    // The caller checked that this temp position is open.
    int temp_lane = (al + chain.rot + kVecLanes) % kVecLanes;
    advanceCursor(chain, al);
    int &cursor = chain.cursor[static_cast<size_t>(al)];
    if (cursor >= static_cast<int>(chain.nodes.size()))
        return;

    const ChainNode &front = chain.nodes[static_cast<size_t>(cursor)];
    RsEntry &e = c_.rs.at(front.rsIdx);
    SAVE_ASSERT(e.valid && e.seq == front.seq, "cursor on stale node");
    if (!e.elmValid)
        return;
    if (!e.aReady || !e.bReady)
        return;

    if (!ca.init) {
        // Chain base: the accumulator input of the cursor node, read
        // from the register file once its lane has been published.
        if (!c_.prf.laneIsReady(e.pc, al))
            return;
        ca.value = c_.prf.value(e.pc).f32(al);
        ca.readyCycle = c_.now();
        ca.init = true;
    }

    int vpu = claimSlot(temp_lane, 1, false);
    SAVE_ASSERT(vpu >= 0, "chain AL tried on a closed temp position");

    float v = ca.value;
    int taken = 0;
    int cur = cursor;
    while (taken < kMlPerAl &&
           cur < static_cast<int>(chain.nodes.size())) {
        const ChainNode &n = chain.nodes[static_cast<size_t>(cur)];
        RsEntry &e2 = c_.rs.at(n.rsIdx);
        if (!e2.valid || e2.seq != n.seq) {
            ++cur;
            continue;
        }
        if (!e2.elmValid)
            break;
        if (!e2.aReady || !e2.bReady)
            break;

        uint32_t al_mask = 0x3u << (kMlPerAl * al);
        if ((e2.pendingMl & al_mask) == 0) {
            // No effectual MLs here: the node passes the accumulator
            // through at this AL (handled by the generic pass-through
            // path); the chain value is unchanged.
            ++cur;
            continue;
        }

        const VecReg &a = c_.operandA(e2);
        const VecReg &b = c_.operandB(e2);
        for (int s = 0; s < kMlPerAl && taken < kMlPerAl; ++s) {
            int ml = kMlPerAl * al + s;
            if (!((e2.pendingMl >> ml) & 1))
                continue;
            v = bf16MacSkip(v, a.bf16(ml), b.bf16(ml));
            e2.pendingMl &= ~(1u << ml);
            ++taken;
        }
        if ((e2.pendingMl & al_mask) == 0) {
            // This VFMA's lane is architecturally complete: the running
            // value at this point in the chain is its destination value
            // (SecV-B: intermediate results are written back exactly).
            c_.schedulePublish(
                e2.dstPhys, al, v, e2.robIdx,
                c_.now() + static_cast<uint64_t>(c_.fmaLatency(true)));
            e2.pendingAl &= static_cast<uint16_t>(~(1u << al));
            if (--chain.pendingNodes[static_cast<size_t>(al)] == 0)
                chain.pendingAls &= static_cast<uint16_t>(~(1u << al));
            maybeRelease(n.rsIdx);
            ++cur;
        } else {
            break; // slot full with MLs left in this node
        }
    }

    SAVE_ASSERT(taken > 0, "claimed a slot without consuming MLs");
    cursor = cur;
    ca.value = v;
    ca.readyCycle =
        c_.now() +
        static_cast<uint64_t>(std::max(1, c_.fmaLatency(true) / 2));
    st_mp_mls_issued_.add(taken);
    if (c_.etrace_)
        c_.etrace_->chainMl(c_.now(), front.seq, al, vpu, taken);
}

void
VectorScheduler::scheduleChains()
{
    // Oldest chain first (front-entry program order).
    for (const auto &[seq, id] : chain_order_) {
        (void)seq;
        // Only ALs whose rotated temp position is still open are
        // tried: in a saturated cycle most would otherwise die at
        // claimSlot after paying for the cursor walk and the readiness
        // probes. Everything a skipped call would have updated (cursor
        // advance, chain-base capture) is a pure cache whose deferral
        // is invisible: the accumulator lane value is stable once
        // published, and a position is only closed when no temp is
        // free, so every temp issues this cycle (activity) and the
        // fast-forward horizon never sees the deferred init. One mask
        // per chain suffices: its ALs land on distinct positions, and
        // a claim never closes another position to a mixed-precision
        // lane.
        const uint16_t open = mpFreePositions();
        if (!open)
            break;
        Chain &ch = chains_[static_cast<size_t>(id)];
        // Only ALs with pending MLs on some node can schedule anything
        // (any other AL's cursor either runs to the end or parks on a
        // node whose ELM is still unknown — both no-ops). The per-AL
        // counts behind that mask are kept by events: ELM generation
        // counts up, an AL completing in scheduleChainAl counts down.
        // AL al lands on temp position (al + rot) mod 16.
        const uint16_t reachable = std::rotr(open, ch.rot);
        for (uint16_t m = ch.pendingAls & reachable; m;) {
            int al = lowestSetBit(m);
            m &= static_cast<uint16_t>(m - 1);
            SAVE_PROF_WALK(c_.prof_, Chains);
            scheduleChainAl(ch, al);
        }
    }
    trimChains();
}

} // namespace save
