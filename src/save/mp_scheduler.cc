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
 *
 * Each cycle a chain is stepped in one walk over its nodes, front
 * first, for all its schedulable ALs at once: 16-bit AL masks track
 * which ALs still need two MLs and which need one, each node feeds
 * the hungry ALs it has MLs pending on, and it publishes every AL it
 * completes as one masked record. The chain then claims its rotated
 * temp positions by mask.
 */

#include "isa/bf16.h"
#include "sim/mgu.h"
#include "save/scheduler.h"

#include "sim/core.h"
#include "trace/event_trace.h"
#include "util/bitutil.h"
#include "util/logging.h"
#include "util/simd.h"

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
        // Its front is the youngest live entry, so the chain order
        // stays sorted by appending.
        SAVE_ASSERT(chain_tail_ < 0 ||
                        chains_[static_cast<size_t>(chain_tail_)]
                                .frontSeq < e.seq,
                    "new chain front older than an existing chain's");
        chains_[static_cast<size_t>(chain_id)].frontSeq = e.seq;
        linkChain(chain_id);
    }
    e.chainId = chain_id;
    chains_[static_cast<size_t>(chain_id)].nodes.push_back({rs_idx, e.seq});
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
VectorScheduler::linkChain(int id)
{
    auto at = [this](int i) -> Chain & {
        return chains_[static_cast<size_t>(i)];
    };
    Chain &ch = at(id);
    int after = chain_tail_;
    while (after >= 0 && at(after).frontSeq > ch.frontSeq)
        after = at(after).prev;
    ch.prev = after;
    ch.next = after < 0 ? chain_head_ : at(after).next;
    (after < 0 ? chain_head_ : at(after).next) = id;
    (ch.next < 0 ? chain_tail_ : at(ch.next).prev) = id;
}

void
VectorScheduler::unlinkChain(int id)
{
    auto at = [this](int i) -> Chain & {
        return chains_[static_cast<size_t>(i)];
    };
    Chain &ch = at(id);
    (ch.prev < 0 ? chain_head_ : at(ch.prev).next) = ch.next;
    (ch.next < 0 ? chain_tail_ : at(ch.next).prev) = ch.prev;
    ch.prev = ch.next = -1;
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
        ++chain.pendingNodes[static_cast<size_t>(al)];
    }
    chain.pendingAls |= mpAlMask(pending_ml);
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
    for (int id = chain_head_; id >= 0;) {
        const int next = chains_[static_cast<size_t>(id)].next;
        unlinkChain(id);
        freeChain(id);
        id = next;
    }
    trim_queue_.clear();
    // The core freed every RS slot with Rs::release, which bypasses
    // onEntryReleased.
    cw_ = 0;
}

void
VectorScheduler::trimChains()
{
    for (int id : trim_queue_) {
        Chain &ch = chains_[static_cast<size_t>(id)];
        ch.trimQueued = false;
        int dropped = 0;
        for (const ChainNode &n : ch.nodes) {
            const RsEntry &e = c_.rs.at(n.rsIdx);
            if (e.valid && e.seq == n.seq)
                break;
            ++dropped;
        }
        if (dropped == 0)
            continue;
        unlinkChain(id);
        if (dropped == static_cast<int>(ch.nodes.size())) {
            freeChain(id);
            continue;
        }
        ch.nodes.erase(ch.nodes.begin(), ch.nodes.begin() + dropped);
        ch.frontSeq = ch.nodes.front().seq;
        // The front only moved younger: relink from the tail.
        linkChain(id);
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
    for (int id = chain_head_; id >= 0;) {
        const Chain &ch = chains_[static_cast<size_t>(id)];
        id = ch.next;
        for (uint16_t m = ch.init; m; m &= static_cast<uint16_t>(m - 1)) {
            // >= not >: wakeHorizon probes with cycle_ already advanced
            // to the next un-executed cycle, so a forwarded result that
            // becomes ready exactly at `now` must pin the horizon here
            // (run() then steps normally instead of jumping past the
            // cycle where this AL schedules).
            const uint64_t ready =
                ch.readyCycle[static_cast<size_t>(lowestSetBit(m))];
            if (ready >= now && ready < best)
                best = ready;
        }
    }
    return best;
}

void
VectorScheduler::scheduleChain(Chain &chain, uint16_t als)
{
    const uint64_t now = c_.now();
    // An AL waiting out its forwarded partial result drops out.
    for (uint16_t m = als & chain.init; m; m &= static_cast<uint16_t>(m - 1)) {
        const int al = lowestSetBit(m);
        const bool in_flight =
            chain.readyCycle[static_cast<size_t>(al)] > now;
        als &= static_cast<uint16_t>(~(in_flight << al));
    }

    // An AL in need2 has taken no ML this cycle; one in need1 has one
    // ML in its slot and may take a second from a later node.
    uint16_t need2 = als, need1 = 0;
    const uint64_t publish_at =
        now + static_cast<uint64_t>(c_.fmaLatency(true));
    for (const ChainNode &n : chain.nodes) {
        if (!(need2 | need1))
            break;
        SAVE_PROF_WALK(c_.prof_, ChainNodes);
        RsEntry &e = c_.rs.at(n.rsIdx);
        if (!e.valid || e.seq != n.seq)
            continue; // released
        if (!e.elmValid)
            break; // ELM unknown: no later ML may go before this node's
        uint16_t here = mpAlMask(e.pendingMl) & (need2 | need1);
        // Chain base: an AL reads the accumulator input of the first
        // node pending on it, once that lane has been published.
        const uint16_t fresh = here & ~chain.init;
        if (fresh) {
            const uint16_t unready = fresh & ~c_.prf.laneReady(e.pc);
            here &= static_cast<uint16_t>(~unready);
            need2 &= static_cast<uint16_t>(~unready);
            als &= static_cast<uint16_t>(~unready);
            const VecReg &base = c_.prf.value(e.pc);
            for (uint16_t m = fresh & ~unready; m;
                 m &= static_cast<uint16_t>(m - 1))
                chain.value.setF32(lowestSetBit(m),
                                   base.f32(lowestSetBit(m)));
            chain.init |= fresh & ~unready;
        }
        if (!here)
            continue;
        if (c_.etrace_)
            for (uint16_t m = here & need2; m;
                 m &= static_cast<uint16_t>(m - 1))
                chain_first_seq_[static_cast<size_t>(lowestSetBit(m))] =
                    e.seq;

        // An AL needing two takes every ML pending here, one needing
        // one the lower (even, else odd): roundings in program order.
        const uint32_t pend = e.pendingMl & simd::expandMask16to32(here);
        const uint32_t take =
            (pend & simd::expandMask16to32(here & need2)) |
            (pend & ~((pend & 0x55555555u) << 1));
        const VecReg &a = c_.operandA(e);
        const VecReg &b = c_.operandB(e);
        for (uint32_t m = take; m; m &= m - 1) {
            const int ml = lowestSetBit(m);
            const int al = ml / kMlPerAl;
            chain.value.setF32(al, bf16MacSkip(chain.value.f32(al),
                                               a.bf16(ml), b.bf16(ml)));
        }
        e.pendingMl &= ~take;
        const uint16_t took_two = mpAlMask(take & (take >> 1) & 0x55555555u);
        need1 = static_cast<uint16_t>((need1 & ~here) |
                                      (here & need2 & ~took_two));
        need2 &= static_cast<uint16_t>(~here);

        // ALs with nothing left here are architecturally complete: the
        // running value is this VFMA's destination value (SecV-B:
        // intermediate results are written back exactly).
        const uint16_t done = here & ~mpAlMask(e.pendingMl);
        if (!done)
            continue;
        c_.schedulePublish(e.dstPhys, done, chain.value, e.robIdx,
                           publish_at);
        e.pendingAl &= static_cast<uint16_t>(~done);
        for (uint16_t m = done; m; m &= static_cast<uint16_t>(m - 1)) {
            const int al = lowestSetBit(m);
            const bool last =
                --chain.pendingNodes[static_cast<size_t>(al)] == 0;
            chain.pendingAls &= static_cast<uint16_t>(~(last << al));
        }
        maybeRelease(n.rsIdx);
    }

    const uint16_t started = als & ~need2;
    if (!started)
        return;
    const uint64_t forward_at =
        now + static_cast<uint64_t>(std::max(1, c_.fmaLatency(true) / 2));
    for (uint16_t m = started; m; m &= static_cast<uint16_t>(m - 1))
        chain.readyCycle[static_cast<size_t>(lowestSetBit(m))] = forward_at;
    // Every AL that started took two MLs, except those left in need1.
    st_mp_mls_issued_.add(2 * popcount(started) - popcount(need1));
    const uint16_t unplaced = claimPositions(
        std::rotl(started, chain.rot), 1, [&](int vpu, uint16_t took) {
            if (!c_.etrace_)
                return;
            for (uint16_t m = std::rotr(took, chain.rot); m;
                 m &= static_cast<uint16_t>(m - 1)) {
                const int al = lowestSetBit(m);
                c_.etrace_->chainMl(
                    now, chain_first_seq_[static_cast<size_t>(al)], al, vpu,
                    ((need1 >> al) & 1) ? 1 : 2);
            }
        });
    SAVE_ASSERT(unplaced == 0, "chain AL tried on a closed temp position");
}

void
VectorScheduler::scheduleChains()
{
    // Oldest chain first (front-entry program order).
    for (int id = chain_head_; id >= 0;) {
        Chain &ch = chains_[static_cast<size_t>(id)];
        id = ch.next;
        // Only ALs whose rotated temp position is still open can take
        // a slot; the walk reads an AL's base only when it issues. One
        // mask per chain suffices: its ALs land on distinct positions,
        // and a claim never closes another position to a
        // mixed-precision lane.
        const uint16_t open = mpFreePositions();
        if (!open)
            break;
        // Only ALs with MLs pending on some node can take anything. The
        // per-AL counts behind that mask are kept by events: ELM
        // generation counts up, an AL completing counts down. AL al
        // lands on temp position (al + rot) mod 16.
        const uint16_t als = ch.pendingAls & std::rotr(open, ch.rot);
        if (!als)
            continue;
        SAVE_PROF_WALK(c_.prof_, Chains);
        scheduleChain(ch, als);
    }
    trimChains();
}

} // namespace save
