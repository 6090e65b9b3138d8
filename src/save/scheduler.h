/**
 * @file
 * The vector scheduler — SAVE's core contribution (paper SecIII-V).
 *
 * Each cycle the scheduler builds up to N "temp" operations (one per
 * active VPU) out of the effectual lanes pending in the reservation
 * stations:
 *
 *  - Baseline: conventional select; one whole VFMA per VPU per cycle.
 *  - VC: vertical coalescing (Algorithm 1) — an effectual lane may
 *    only move to the same lane position of the temp.
 *  - RVC: VC plus per-instruction rotation by -1/0/+1 lanes keyed on
 *    the accumulator's logical register number mod 3 (SecIV-B).
 *  - HC: horizontal compression reference — lanes may take any temp
 *    position, at +hcExtraLatency cycles for collapse/expand (SecIII).
 *
 * Lane-wise dependence (SecIV-C) is a flag orthogonal to the policy.
 * Mixed-precision VFMAs under SecV compression are handled by the
 * chain machinery in mp_scheduler.cc: the effectual multiplicand lanes
 * of the VFMAs sharing an accumulator are packed two per temp AL slot
 * in program order, with partial results forwarded at half latency.
 * A fault flushes the whole window (SecIII), so a squash drops every
 * chain and its partial results with it (flush(), SecV-B).
 *
 * The scheduler never rescans the RS, and its per-cycle work scales
 * with masks and events rather than lanes. What it walks or samples
 * each cycle is kept current by the events that change it:
 *
 *  - Pass-through walks the RS pass list (entries with an ELM and
 *    pass lanes left) and schedules one masked publish per entry: the
 *    lanes are copied from the accumulator input when it drains.
 *  - Coalesced and HC select walk the issuable list; the baseline
 *    select takes from the core's ready queue. Coalesced select claims
 *    temp positions by mask: each temp, in VPU order, takes all of an
 *    entry's still-unplaced rotated lanes it has free.
 *  - The combination-window (CW) size is a running count over a
 *    per-entry flag (RsEntry::inCw), re-evaluated when the entry's
 *    ELM arrives, its accumulator becomes fully ready, its last
 *    pending lane issues (maybeRelease), and when it leaves the RS;
 *    a squash flush zeroes it.
 *  - Chains live in a slab indexed by chain id, with a free-id list;
 *    a reused slot keeps its node capacity. The chain order (oldest
 *    front first) is an intrusive list linked through the slab and
 *    persists across cycles: a new chain is appended at the tail (its
 *    front is the youngest entry), and only chains that lost a node
 *    since the last trim are trimmed, unlinked and relinked by a walk
 *    back from the tail (a front only moves younger).
 *  - Each chain keeps, per accumulator lane, the count of its live
 *    nodes with MLs pending there, and the mask of non-zero counts:
 *    ELM generation counts up, an AL completing counts down, a squash
 *    flush frees the chain. A chain is stepped once per cycle, in one
 *    walk over its nodes, for the ALs in that mask whose rotated temp
 *    position can still take a mixed-precision lane and whose forward
 *    has landed; a node publishes every AL it completes as one record.
 *  - A chain entry joins no select sublist, so select never visits it.
 *
 * Operand readiness comes from the writeback-wakeup flags. The
 * per-cycle temps are fixed-capacity members: steady-state scheduling
 * performs no heap allocation.
 */

#ifndef SAVE_SAVE_SCHEDULER_H
#define SAVE_SAVE_SCHEDULER_H

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "isa/vec.h"
#include "sim/vpu.h"
#include "stats/stats.h"
#include "util/bitutil.h"

namespace save {

class Auditor;
class Core;
struct RsEntry;

/** Per-cycle vector select/issue logic. */
class VectorScheduler
{
  public:
    explicit VectorScheduler(Core &core);

    /** Run one cycle of pass-through, selection, and VPU issue. */
    void step();

    /** Hook: a VFMA entered the RS (links mixed-precision chains). */
    void onVfmaAllocated(int rs_idx);

    /** Hook: an RS slot is about to be released. */
    void onEntryReleased(int rs_idx);

    /** Hook: the MGU generated the entry's ELM. Counts a chain
     *  entry's pending MLs into its chain and refreshes the entry's
     *  combination-window membership. */
    void onElmGenerated(int rs_idx);

    /** Hook: an input of the entry's combination-window membership
     *  changed (ELM generated, accumulator fully ready). */
    void refreshCw(int rs_idx);

    /** True when no chain work remains (drain check). */
    bool idle() const { return chain_head_ < 0; }

    /**
     * Earliest cycle after now at which a blocked mixed-precision
     * chain forward becomes available (chain ALs waiting out the
     * half-latency partial-result forward are the only scheduler state
     * that wakes by time alone); kNeverCycle if none. Feeds the core's
     * stall fast-forward horizon.
     */
    uint64_t nextTimeWake(uint64_t now) const;

    /**
     * Exception support (paper SecV-B): the core has flushed the whole
     * window, so free every chain, and with them every partial
     * mixed-precision result, and zero the combination window.
     */
    void flush();

  private:
    /** One VPU's in-flight temp being assembled this cycle. */
    struct Temp
    {
        uint16_t lanesUsed = 0;
        int count = 0;
        int type = -1; // -1 free, 0 fp32, 1 mixed-precision
        bool hc = false;
        LaneWriteVec writes;
        /** Whole-register result (baseline select / dense fast path):
         *  all sixteen lanes of one entry, issued as a single VecWrite.
         *  Such a temp is always claimed whole, so writes stays empty
         *  while vecValid is set. */
        bool vecValid = false;
        VecWrite vec;
    };

    /** Claim any free HC temp slot. @return VPU index, or -1 if none. */
    int claimHcSlot(int type);

    /**
     * Claim temp positions by mask for lanes of the given type: each
     * type-compatible temp, in VPU order, takes every still-unplaced
     * position it has free, then take(vpu, positions) runs. Positions
     * only fill, so this is the per-lane first fit. @return the
     * positions left unplaced.
     */
    template <typename F>
    uint16_t
    claimPositions(uint16_t positions, int type, F &&take)
    {
        for (size_t v = 0; v < temps_.size() && positions; ++v) {
            Temp &t = temps_[v];
            if (t.type != -1 && (t.type != type || t.hc))
                continue;
            const uint16_t got = positions & ~t.lanesUsed;
            if (!got)
                continue;
            positions &= static_cast<uint16_t>(~got);
            t.lanesUsed |= got;
            t.type = type;
            t.count += popcount(got);
            take(static_cast<int>(v), got);
        }
        return positions;
    }

    /** Temp lane positions a positional mixed-precision lane could
     *  still take this cycle (any, if a temp is free; else the open
     *  lanes of non-HC type-1 temps). Positions only fill within a
     *  cycle, so a clear bit stays clear until the next step. */
    uint16_t mpFreePositions() const;

    /** True while any temp could still take a positional lane of some
     *  type (free temp, or any non-full non-HC temp). */
    bool positionalCapacityLeft() const;

    void passThrough();
    void scheduleBaseline();
    void scheduleCoalesced();
    void scheduleHc();
    void issueTemps();
    /** Lanes of e that may legally issue this cycle. */
    uint16_t schedulableAls(const RsEntry &e) const;
    void maybeRelease(int rs_idx);

    /** Mixed-precision chain path (mp_scheduler.cc). ---------------- */

    struct ChainNode
    {
        int rsIdx;
        uint64_t seq;
    };

    /** One slab slot. A reused slot keeps its nodes' capacity, so the
     *  chain path does not allocate in steady state. */
    struct Chain
    {
        /** Linked entries in program order; released ones stay until
         *  the next trim drops the released prefix. */
        std::vector<ChainNode> nodes;
        /** Per AL: the running value and the cycle its forward lands;
         *  `init` marks the ALs whose base has been read. */
        VecReg value;
        std::array<uint64_t, kVecLanes> readyCycle{};
        uint16_t init = 0;
        /** Per AL: live nodes with an ELM and MLs pending there. */
        std::array<uint16_t, kVecLanes> pendingNodes{};
        /** ALs whose pendingNodes count is non-zero. */
        uint16_t pendingAls = 0;
        int8_t rot = 0;
        uint64_t frontSeq = 0;
        /** Neighbours in the chain order (ids; -1 at either end). */
        int prev = -1, next = -1;
        /** A node left the RS since the last trim (on trim_queue_). */
        bool trimQueued = false;
        /** In use (in the chain order), not on free_chain_ids_. */
        bool live = false;
    };

    /** Take a slab slot for a new chain (a free one first). */
    int newChain(int8_t rot);
    /** Return a chain's slot to the free list. */
    void freeChain(int id);
    void scheduleChains();
    /** One walk over the chain's nodes for the ALs in `als`. */
    void scheduleChain(Chain &chain, uint16_t als);
    /** Count a node's pending MLs into its chain's per-AL counts. */
    static void addPendingAls(Chain &chain, uint32_t pending_ml);
    /** For each queued chain: drop released front nodes, free it if
     *  none are left, and keep the chain order sorted. */
    void trimChains();
    /** Link a chain into the order after the last chain whose front
     *  is older than its own, walking back from the tail. */
    void linkChain(int id);
    /** Take a chain out of the order. */
    void unlinkChain(int id);

    friend class Auditor;

    Core &c_;
    /** Chain slab, indexed by chain id (RsEntry::chainId). */
    std::vector<Chain> chains_;
    /** Ids of the slab slots not in use. */
    std::vector<int> free_chain_ids_;
    /** The chain order: every live chain, oldest front first (ids;
     *  -1 when empty), linked through Chain::prev/next. */
    int chain_head_ = -1, chain_tail_ = -1;
    /** Chains that lost a node since the last trimChains(). */
    std::vector<int> trim_queue_;
    /** Entries with inCw set: the combination-window size. */
    int cw_ = 0;

    /** Reusable per-cycle scratch (no steady-state allocation). */
    std::vector<Temp> temps_;
    /** Per AL, the seq of the node a chain step started on (traced). */
    std::array<uint64_t, kVecLanes> chain_first_seq_{};

    StatRef st_passthrough_lanes_;
    StatRef st_baseline_issues_;
    StatRef st_coalesced_lanes_;
    StatRef st_hc_lanes_;
    StatRef st_temps_issued_;
    StatRef st_temp_fill_;
    StatRef st_mp_mls_issued_;
};

} // namespace save

#endif // SAVE_SAVE_SCHEDULER_H
