/**
 * @file
 * Reservation stations. Entries carry the SAVE per-instruction state:
 * the Effectual Lane Mask (ELM), pending/pass-through lane sets, the
 * rotational state (R-state), and the mixed-precision chain link.
 *
 * Age order is maintained explicitly so the select logic can implement
 * the paper's oldest-first priority (Algorithm 1, lines 3-9). The
 * order lives in intrusive doubly-linked lists over the slot array, so
 * push, release, and iteration are allocation-free and O(1) per entry
 * (the seed implementation kept a side vector and paid an O(n)
 * std::find per release).
 *
 * Besides the full age list, an entry sits on at most one of two
 * age-ordered scheduler sublists, and an entry with an ELM may also
 * sit on the pass list:
 *
 *   pending  -- no ELM yet and both multiplicands ready: what the MGU
 *               stage takes from the head, up to its width per cycle.
 *               An entry joins on the wakeup that readies its second
 *               multiplicand (or at allocation if both already are);
 *               until then it is on neither sublist.
 *   issuable -- ELM generated: what the coalesced/HC select walks.
 *               A mixed-precision entry that the chain path schedules
 *               (SecV compression) leaves the pending sublist at its
 *               ELM for no select sublist: select would only skip it.
 *   pass     -- entries with an ELM and pass-through lanes not yet
 *               published (passPending != 0), chain entries included:
 *               what pass-through walks. Joins at ELM generation,
 *               leaves when the last pass lane publishes or on
 *               release.
 *
 * Under the baseline select no ELM is ever generated and nothing
 * walks these lists, so entries stay on none of them: that select
 * takes from the core's event-driven ready queue of fully-ready VFMAs
 * (baseline_ready_).
 *
 * Wakeups and ELMs arrive in no particular age order, so every
 * sublist insert is by seq (walking back from the tail, which is
 * almost always where the entry belongs); each list stays oldest-first.
 */

#ifndef SAVE_SIM_RS_H
#define SAVE_SIM_RS_H

#include <cstdint>
#include <vector>

#include "isa/uop.h"
#include "isa/vec.h"
#include "sim/regfile.h"

namespace save {

/** One reservation-station entry. */
struct RsEntry
{
    bool valid = false;
    Uop uop;
    uint64_t seq = 0;
    int robIdx = -1;

    /** Renamed sources; pa == kNoReg for embedded-broadcast operands. */
    int pa = kNoReg;
    int pb = kNoReg;
    int pc = kNoReg;
    int dstPhys = kNoReg;

    /** Vector-wise readiness of the multiplicands. Maintained by
     *  register-writeback wakeup (Core::wakeWaiters), not polling. */
    bool aReady = false;
    bool bReady = false;
    /** Accumulator fully ready. Maintained by wakeup for every entry
     *  under the baseline select (which needs the whole register at
     *  once), and under SAVE from ELM generation on for entries with
     *  effectual work (the combination-window count samples it);
     *  elsewhere it may lag. The positional policies' lane issue reads
     *  the per-lane PRF ready masks directly. */
    bool cReady = false;
    /** Value delivered by an embedded-broadcast memory operand. */
    VecReg bcastVal;
    /** Write mask captured at allocation (0xffff when unmasked). */
    uint16_t wm = 0xffffu;

    /** SAVE state ---------------------------------------------------- */
    bool elmValid = false;
    /** Effectual lanes: bit per AL for FP32, bit per ML for MP. */
    uint32_t elm = 0;
    /** MP only: multiplicand lanes not yet issued. */
    uint32_t pendingMl = 0;
    /** Accumulator lanes with unissued effectual work. */
    uint16_t pendingAl = 0;
    /** Accumulator lanes that pass C through, not yet published. */
    uint16_t passPending = 0;
    /** Rotational state: lane shift in {-1, 0, +1} (SecIV-B). */
    int8_t rot = 0;
    /** Mixed-precision accumulator chain id, -1 if none. */
    int chainId = -1;
    /** Baseline/load path: the op has been issued whole. */
    bool issued = false;
    /** Counted in the scheduler's combination window (ELM generated,
     *  unissued work, accumulator fully ready). */
    bool inCw = false;
};

/** Fixed-capacity RS with intrusive age-ordered lists. */
class Rs
{
  public:
    /** End-of-list sentinel for the first/next iteration methods. */
    static constexpr int kEnd = -1;

    explicit Rs(int entries);

    bool full() const { return size_ == capacity_; }
    int size() const { return size_; }
    int capacity() const { return capacity_; }

    /** Insert at the tail of the age order, on no sublist. Throws
     *  ConfigError if the RS is full — overflow means the allocator's
     *  rs.full() back-pressure check was bypassed. */
    int push(RsEntry e);

    /** Allocate a cleared entry at the age tail for in-place
     *  construction (hot path: avoids copying an RsEntry through the
     *  call). Same overflow contract as push. */
    int allocEntry();

    /** Free a slot: O(1) unlink from the age order and every list. */
    void release(int idx);

    /** Both multiplicands of a pre-ELM entry are ready: put it on the
     *  pending sublist, in age order. */
    void addPending(int idx);

    /** MGU handoff: take an entry off the pending sublist, onto the
     *  issuable sublist in age order if `select` walks it, else (a
     *  chain-scheduled entry) onto no select sublist. */
    void promote(int idx, bool select);

    /** Put an entry with an ELM on the pass list / take it off. */
    void addPass(int idx);
    void removePass(int idx);

    /** True once the entry is on the pending sublist or has left it. */
    bool listed(int idx) const
    {
        return nodes_[static_cast<size_t>(idx)].list != kNoList;
    }

    RsEntry &at(int idx) { return slots_[static_cast<size_t>(idx)]; }
    const RsEntry &at(int idx) const
    {
        return slots_[static_cast<size_t>(idx)];
    }

    /** Full age-order iteration (oldest first). Capture next(idx)
     *  before releasing idx inside a loop. */
    int first() const { return age_.head; }
    int next(int idx) const
    {
        return nodes_[static_cast<size_t>(idx)].age.next;
    }

    /** Pending (pre-ELM, multiplicands ready) sublist, oldest first. */
    int firstPending() const { return sub_[kPendingList].head; }
    /** Issuable (post-ELM) sublist, oldest first. */
    int firstIssuable() const { return sub_[kIssuableList].head; }
    int nextInList(int idx) const
    {
        return nodes_[static_cast<size_t>(idx)].sub.next;
    }
    int pendingCount() const { return sub_[kPendingList].size; }
    int issuableCount() const { return sub_[kIssuableList].size; }

    /** Pass list, oldest first. */
    int firstPass() const { return pass_.head; }
    int nextPass(int idx) const
    {
        return nodes_[static_cast<size_t>(idx)].pass.next;
    }
    int passCount() const { return pass_.size; }

    /** Valid slot indices, oldest first — materialized copy for cold
     *  paths (pipeline snapshots) and tests. */
    std::vector<int> order() const;

  private:
    static constexpr uint8_t kPendingList = 0;
    static constexpr uint8_t kIssuableList = 1;
    static constexpr uint8_t kNoList = 2;
    /** ELM generated, but on no select sublist (chain-scheduled). */
    static constexpr uint8_t kOffSelect = 3;

    struct Link
    {
        int prev = kEnd;
        int next = kEnd;
    };

    struct List
    {
        int head = kEnd;
        int tail = kEnd;
        int size = 0;
    };

    struct Node
    {
        Link age;
        Link sub;
        Link pass;
        /** Which scheduler sublist the slot is on. */
        uint8_t list = kNoList;
        bool onPass = false;
    };

    /** Insert idx into l through the links at `field`, right after
     *  `after` (kEnd: at the head). */
    void linkAfter(List &l, Link Node::*field, int after, int idx);
    /** Insert idx after the youngest member of l older than it. */
    void linkBySeq(List &l, Link Node::*field, int idx);
    void unlink(List &l, Link Node::*field, int idx);

    int capacity_;
    int size_ = 0;
    std::vector<RsEntry> slots_;
    std::vector<Node> nodes_;
    std::vector<int> free_;
    List age_;
    List sub_[2];
    List pass_;
};

} // namespace save

#endif // SAVE_SIM_RS_H
