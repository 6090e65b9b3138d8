/**
 * @file
 * Re-order buffer: in-order allocation and commit, out-of-order
 * completion. VFMA entries complete lane-by-lane (SAVE writes each
 * coalesced lane result back to its own destination position), so an
 * entry tracks a pending-lane count rather than a single done bit.
 * A fault is taken only at the head, once everything older has
 * committed, so a squash empties the whole buffer (clear()).
 */

#ifndef SAVE_SIM_ROB_H
#define SAVE_SIM_ROB_H

#include <cstdint>
#include <vector>

#include "isa/uop.h"
#include "sim/regfile.h"
#include "util/logging.h"

namespace save {

/** One ROB entry. */
struct RobEntry
{
    bool valid = false;
    uint64_t seq = 0;
    Opcode op = Opcode::Alu;
    /** The instruction itself (kept for squash-and-replay). */
    Uop uop;
    /** Physical destination, kNoReg if none. */
    int dstPhys = kNoReg;
    /** Previous mapping of the destination; freed at commit. */
    int oldPhys = kNoReg;
    /** Mask value overwritten by a SetMask (restored on squash). */
    uint16_t prevMask = 0;
    /** Lanes not yet written back (16 for a VFMA, else 0/1 pseudo). */
    int lanesPending = 0;
    bool done = false;
    /** Store bookkeeping. */
    bool isStore = false;
    uint64_t storeAddr = 0;
    int storeSrcPhys = kNoReg;
};

/** Circular re-order buffer. */
class Rob
{
  public:
    explicit Rob(int entries);

    bool full() const { return count_ == capacity_; }
    bool empty() const { return count_ == 0; }
    int size() const { return count_; }
    int capacity() const { return capacity_; }

    /** Allocate at the tail; ROB must not be full. */
    int push(RobEntry e);

    /** Allocate a cleared entry at the tail for in-place construction
     *  (hot path: avoids copying a RobEntry through the call). */
    int allocEntry();

    RobEntry &at(int idx) { return buf_[static_cast<size_t>(idx)]; }
    const RobEntry &at(int idx) const
    {
        return buf_[static_cast<size_t>(idx)];
    }

    /** Head index (oldest), -1 when empty. */
    int head() const { return empty() ? -1 : head_; }

    /** Pop the head; it must be done. */
    RobEntry pop();

    /** Invalidate and advance past the head without copying it out
     *  (hot path: read via at(head()) first). The head must be done. */
    void popHead();

    /** Mark one lane of a VFMA entry written back; true when this was
     *  the last pending lane (the entry just completed). */
    bool laneDone(int idx) { return lanesDone(idx, 1); }

    /** Mark `n` lanes of a VFMA entry written back at once (masked or
     *  whole-register writeback); true when the entry just completed.
     *  Inline: every lane publish lands here. */
    bool
    lanesDone(int idx, int n)
    {
        RobEntry &e = buf_[static_cast<size_t>(idx)];
        SAVE_ASSERT(e.valid && e.lanesPending >= n,
                    "lane writeback on a finished entry");
        e.lanesPending -= n;
        if (e.lanesPending != 0)
            return false;
        e.done = true;
        return true;
    }

    /** Mark a non-lane entry complete; true when it was not already. */
    bool markDone(int idx);

    /** Physical slot index of the i-th oldest entry (0 == head). */
    int
    indexFromHead(int i) const
    {
        return (head_ + i) % capacity_;
    }

    /** Squash: invalidate every entry. The head stays where it is. */
    void clear();

  private:
    int capacity_;
    int head_ = 0;
    int tail_ = 0;
    int count_ = 0;
    std::vector<RobEntry> buf_;
};

} // namespace save

#endif // SAVE_SIM_ROB_H
