/**
 * @file
 * Physical vector register file with per-lane access.
 *
 * SAVE adopts a vector RF design where each lane of a register can be
 * read/written independently (paper SecIII, last paragraph): a V-lane
 * vector RF functions like V independent scalar RFs. We model that
 * with a per-lane ready mask per physical register, which is also what
 * lane-wise dependence (SecIV-C) consumes.
 */

#ifndef SAVE_SIM_REGFILE_H
#define SAVE_SIM_REGFILE_H

#include <cstdint>
#include <vector>

#include "isa/vec.h"
#include "stats/stats.h"

namespace save {

/** Invalid physical register index. */
constexpr int kNoReg = -1;

/** Physical register file with a free list. */
class PhysRegFile
{
  public:
    explicit PhysRegFile(int num_regs);

    /** Allocate a register (lanes not ready). Returns kNoReg if full. */
    int alloc();

    /** Return a register to the free list. */
    void release(int idx);

    int numFree() const { return static_cast<int>(free_.size()); }
    int numRegs() const { return num_regs_; }

    /** The free list itself (invariant auditing: a register must never
     *  be simultaneously free and referenced by live pipeline state). */
    const std::vector<int> &freeList() const { return free_; }

    /** Per-lane accessors: the issue stage calls these hundreds of
     *  millions of times per sweep, so they are inline. */
    const VecReg &value(int idx) const { return reg(idx).value; }
    VecReg &value(int idx) { return reg(idx).value; }

    /** Ready mask over FP32/accumulator lanes. */
    uint16_t laneReady(int idx) const { return reg(idx).ready; }
    bool
    laneIsReady(int idx, int lane) const
    {
        return (reg(idx).ready >> lane) & 1;
    }
    bool fullyReady(int idx) const { return reg(idx).ready == 0xffffu; }

    /** Mark `lanes` ready. Returns true if this call made the register
     *  fully ready (the 0->0xffff transition), i.e. RS waiters should
     *  be woken. */
    bool
    setLanesReady(int idx, uint16_t lanes)
    {
        uint16_t &r = reg(idx).ready;
        const bool was = r == 0xffffu;
        r |= lanes;
        return !was && r == 0xffffu;
    }
    bool setAllReady(int idx) { return setLanesReady(idx, 0xffffu); }

    /** Write one FP32 lane and mark it ready. */
    bool
    publishLane(int idx, int lane, float v)
    {
        reg(idx).value.setF32(lane, v);
        return setLanesReady(idx, static_cast<uint16_t>(1u << lane));
    }
    /** Copy the `lanes` of src into the register and mark them ready
     *  (one masked update per publish record). */
    bool
    publishLanes(int idx, uint16_t lanes, const VecReg &src)
    {
        // A branch-free blend: the mask is data, and a branch per lane
        // would mispredict on it.
        VecReg &v = reg(idx).value;
        for (int lane = 0; lane < kVecLanes; ++lane) {
            const uint32_t take = 0u - ((lanes >> lane) & 1u);
            v.setWord(lane,
                      (src.word(lane) & take) | (v.word(lane) & ~take));
        }
        return setLanesReady(idx, lanes);
    }
    /** Write the whole register and mark every lane ready. */
    bool
    publishAll(int idx, const VecReg &v)
    {
        reg(idx).value = v;
        return setAllReady(idx);
    }

  private:
    struct Entry
    {
        VecReg value;
        uint16_t ready = 0;
    };

    Entry &reg(int idx) { return regs_[static_cast<size_t>(idx)]; }
    const Entry &reg(int idx) const
    {
        return regs_[static_cast<size_t>(idx)];
    }

    int num_regs_;
    std::vector<Entry> regs_;
    std::vector<int> free_;
};

} // namespace save

#endif // SAVE_SIM_REGFILE_H
