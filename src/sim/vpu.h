/**
 * @file
 * Vector processing unit pipeline. Fully pipelined: one operation may
 * issue per cycle; results appear after the op latency. SAVE keeps
 * per-lane bookkeeping (which RS entry each temp lane came from) so
 * each lane result is written back to its own destination — modeled
 * here by carrying precomputed lane writes through the pipeline.
 *
 * The in-flight queue is a ring buffer of fixed-capacity ops, so the
 * steady-state issue/drain path never touches the heap (at most
 * latency+1 ops are ever in flight per pipeline).
 */

#ifndef SAVE_SIM_VPU_H
#define SAVE_SIM_VPU_H

#include <cstdint>
#include <vector>

#include "isa/vec.h"
#include "util/inline_vec.h"

namespace save {

/** Sentinel cycle for "no pending event" (compares greater than any
 *  real cycle). */
inline constexpr uint64_t kNeverCycle = ~0ull;

/** One lane result traveling down a VPU pipeline. */
struct LaneWrite
{
    int dstPhys;
    int8_t lane;
    float value;
    int robIdx;
};

/** Lane writes of one compacted op (at most one write per AL). */
using LaneWriteVec = InlineVec<LaneWrite, kVecLanes>;

/** A whole-register result traveling down a VPU pipeline: all sixteen
 *  lanes of one destination, written back in a single publish. Used
 *  when an op's sixteen lane writes all target the same register (the
 *  baseline select and the dense coalescing fast path), which keeps
 *  the writeback stage off the per-lane bookkeeping. */
struct VecWrite
{
    int dstPhys = -1;
    int robIdx = -1;
    VecReg value;
};

/** A single VPU pipeline. */
class VpuPipeline
{
  public:
    /** True if an op was already issued this cycle. */
    bool busy() const { return busy_; }

    /** Issue one compacted operation completing at done_cycle. */
    void issue(const LaneWrite *writes, size_t n, uint64_t done_cycle);

    void
    issue(const LaneWriteVec &writes, uint64_t done_cycle)
    {
        issue(writes.data(), writes.size(), done_cycle);
    }

    void
    issue(std::initializer_list<LaneWrite> writes, uint64_t done_cycle)
    {
        issue(writes.begin(), writes.size(), done_cycle);
    }

    /** Issue one whole-register operation completing at done_cycle. */
    void issueVec(const VecWrite &write, uint64_t done_cycle);

    /**
     * Pop all ops completing at or before now, appending their lane
     * writes to out and whole-register writes to vec_out. Returns the
     * number of *ops* popped — an op whose writes a squash dropped
     * still counts (it changes idle()).
     */
    int drainCompleted(uint64_t now, std::vector<LaneWrite> &out,
                       std::vector<VecWrite> &vec_out);

    /** Lane-only overload (tests / cold paths): whole-register writes
     *  are expanded into sixteen per-lane writes. */
    int drainCompleted(uint64_t now, std::vector<LaneWrite> &out);

    /** Convenience overload (tests / cold paths): fresh vector. */
    std::vector<LaneWrite>
    drainCompleted(uint64_t now)
    {
        std::vector<LaneWrite> out;
        drainCompleted(now, out);
        return out;
    }

    /** Completion cycle of the oldest in-flight op; kNeverCycle if the
     *  pipeline is empty. */
    uint64_t
    nextCompletion() const
    {
        return count_ == 0 ? kNeverCycle : q_[head_].doneCycle;
    }

    /** Squash: empty every in-flight op's lane and whole-register
     *  writes. The ops stay in flight, so idle(), nextCompletion() and
     *  issue timing are unchanged. */
    void
    dropWrites()
    {
        for (size_t i = 0; i < count_; ++i) {
            Op &op = q_[(head_ + i) % q_.size()];
            op.writes.clear();
            op.hasVec = false;
        }
    }

    /** Visit every in-flight lane write, oldest op first, as
     *  fn(write, done_cycle). Whole-register writes are expanded into
     *  their sixteen lanes. Read-only (invariant auditing). */
    template <typename Fn>
    void
    forEachInFlight(Fn fn) const
    {
        for (size_t i = 0; i < count_; ++i) {
            const Op &op = q_[(head_ + i) % q_.size()];
            for (const LaneWrite &w : op.writes)
                fn(w, op.doneCycle);
            if (op.hasVec) {
                for (int lane = 0; lane < kVecLanes; ++lane)
                    fn(LaneWrite{op.vec.dstPhys,
                                 static_cast<int8_t>(lane),
                                 op.vec.value.f32(lane),
                                 op.vec.robIdx},
                       op.doneCycle);
            }
        }
    }

    /** Per-cycle housekeeping: clears the issue slot. */
    void tick() { busy_ = false; }

    bool idle() const { return count_ == 0; }
    uint64_t opsIssued() const { return ops_; }
    uint64_t lanesIssued() const { return lanes_; }

  private:
    struct Op
    {
        uint64_t doneCycle;
        LaneWriteVec writes;
        /** Whole-register payload (baseline/dense fast path). */
        VecWrite vec;
        bool hasVec = false;
    };

    /** Ring insert sorted by completion cycle; returns the fresh op. */
    Op &insertOp(uint64_t done_cycle);

    /** Ring buffer; sized for latency+issue-slot, grows only if a
     *  config exceeds that. */
    std::vector<Op> q_ = std::vector<Op>(16);
    size_t head_ = 0;
    size_t count_ = 0;
    bool busy_ = false;
    uint64_t ops_ = 0;
    uint64_t lanes_ = 0;
};

} // namespace save

#endif // SAVE_SIM_VPU_H
