/**
 * @file
 * One simulated out-of-order core: 5-wide in-order allocate/rename,
 * unified reservation stations, ROB, load ports, broadcast cache, and
 * N VPU pipelines driven by a pluggable vector scheduler (baseline or
 * SAVE). Functional and timing simulation are combined: every uop
 * carries real data, so sparsity decisions (ELMs) come from actual
 * operand values and final register/memory state can be checked
 * against an architectural reference.
 *
 * Stage order within a cycle (writeback before select, select before
 * allocate) models a forwarding network: a result written back in
 * cycle t can feed an operation selected in cycle t.
 *
 * The cycle loop is event-assisted: RS readiness is maintained by
 * register-writeback wakeup (not per-cycle polling), and when a cycle
 * makes no progress at all the core fast-forwards the clock to the
 * next cycle anything can happen (the wake horizon: pending events,
 * VPU completions, chain forwards, the exception-resume cycle, the
 * watchdogs). Fast-forward is strictly observational — stall-cycle
 * counters that would have repeated in the skipped cycles are
 * compensated exactly, so all stats are bit-identical with the
 * per-cycle loop (SAVE_FASTFORWARD=0).
 */

#ifndef SAVE_SIM_CORE_H
#define SAVE_SIM_CORE_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "isa/uop.h"
#include "mem/broadcast_cache.h"
#include "mem/hierarchy.h"
#include "mem/memory_image.h"
#include "sim/config.h"
#include "sim/profiler.h"
#include "sim/regfile.h"
#include "sim/renamer.h"
#include "sim/rob.h"
#include "sim/rs.h"
#include "sim/vpu.h"
#include "stats/stats.h"

namespace save {

class VectorScheduler;
class CoreEventTracer;
class Auditor;

/** TraceSource over a pre-built uop vector. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<Uop> uops) : uops_(std::move(uops)) {}

    bool
    next(Uop &u) override
    {
        if (pos_ >= uops_.size())
            return false;
        u = uops_[pos_++];
        return true;
    }

    void reset() { pos_ = 0; }
    size_t size() const { return uops_.size(); }

  private:
    std::vector<Uop> uops_;
    size_t pos_ = 0;
};

/** One out-of-order core. */
class Core
{
  public:
    /**
     * @param active_vpus 1 or 2; selects the core frequency per the
     *        paper's licensing model (SecIV-D).
     */
    Core(const MachineConfig &mcfg, const SaveConfig &scfg, int core_id,
         int active_vpus, MemHierarchy *mem, MemoryImage *image);
    ~Core();

    void bindTrace(TraceSource *trace);

    /** Advance one cycle; false once fully drained. */
    bool step();

    bool drained() const;

    /** Fold end-of-run derived values (VPU ops, B$ hit rate) into the
     *  stat group. Multicore::run calls it once the cores drain. */
    void finalizeStats();

    /** Stall fast-forward (SAVE_FASTFORWARD, default on) ------------- */

    /** True if the last step() changed any simulator state. A false
     *  return means the next cycles are state-identical repeats until
     *  the wake horizon. */
    bool lastStepActive() const { return activity_; }

    /** SAVE_FASTFORWARD=0 disables stall fast-forward (debug). */
    bool fastForwardEnabled() const { return fastforward_; }

    /**
     * Earliest future cycle at which anything can happen, given the
     * last step was quiescent: pending completion events, VPU
     * completions, mixed-precision chain forwards, the exception
     * handler's resume cycle, and the (forced) watchdog fire cycles.
     * kNeverCycle if nothing is pending.
     */
    uint64_t wakeHorizon() const;

    /**
     * Jump the clock to target (>= current cycle), compensating the
     * stall/combination-window counters the skipped cycles would have
     * repeated, then run the same watchdog checks a stepped cycle
     * runs. Only meaningful right after a quiescent step().
     */
    void fastForwardTo(uint64_t target);

    uint64_t ffJumps() const { return ff_jumps_; }
    uint64_t ffCyclesSkipped() const { return ff_cycles_skipped_; }

    /**
     * Precise-exception support: arm a fault on the uop with the
     * given sequence number. When it reaches the ROB head, everything
     * older has committed, so the whole window is flushed: the rename
     * map is rolled back, and every in-flight load, lane write and
     * partial mixed-precision result is discarded (paper SecIII,
     * SecV-B). The handler latency elapses, and the flushed
     * instructions re-execute. Architectural state must be
     * indistinguishable from an uninterrupted run.
     */
    void injectFaultAtSeq(uint64_t seq);

    /**
     * Human-readable dump of the pipeline state: ROB head and
     * occupancy, scheduler/MGU state, outstanding loads and events,
     * VPU status. Attached to DeadlockError when the retirement
     * watchdog fires; also useful from a debugger.
     */
    std::string pipelineSnapshot() const;

    uint64_t cycle() const { return cycle_; }
    double freqGhz() const { return freq_ghz_; }
    double nowNs() const
    {
        return static_cast<double>(cycle_) / freq_ghz_;
    }
    int coreId() const { return core_id_; }

    /** Attach a pipeline event tracer (src/trace/event_trace.h);
     *  nullptr detaches. Timing is unaffected either way — every hook
     *  is a null test when no tracer is attached. */
    void setEventTracer(CoreEventTracer *t) { etrace_ = t; }

    Renamer &renamer() { return renamer_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    BroadcastCache *bcache() { return bcache_.get(); }

    /** Shared with the scheduler ------------------------------------ */

    const MachineConfig mcfg;
    const SaveConfig scfg;
    const int activeVpus;

    Rs rs;
    Rob rob;
    PhysRegFile prf;
    std::vector<VpuPipeline> vpus;

    /** Multiplicand A of an RS entry (register or loaded broadcast). */
    const VecReg &
    operandA(const RsEntry &e) const
    {
        return e.pa == kNoReg ? e.bcastVal : prf.value(e.pa);
    }
    const VecReg &operandB(const RsEntry &e) const { return prf.value(e.pb); }

    /** Schedule a write of `lanes` of `values` into phys at at_cycle,
     *  which must lie within the publish ring's reach (fewer than
     *  kPubRingSlots cycles out; the constructor bounds mpFmaLatency to
     *  match): one record for every AL a chain node completes. */
    void schedulePublish(int phys, uint16_t lanes, const VecReg &values,
                         int robIdx, uint64_t at_cycle);

    /** Schedule next cycle's pass-through of `lanes`: one masked copy
     *  from src_phys (the entry's accumulator input, whose `lanes` are
     *  ready) into phys. */
    void schedulePassThrough(int phys, uint16_t lanes, int src_phys,
                             int robIdx);

    /** Free an RS slot whose issue obligations are done. */
    void releaseEntry(int rs_idx);

    /** VPU op latency in cycles for the given precision. */
    int fmaLatency(bool mixed_precision) const;

    uint64_t now() const { return cycle_; }

  private:
    struct LoadReq
    {
        bool toRs;      // embedded-broadcast operand vs register load
        int rsIdx = -1;
        uint64_t seq = 0;
        int dstPhys = kNoReg;
        int robIdx = -1;
        uint64_t addr = 0;
        Opcode op = Opcode::LoadVec;
    };

    /** A far-future load completion (L2/L3/DRAM); near ones use the
     *  load ring. */
    struct Event
    {
        uint64_t cycle;
        uint64_t order;
        LoadReq load;

        bool
        operator>(const Event &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : order > o.order;
        }
    };

    /** Event heap with a read-only view of its backing store (the
     *  auditor must enumerate pending events; std::priority_queue
     *  itself hides them). */
    struct EventHeap
        : std::priority_queue<Event, std::vector<Event>, std::greater<>>
    {
        using priority_queue::priority_queue;
        const std::vector<Event> &container() const { return c; }
        /** Drop every event, keeping the backing store's capacity. */
        void clear() { c.clear(); }
    };

    /** RS entry waiting for a source register to become fully ready;
     *  validated by seq at wake time (slots are reused). */
    struct RegWaiter
    {
        enum class Src : uint8_t { A, B, C };
        int rsIdx;
        uint64_t seq;
        Src src;
    };

    /** A scheduled register write. Publishes are by far the most
     *  frequent event and always land within a few cycles (a chain
     *  result mpFmaLatency out, a pass-through the next cycle), so
     *  they live in a calendar ring of per-cycle buckets; only
     *  far-future load completions pay the event heap.
     *
     *  A record copies its `lanes` into phys, and drains as one masked
     *  update. A chain result (srcPhys == kNoReg) copies them from
     *  `value`; pass-through copies an entry's lanes from its
     *  accumulator input srcPhys, read when the record drains. That
     *  read is sound: the lanes were ready when the record was made,
     *  ready lanes never change while the register is live, and srcPhys
     *  stays live until the next writer of its logical register commits
     *  — the entry itself or a younger uop, neither of which can commit
     *  before these lanes publish (the auditor checks). */
    struct PendingPublish
    {
        int phys;
        int robIdx;
        int srcPhys;
        uint16_t lanes;
        VecReg value;
    };
    static constexpr uint64_t kPubRingSlots = 64;

    void processEvents();
    void processWriteback();
    void commit();
    /** Flush the whole window for a fault at the ROB head: roll back
     *  renaming, queue every uncommitted uop for replay, and empty
     *  the ROB, the RS and everything in flight. */
    void squash();
    /** Next uop from the replay queue or the trace. */
    bool nextUop(Uop &u);
    void storeWakeup();
    void issueLoads();
    void queueLoad(const LoadReq &req);
    void mguStage();
    void allocate();
    void refreshReadiness(RsEntry &e);
    void allocateVfma(const Uop &u);

    /** Register-writeback wakeup: phys became fully ready. */
    void wakeWaiters(int phys);
    /** Enlist a just-allocated RS entry on its not-ready sources. */
    void addWaiters(int rs_idx, const RsEntry &e);
    /** A readiness flag of the entry just turned on (or it was just
     *  allocated). Under the baseline select: enqueue it once all
     *  three operands are in. Under SAVE: put it on the RS pending
     *  sublist once both multiplicands are, and refresh its
     *  combination-window membership once it has an ELM. */
    void onOperandReady(int rs_idx, const RsEntry &e);

    /** Retirement + fault-injection watchdogs (run after every cycle
     *  advance, stepped or fast-forwarded). */
    void checkWatchdogs() const;

    /** Throw DeadlockError carrying pipelineSnapshot(). */
    [[noreturn]] void fireWatchdog(const char *why) const;

    int core_id_;
    double freq_ghz_;
    MemHierarchy *mem_;
    MemoryImage *image_;
    std::unique_ptr<BroadcastCache> bcache_;
    Renamer renamer_;
    std::unique_ptr<VectorScheduler> sched_;

    CoreEventTracer *etrace_ = nullptr;

    TraceSource *trace_ = nullptr;
    bool trace_done_ = false;
    bool have_peek_ = false;
    Uop peek_;
    /** Squashed uops awaiting re-execution (oldest first). */
    std::deque<Uop> replay_;
    bool fault_armed_ = false;
    uint64_t fault_seq_ = 0;
    uint64_t resume_alloc_cycle_ = 0;

    uint64_t cycle_ = 0;
    uint64_t seq_ = 0;
    uint64_t event_order_ = 0;
    uint64_t last_progress_cycle_ = 0;
    /** Retirement-watchdog threshold (see MachineConfig::watchdogCycles
     *  and SAVE_WATCHDOG_CYCLES). */
    uint64_t watchdog_cycles_ = 0;
    /** Cycle at which fault injection force-fires the watchdog. */
    uint64_t forced_watchdog_cycle_ = ~0ull;

    /** Fast-forward state ------------------------------------------- */
    bool fastforward_ = true;
    bool activity_ = false;
    /** The stall counter allocate() bumped this cycle, if any; it
     *  would fire again in every skipped state-identical cycle. */
    StatRef *fx_stall_ = nullptr;
    /** Combination-window size the scheduler measured this cycle (it
     *  repeats while the window is blocked on chain forwards). */
    int fx_cw_ = 0;
    uint64_t ff_jumps_ = 0;
    uint64_t ff_cycles_skipped_ = 0;

    /** Loads waiting for a port, oldest first: a ring of robEntries
     *  slots from load_head_, never grown (every queued load belongs to
     *  a live ROB entry). */
    std::vector<LoadReq> load_queue_;
    size_t load_head_ = 0;
    size_t load_count_ = 0;
    EventHeap events_;
    /** Calendar ring for near-future lane publishes; bucket for cycle
     *  c is pub_ring_[c % kPubRingSlots] (drained every cycle, so the
     *  mapping is unambiguous). Bucket vectors keep their capacity. */
    std::array<std::vector<PendingPublish>, kPubRingSlots> pub_ring_;
    size_t pub_count_ = 0;
    /** Calendar ring for near-future load completions (L1 and
     *  broadcast-cache hits land a few cycles out); only far-future
     *  completions (L2/L3/DRAM) pay the event heap. */
    std::array<std::vector<LoadReq>, kPubRingSlots> load_ring_;
    size_t load_ring_count_ = 0;
    struct PendingStore { int robIdx; int srcPhys; };
    std::vector<PendingStore> pending_stores_;
    /** Cache lines with an in-flight (allocated, not yet committed)
     *  store, in program order. A younger load to one of these lines
     *  must not issue until the older store commits — loads read the
     *  functional image at completion, stores write it at commit, so
     *  issuing past an older same-line store would return data the
     *  architectural order has not produced yet. */
    struct InflightStore { uint64_t seq; uint64_t line; };
    std::vector<InflightStore> inflight_store_lines_;
    /** Per-phys-reg RS wakeup lists (consumed when the reg becomes
     *  fully ready; stale entries are filtered by seq). */
    std::vector<std::vector<RegWaiter>> reg_waiters_;
    /** True when the baseline whole-instruction select is in use
     *  (SAVE disabled or policy Baseline): fully-ready VFMAs then
     *  queue on baseline_ready_. */
    bool baseline_select_ = false;
    /** Age-ordered (seq, RS index) queue of fully-ready unissued
     *  VFMAs, maintained event-driven by the readiness wakeups so the
     *  baseline select never rescans the whole RS. */
    std::vector<std::pair<uint64_t, int>> baseline_ready_;
    /** In-flight VFMA dst phys -> RS slot (mixed-precision chains);
     *  indexed by physical register, -1 when none. */
    std::vector<int> vfma_dst_to_rs_;
    /** Rotated-copy accounting (SecIV-B): per live non-broadcast
     *  multiplicand physical register, which R-states were used.
     *  Indexed by physical register. */
    std::vector<uint8_t> rotated_copies_;

    /** Reusable per-cycle scratch (never shrinks). */
    std::vector<LaneWrite> wb_scratch_;
    std::vector<VecWrite> wb_vec_scratch_;
    std::vector<Uop> squash_uops_;

    StatGroup stats_;
    StatRef st_committed_;
    StatRef st_uops_;
    StatRef st_vfmas_;
    StatRef st_loads_issued_;
    StatRef st_elms_generated_;
    StatRef st_bs_skipped_;
    StatRef st_rotated_copies_;
    StatRef st_stall_rob_;
    StatRef st_stall_rs_;
    StatRef st_stall_prf_;
    StatRef st_bcast_l1_reads_;
    StatRef st_bcast_bc_served_;
    StatRef st_cw_sum_;
    StatRef st_cw_cycles_;

    StageProfiler prof_;

#ifdef SAVE_AUDIT_ENABLED
    /** Cycle-granular invariant checker (src/sim/auditor.h). Present
     *  only when compiled with -DSAVE_AUDIT=ON and not disabled via
     *  SAVE_AUDIT=0; every hook below is compiled out otherwise. */
    std::unique_ptr<Auditor> auditor_;
#endif

    friend class VectorScheduler;
    friend class Auditor;
};

} // namespace save

#endif // SAVE_SIM_CORE_H
