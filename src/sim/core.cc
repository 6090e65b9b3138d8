#include "sim/core.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "save/scheduler.h"
#include "sim/auditor.h"
#include "sim/mgu.h"
#include "trace/event_trace.h"
#include "util/bitutil.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace save {

namespace {

constexpr uint64_t kDefaultWatchdogCycles = 200'000;

/** SAVE_WATCHDOG_CYCLES environment override, parsed once. */
uint64_t
envWatchdogCycles()
{
    static const uint64_t cycles = [] {
        const char *env = std::getenv("SAVE_WATCHDOG_CYCLES");
        if (!env || !*env)
            return kDefaultWatchdogCycles;
        char *end = nullptr;
        long long v = std::strtoll(env, &end, 10);
        if (end == env || *end != '\0' || v <= 0) {
            SAVE_WARN("ignoring SAVE_WATCHDOG_CYCLES='", env,
                      "' (expected a positive integer); using ",
                      kDefaultWatchdogCycles);
            return kDefaultWatchdogCycles;
        }
        return static_cast<uint64_t>(v);
    }();
    return cycles;
}

/** SAVE_FASTFORWARD: default on; "0"/"off"/"false" disables. Read per
 *  core construction (not cached) so tests can toggle it. */
bool
envFastForward()
{
    const char *env = std::getenv("SAVE_FASTFORWARD");
    if (!env || !*env)
        return true;
    return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
             std::strcmp(env, "false") == 0);
}

#ifdef SAVE_AUDIT_ENABLED
/** SAVE_AUDIT: default on when compiled in; "0"/"off"/"false"
 *  disables at run time. Read per core construction so tests can
 *  exercise both modes in one process. */
bool
envAuditEnabled()
{
    const char *env = std::getenv("SAVE_AUDIT");
    if (!env || !*env)
        return true;
    return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
             std::strcmp(env, "false") == 0);
}
#endif

} // namespace

Core::Core(const MachineConfig &machine_cfg, const SaveConfig &save_cfg,
           int core_id, int active_vpus, MemHierarchy *mem,
           MemoryImage *image)
    : mcfg(machine_cfg), scfg(save_cfg), activeVpus(active_vpus),
      rs(machine_cfg.rsEntries), rob(machine_cfg.robEntries),
      prf(machine_cfg.prfExtraRegs + kLogicalVecRegs),
      vpus(static_cast<size_t>(active_vpus)),
      core_id_(core_id), freq_ghz_(machine_cfg.coreFreqGhz(active_vpus)),
      mem_(mem), image_(image), renamer_(&prf),
      st_committed_(&stats_, "committed"), st_uops_(&stats_, "uops"),
      st_vfmas_(&stats_, "vfmas"),
      st_loads_issued_(&stats_, "loads_issued"),
      st_elms_generated_(&stats_, "elms_generated"),
      st_bs_skipped_(&stats_, "bs_skipped_vfmas"),
      st_rotated_copies_(&stats_, "rotated_copies"),
      st_stall_rob_(&stats_, "stall_rob_full"),
      st_stall_rs_(&stats_, "stall_rs_full"),
      st_stall_prf_(&stats_, "stall_prf"),
      st_bcast_l1_reads_(&stats_, "bcast_l1_reads"),
      st_bcast_bc_served_(&stats_, "bcast_bc_served"),
      st_cw_sum_(&stats_, "cw_sum"), st_cw_cycles_(&stats_, "cw_cycles")
{
    if (active_vpus < 1 || active_vpus > machine_cfg.numVpus)
        throw ConfigError("active VPU count must be in [1, " +
                          std::to_string(machine_cfg.numVpus) +
                          "] (got " + std::to_string(active_vpus) +
                          ")");
    // A chain result publishes mpFmaLatency cycles out, into a ring
    // bucket; the ring must reach that far.
    if (machine_cfg.mpFmaLatency >= static_cast<int>(kPubRingSlots))
        throw ConfigError("MachineConfig.mpFmaLatency must be < " +
                          std::to_string(kPubRingSlots) + " (got " +
                          std::to_string(machine_cfg.mpFmaLatency) +
                          ")");
    watchdog_cycles_ = machine_cfg.watchdogCycles > 0
        ? static_cast<uint64_t>(machine_cfg.watchdogCycles)
        : envWatchdogCycles();
    forced_watchdog_cycle_ =
        FaultInjector::global().watchdogFireCycle(core_id);
    fastforward_ = envFastForward();
    if (scfg.enabled && scfg.bcache != BcastCacheKind::None) {
        bcache_ = std::make_unique<BroadcastCache>(
            scfg.bcache, mcfg.bcacheEntries, image_);
        mem_->setL1EvictListener(core_id_, [this](uint64_t line) {
            bcache_->invalidate(line);
        });
    }
    sched_ = std::make_unique<VectorScheduler>(*this);
#ifdef SAVE_AUDIT_ENABLED
    if (envAuditEnabled())
        auditor_ = std::make_unique<Auditor>(*this);
#endif

    reg_waiters_.resize(static_cast<size_t>(prf.numRegs()));
    vfma_dst_to_rs_.assign(static_cast<size_t>(prf.numRegs()), -1);
    rotated_copies_.assign(static_cast<size_t>(prf.numRegs()), 0);
    baseline_select_ =
        !scfg.enabled || scfg.policy == SchedPolicy::Baseline;
    baseline_ready_.reserve(static_cast<size_t>(rs.capacity()));
    load_queue_.resize(static_cast<size_t>(rob.capacity()));
    wb_scratch_.reserve(4 * kVecLanes);
    wb_vec_scratch_.reserve(4);
    {
        // Pre-size the event heap's backing store.
        std::vector<Event> backing;
        backing.reserve(256);
        events_ = decltype(events_)(std::greater<>(),
                                    std::move(backing));
    }
}

Core::~Core() = default;

void
Core::bindTrace(TraceSource *trace)
{
    trace_ = trace;
    trace_done_ = false;
    have_peek_ = false;
}

int
Core::fmaLatency(bool mixed_precision) const
{
    return mixed_precision ? mcfg.mpFmaLatency : mcfg.fp32FmaLatency;
}

void
Core::schedulePublish(int phys, uint16_t lanes, const VecReg &values,
                      int robIdx, uint64_t at_cycle)
{
    SAVE_ASSERT(at_cycle > cycle_ && at_cycle - cycle_ < kPubRingSlots,
                "publish must land within the publish ring's reach");
    pub_ring_[at_cycle % kPubRingSlots].push_back(
        {phys, robIdx, kNoReg, lanes, values});
    ++pub_count_;
    activity_ = true;
}

void
Core::schedulePassThrough(int phys, uint16_t lanes, int src_phys,
                          int robIdx)
{
    pub_ring_[(cycle_ + 1) % kPubRingSlots].push_back(
        {phys, robIdx, src_phys, lanes, {}});
    ++pub_count_;
    activity_ = true;
}

void
Core::queueLoad(const LoadReq &req)
{
    SAVE_ASSERT(load_count_ < load_queue_.size(),
                "more queued loads than ROB entries");
    load_queue_[(load_head_ + load_count_++) % load_queue_.size()] = req;
}

void
Core::releaseEntry(int rs_idx)
{
    const RsEntry &e = rs.at(rs_idx);
    if (e.dstPhys != kNoReg)
        vfma_dst_to_rs_[static_cast<size_t>(e.dstPhys)] = -1;
    if (!e.cReady && e.pc != kNoReg && !prf.fullyReady(e.pc)) {
        // A mixed-precision chain node issues from the forwarded
        // partial result, so it can leave before its own accumulator
        // register is fully ready: its C waiter leaves with it.
        std::erase_if(reg_waiters_[static_cast<size_t>(e.pc)],
                      [&](const RegWaiter &w) {
                          return w.rsIdx == rs_idx && w.seq == e.seq;
                      });
    }
    sched_->onEntryReleased(rs_idx);
    rs.release(rs_idx);
}

void
Core::wakeWaiters(int phys)
{
    std::vector<RegWaiter> &ws =
        reg_waiters_[static_cast<size_t>(phys)];
    if (ws.empty())
        return;
    for (const RegWaiter &w : ws) {
        RsEntry &e = rs.at(w.rsIdx);
        if (!e.valid || e.seq != w.seq)
            continue; // slot reused since enlisting
        switch (w.src) {
          case RegWaiter::Src::A: e.aReady = true; break;
          case RegWaiter::Src::B: e.bReady = true; break;
          case RegWaiter::Src::C: e.cReady = true; break;
        }
        onOperandReady(w.rsIdx, e);
    }
    ws.clear();
}

void
Core::addWaiters(int rs_idx, const RsEntry &e)
{
    if (!e.aReady && e.pa != kNoReg)
        reg_waiters_[static_cast<size_t>(e.pa)].push_back(
            {rs_idx, e.seq, RegWaiter::Src::A});
    if (!e.bReady && e.pb != kNoReg)
        reg_waiters_[static_cast<size_t>(e.pb)].push_back(
            {rs_idx, e.seq, RegWaiter::Src::B});
    // Under SAVE the accumulator waiter is enlisted at ELM generation
    // (mguStage), and only for entries with effectual work.
    if (baseline_select_ && !e.cReady && e.pc != kNoReg)
        reg_waiters_[static_cast<size_t>(e.pc)].push_back(
            {rs_idx, e.seq, RegWaiter::Src::C});
}

void
Core::onOperandReady(int rs_idx, const RsEntry &e)
{
    if (!baseline_select_) {
        // After the ELM only the accumulator can still become ready,
        // which may put the entry in the combination window. Before
        // it, the MGU takes entries whose multiplicands are both in,
        // oldest first, from the pending sublist.
        if (e.elmValid)
            sched_->refreshCw(rs_idx);
        else if (e.aReady && e.bReady && !rs.listed(rs_idx))
            rs.addPending(rs_idx);
        return;
    }
    if (!e.aReady || !e.bReady || !e.cReady)
        return;
    // Readiness flags each transition exactly once per entry, so the
    // wake that completes the set enqueues the entry exactly once.
    // Wakes arrive in no particular age order: insert by seq (the
    // suffix that moves is almost always empty).
    auto it = baseline_ready_.end();
    while (it != baseline_ready_.begin() && (it - 1)->first > e.seq)
        --it;
    baseline_ready_.insert(it, {e.seq, rs_idx});
}

bool
Core::drained() const
{
    if (have_peek_ || !trace_done_ || !rob.empty() || !replay_.empty())
        return false;
    if (load_count_ != 0 || !events_.empty() || pub_count_ != 0 ||
        load_ring_count_ != 0)
        return false;
    for (const auto &v : vpus)
        if (!v.idle())
            return false;
    return true;
}

uint64_t
Core::wakeHorizon() const
{
    uint64_t h = kNeverCycle;
    if (!events_.empty())
        h = std::min(h, events_.top().cycle);
    if (pub_count_ != 0) {
        // cycle_ was advanced at the end of the probe step, so the
        // bucket for the *current* cycle_ has not been drained yet: a
        // publish scheduled for exactly this cycle must keep the
        // horizon here (the d=0 probe; run() then steps normally
        // instead of jumping). Starting the scan at d=1 skipped such a
        // publish and let fast-forward jump past it — the bucket then
        // drained at the wrong cycle (or, if nothing else woke the
        // core, never), diverging from the per-cycle loop.
        for (uint64_t d = 0; d < kPubRingSlots; ++d) {
            if (!pub_ring_[(cycle_ + d) % kPubRingSlots].empty()) {
                h = std::min(h, cycle_ + d);
                break;
            }
        }
    }
    if (load_ring_count_ != 0) {
        // Same d=0 rationale as the publish ring above.
        for (uint64_t d = 0; d < kPubRingSlots; ++d) {
            if (!load_ring_[(cycle_ + d) % kPubRingSlots].empty()) {
                h = std::min(h, cycle_ + d);
                break;
            }
        }
    }
    for (const auto &v : vpus)
        h = std::min(h, v.nextCompletion());
    // <= not <: a throttle that expires exactly at the current (not yet
    // executed) cycle_ must keep the horizon here so allocation resumes
    // on schedule instead of being jumped past.
    if (cycle_ <= resume_alloc_cycle_)
        h = std::min(h, resume_alloc_cycle_);
    h = std::min(h, sched_->nextTimeWake(cycle_));
    if (!rob.empty())
        h = std::min(h, last_progress_cycle_ + watchdog_cycles_);
    h = std::min(h, forced_watchdog_cycle_);
    return h;
}

void
Core::fastForwardTo(uint64_t target)
{
    SAVE_PROF_SCOPE(prof_, FastFwd);
    SAVE_ASSERT(target >= cycle_, "fast-forward must move forward");
    uint64_t skipped = target - cycle_;
    if (skipped == 0)
        return;
    // Each skipped cycle is a state-identical repeat of the probe
    // cycle, so the per-cycle counters it fired must fire once per
    // skipped cycle too. Everything else is untouched by construction.
    if (fx_stall_)
        fx_stall_->add(static_cast<double>(skipped));
    if (fx_cw_ > 0) {
        st_cw_sum_.add(static_cast<double>(skipped) * fx_cw_);
        st_cw_cycles_.add(static_cast<double>(skipped));
    }
    cycle_ = target;
    ++ff_jumps_;
    ff_cycles_skipped_ += skipped;
    checkWatchdogs();
}

void
Core::finalizeStats()
{
    stats_.set("cycles", static_cast<double>(cycle_));
    stats_.set("vpu_ops", 0);
    stats_.set("vpu_lanes", 0);
    for (size_t v = 0; v < vpus.size(); ++v) {
        stats_.add("vpu_ops", static_cast<double>(vpus[v].opsIssued()));
        stats_.add("vpu_lanes",
                   static_cast<double>(vpus[v].lanesIssued()));
    }
    if (bcache_)
        stats_.set("bcache_hit_rate", bcache_->hitRate());
    SAVE_PROF_REPORT(prof_, core_id_, cycle_);
}

bool
Core::step()
{
    activity_ = false;
    fx_stall_ = nullptr;
    fx_cw_ = 0;

    for (auto &v : vpus)
        v.tick();

    {
        SAVE_PROF_SCOPE(prof_, Writeback);
        processWriteback();
    }
    {
        SAVE_PROF_SCOPE(prof_, Events);
        processEvents();
    }
    {
        SAVE_PROF_SCOPE(prof_, Commit);
        commit();
        storeWakeup();
    }
    {
        SAVE_PROF_SCOPE(prof_, Issue);
        sched_->step();
    }
    {
        SAVE_PROF_SCOPE(prof_, Mem);
        issueLoads();
    }
    {
        SAVE_PROF_SCOPE(prof_, Dispatch);
        mguStage();
    }
    {
        SAVE_PROF_SCOPE(prof_, Rename);
        allocate();
    }

    ++cycle_;
    checkWatchdogs();
#ifdef SAVE_AUDIT_ENABLED
    if (auditor_ && auditor_->due(cycle_))
        auditor_->check("cycle");
#endif
    return !drained();
}

void
Core::processWriteback()
{
    for (auto &v : vpus) {
        wb_scratch_.clear();
        wb_vec_scratch_.clear();
        if (v.drainCompleted(cycle_, wb_scratch_, wb_vec_scratch_) > 0)
            activity_ = true;
        for (const LaneWrite &w : wb_scratch_) {
            if (prf.publishLane(w.dstPhys, w.lane, w.value))
                wakeWaiters(w.dstPhys);
            if (rob.laneDone(w.robIdx) && etrace_)
                etrace_->writeback(cycle_, rob.at(w.robIdx).seq,
                                   w.robIdx);
        }
        // Whole-register results: one publish + one ROB update instead
        // of sixteen per-lane rounds (baseline/dense fast path).
        for (const VecWrite &w : wb_vec_scratch_) {
            if (prf.publishAll(w.dstPhys, w.value))
                wakeWaiters(w.dstPhys);
            if (rob.lanesDone(w.robIdx, kVecLanes) && etrace_)
                etrace_->writeback(cycle_, rob.at(w.robIdx).seq,
                                   w.robIdx);
        }
    }
}

void
Core::processEvents()
{
    std::vector<PendingPublish> &bucket =
        pub_ring_[cycle_ % kPubRingSlots];
    if (!bucket.empty()) {
        activity_ = true;
        for (const PendingPublish &p : bucket) {
            const VecReg &src = p.srcPhys == kNoReg ? p.value
                                                    : prf.value(p.srcPhys);
            if (prf.publishLanes(p.phys, p.lanes, src))
                wakeWaiters(p.phys);
            if (rob.lanesDone(p.robIdx, popcount(p.lanes)) && etrace_)
                etrace_->writeback(cycle_, rob.at(p.robIdx).seq,
                                   p.robIdx);
        }
        pub_count_ -= bucket.size();
        bucket.clear();
    }
    auto completeLoad = [this](const LoadReq &req) {
        if (req.toRs) {
            RsEntry &e = rs.at(req.rsIdx);
            SAVE_ASSERT(e.valid && e.seq == req.seq,
                        "stale embedded-broadcast completion");
            e.bcastVal = VecReg::broadcastWord(image_->readU32(req.addr));
            e.aReady = true;
            onOperandReady(req.rsIdx, e);
        } else {
            VecReg v = req.op == Opcode::BroadcastLoad
                           ? VecReg::broadcastWord(
                                 image_->readU32(req.addr))
                           : image_->readLine(req.addr);
            if (prf.publishAll(req.dstPhys, v))
                wakeWaiters(req.dstPhys);
            if (rob.markDone(req.robIdx) && etrace_)
                etrace_->writeback(cycle_, rob.at(req.robIdx).seq,
                                   req.robIdx);
        }
    };
    std::vector<LoadReq> &lbucket = load_ring_[cycle_ % kPubRingSlots];
    if (!lbucket.empty()) {
        activity_ = true;
        for (const LoadReq &req : lbucket)
            completeLoad(req);
        load_ring_count_ -= lbucket.size();
        lbucket.clear();
    }
    while (!events_.empty() && events_.top().cycle <= cycle_) {
        LoadReq req = events_.top().load;
        events_.pop();
        activity_ = true;
        completeLoad(req);
    }
}

void
Core::injectFaultAtSeq(uint64_t seq)
{
    fault_armed_ = true;
    fault_seq_ = seq;
}

void
Core::commit()
{
    for (int i = 0; i < mcfg.commitWidth; ++i) {
        if (rob.empty())
            break;
        if (fault_armed_ && rob.at(rob.head()).seq == fault_seq_) {
            // The faulting instruction reached the precise point:
            // everything older has committed; squash it and every
            // younger instruction, then replay after the handler.
            squash();
            fault_armed_ = false;
            resume_alloc_cycle_ =
                cycle_ + static_cast<uint64_t>(
                             mcfg.exceptionServiceCycles);
            stats_.add("exceptions_serviced");
            activity_ = true;
            return;
        }
        if (!rob.at(rob.head()).done)
            break;
        int head_idx = rob.head();
        const RobEntry &e = rob.at(head_idx);
        last_progress_cycle_ = cycle_;
        activity_ = true;
        if (e.oldPhys != kNoReg) {
            prf.release(e.oldPhys);
            rotated_copies_[static_cast<size_t>(e.oldPhys)] = 0;
        }
        if (e.isStore) {
            image_->writeLine(e.storeAddr, prf.value(e.storeSrcPhys));
            mem_->store(core_id_, e.storeAddr, nowNs(), freq_ghz_);
            std::erase_if(inflight_store_lines_,
                          [&](const InflightStore &s) {
                              return s.seq == e.seq;
                          });
        }
        st_committed_.add();
        if (etrace_)
            etrace_->retire(cycle_, e.seq, e.uop, head_idx);
        rob.popHead();
    }
}

void
Core::squash()
{
    // The fault is taken at the ROB head, so everything older has
    // committed and nothing in flight survives: the whole window is
    // flushed (paper SecIII, SecV-B).
    //
    // 1. Walk the ROB youngest-first, undoing renaming and collecting
    //    the uops for replay. The renamer keeps no retirement map, so
    //    each mapping is rolled back in turn.
    const int squash_count = rob.size();
    squash_uops_.clear();
    for (int i = squash_count - 1; i >= 0; --i) {
        RobEntry &e = rob.at(rob.indexFromHead(i));
        squash_uops_.push_back(e.uop);
        if (e.dstPhys != kNoReg) {
            renamer_.restoreMapping(e.uop.dst, e.oldPhys);
            prf.release(e.dstPhys);
            vfma_dst_to_rs_[static_cast<size_t>(e.dstPhys)] = -1;
            // The released register may be re-allocated immediately by
            // the replay; stale rotated-copy seen-bits keyed on it
            // would then suppress the copies the re-executed VFMAs
            // must make (SecIV-B undercount). Commit clears oldPhys
            // for the same reason.
            rotated_copies_[static_cast<size_t>(e.dstPhys)] = 0;
        }
        if (e.op == Opcode::SetMask)
            renamer_.setMask(e.uop.wmask, e.prevMask);
    }
    rob.clear();

    // 2. Empty the rest of the window. RS slots are freed oldest first,
    //    so the replay reuses them in the same order. In-flight VPU ops
    //    keep their pipeline slots, and so their timing, but write
    //    nothing. The scheduler drops its chains and with them every
    //    partial mixed-precision result (SecV-B).
    while (rs.first() != Rs::kEnd)
        rs.release(rs.first());
    for (auto &ws : reg_waiters_)
        ws.clear();
    baseline_ready_.clear();
    load_count_ = 0;
    pending_stores_.clear();
    inflight_store_lines_.clear();
    events_.clear();
    for (auto &bucket : pub_ring_)
        bucket.clear();
    pub_count_ = 0;
    for (auto &bucket : load_ring_)
        bucket.clear();
    load_ring_count_ = 0;
    for (auto &vpu : vpus)
        vpu.dropWrites();
    sched_->flush();

    // 3. Queue the squashed instructions for re-execution, oldest
    //    first, ahead of the not-yet-fetched remainder of the trace.
    for (auto it = squash_uops_.rbegin(); it != squash_uops_.rend(); ++it)
        replay_.push_back(*it);
    if (have_peek_) {
        replay_.push_back(peek_);
        have_peek_ = false;
    }
    stats_.add("uops_squashed", squash_count);
    if (etrace_)
        etrace_->squash(cycle_, fault_seq_, squash_count);
#ifdef SAVE_AUDIT_ENABLED
    if (auditor_)
        auditor_->checkAfterSquash();
#endif
}

void
Core::storeWakeup()
{
    for (size_t i = 0; i < pending_stores_.size();) {
        const PendingStore &s = pending_stores_[i];
        if (prf.fullyReady(s.srcPhys)) {
            if (rob.markDone(s.robIdx) && etrace_)
                etrace_->writeback(cycle_, rob.at(s.robIdx).seq,
                                   s.robIdx);
            activity_ = true;
            pending_stores_[i] = pending_stores_.back();
            pending_stores_.pop_back();
        } else {
            ++i;
        }
    }
}

void
Core::issueLoads()
{
    int l1_ports = mcfg.l1ReadPorts;
    int bc_ports = mcfg.bcachePorts;

    while (load_count_ != 0 && (l1_ports > 0 || bc_ports > 0)) {
        const LoadReq &req = load_queue_[load_head_];
        // Loads sample the memory image when their event completes,
        // but stores only update it at commit. Hold a load at the
        // queue head until every older store to the same line has
        // committed, or the load reads stale data the architectural
        // order already overwrote. The queue is seq-ascending and the
        // store's operand producers are older than the load, so their
        // own loads are already past this point: no deadlock.
        if (!inflight_store_lines_.empty()) {
            uint64_t line = lineOf(req.addr);
            bool blocked = false;
            for (const InflightStore &s : inflight_store_lines_) {
                if (s.seq < req.seq && s.line == line) {
                    blocked = true;
                    break;
                }
            }
            if (blocked)
                break;
        }
        bool is_bcast = req.op == Opcode::BroadcastLoad ||
                        req.op == Opcode::VfmaPsBcast ||
                        req.op == Opcode::Vdpbf16PsBcast;
        bool use_bc = bcache_ && is_bcast;

        uint64_t done_cycle;
        if (use_bc) {
            if (bc_ports == 0)
                break;
            BcastResult peek = bcache_->probeOnly(req.addr);
            if (peek.needsL1 && l1_ports == 0)
                break;
            BcastResult res = bcache_->access(req.addr);
            --bc_ports;
            if (res.needsL1) {
                --l1_ports;
                double done_ns =
                    mem_->load(core_id_, req.addr, nowNs(), freq_ghz_);
                done_cycle = static_cast<uint64_t>(
                    std::ceil(done_ns * freq_ghz_));
                st_bcast_l1_reads_.add();
            } else {
                done_cycle = cycle_ +
                             static_cast<uint64_t>(mcfg.l1LatCycles);
                st_bcast_bc_served_.add();
            }
        } else {
            if (l1_ports == 0)
                break;
            --l1_ports;
            double done_ns =
                mem_->load(core_id_, req.addr, nowNs(), freq_ghz_);
            done_cycle =
                static_cast<uint64_t>(std::ceil(done_ns * freq_ghz_));
        }
        if (done_cycle <= cycle_)
            done_cycle = cycle_ + 1;

        if (done_cycle - cycle_ < kPubRingSlots) {
            load_ring_[done_cycle % kPubRingSlots].push_back(req);
            ++load_ring_count_;
        } else {
            events_.push({done_cycle, event_order_++, req});
        }
        // Issuing a load is progress (the next queued load may be
        // waiting on this cycle's port budget): never fast-forward
        // over it.
        activity_ = true;
        st_loads_issued_.add();
        load_head_ = (load_head_ + 1) % load_queue_.size();
        --load_count_;
    }
}

void
Core::refreshReadiness(RsEntry &e)
{
    if (!e.aReady && e.pa != kNoReg)
        e.aReady = prf.fullyReady(e.pa);
    if (!e.bReady && e.pb != kNoReg)
        e.bReady = prf.fullyReady(e.pb);
}

void
Core::mguStage()
{
    if (!scfg.enabled || scfg.policy == SchedPolicy::Baseline)
        return;
    int budget = mcfg.issueWidth; // one MGU per allocation slot
    // The pending sublist holds exactly the VFMAs without an ELM yet
    // whose multiplicands are ready (joined on the readying wakeup),
    // oldest first.
    for (int idx = rs.firstPending(); idx != Rs::kEnd && budget != 0;) {
        int nxt = rs.nextInList(idx);
        RsEntry &e = rs.at(idx);
        SAVE_PROF_WALK(prof_, Dispatch);

        const VecReg &a = operandA(e);
        const VecReg &b = operandB(e);
        if (e.uop.isMixedPrecision()) {
            uint32_t m = elmMp(a, b, e.wm);
            if (m == 0 && !scfg.bsSkip) // ablation: no skipping
                m = simd::expandMask16to32(e.wm);
            e.elm = m;
            e.pendingMl = m;
            e.pendingAl = mpAlMask(m);
        } else {
            uint16_t m = elmF32(a, b, e.wm);
            if (m == 0 && !scfg.bsSkip)
                m = e.wm;
            e.elm = m;
            e.pendingAl = m;
        }
        e.passPending = static_cast<uint16_t>(~e.pendingAl);
        e.elmValid = true;
        // The chain path schedules a chain entry's effectual lanes, so
        // it joins no select sublist; its pass lanes still use the
        // pass list.
        rs.promote(idx, e.chainId < 0);
        if (e.passPending)
            rs.addPass(idx);
        if (e.pendingAl) {
            // The accumulator becoming fully ready is what admits an
            // entry with effectual work to the combination window, so
            // from here on it waits on that; the rest never join, and
            // skip the wakeup.
            e.cReady = prf.fullyReady(e.pc);
            if (!e.cReady)
                reg_waiters_[static_cast<size_t>(e.pc)].push_back(
                    {idx, e.seq, RegWaiter::Src::C});
        }
        sched_->onElmGenerated(idx);
        activity_ = true;
        if (etrace_)
            etrace_->elm(cycle_, e.seq, e.elm, e.pendingAl);
        if (e.pendingAl == 0)
            st_bs_skipped_.add();
        --budget;
        st_elms_generated_.add();
        idx = nxt;
    }
}

void
Core::allocateVfma(const Uop &u)
{
    int rs_idx = rs.allocEntry();
    RsEntry &e = rs.at(rs_idx);
    e.uop = u;
    e.seq = seq_;
    e.pa = u.srcA >= 0 ? renamer_.mapOf(u.srcA) : kNoReg;
    e.pb = renamer_.mapOf(u.srcB);
    e.pc = renamer_.mapOf(u.srcC);
    e.wm = u.wmask >= 0 ? renamer_.mask(u.wmask) : 0xffffu;

    auto renamed = renamer_.renameDst(u.dst);
    SAVE_ASSERT(renamed.newPhys != kNoReg, "caller checked PRF space");
    e.dstPhys = renamed.newPhys;

    // R-state from the accumulator's logical register number; with
    // the paper's 3 states this yields shifts in {-1, 0, +1}
    // (SecIV-B). More states (ablation) widen the shift range.
    bool rotate = scfg.enabled && scfg.policy == SchedPolicy::RVC &&
                  scfg.rotationStates > 1;
    e.rot = rotate
        ? static_cast<int8_t>(u.dst % scfg.rotationStates -
                              scfg.rotationStates / 2)
        : 0;

    int rob_idx = rob.allocEntry();
    RobEntry &re = rob.at(rob_idx);
    re.seq = seq_;
    re.op = u.op;
    re.uop = u;
    re.dstPhys = renamed.newPhys;
    re.oldPhys = renamed.oldPhys;
    re.lanesPending = kVecLanes;
    e.robIdx = rob_idx;

    if (e.rot != 0 && e.pb != kNoReg) {
        // A rotated copy of the non-broadcast multiplicand is needed
        // once per (register, R-state) pair (SecIV-B); the broadcast
        // operand and the accumulator never need copies.
        uint8_t bit = static_cast<uint8_t>(
            1u << (e.rot - (-scfg.rotationStates / 2)));
        uint8_t &seen = rotated_copies_[static_cast<size_t>(e.pb)];
        if (!(seen & bit)) {
            seen |= static_cast<uint8_t>(bit);
            st_rotated_copies_.add();
        }
    }

    refreshReadiness(e);
    if (baseline_select_)
        e.cReady = e.pc == kNoReg || prf.fullyReady(e.pc);
    addWaiters(rs_idx, e);
    onOperandReady(rs_idx, e);
    if (u.op == Opcode::Vdpbf16Ps || u.op == Opcode::Vdpbf16PsBcast)
        vfma_dst_to_rs_[static_cast<size_t>(renamed.newPhys)] = rs_idx;

    if (u.hasEmbeddedBroadcast()) {
        LoadReq req;
        req.toRs = true;
        req.rsIdx = rs_idx;
        req.seq = seq_;
        req.addr = u.addr;
        req.op = u.op;
        queueLoad(req);
    }

    sched_->onVfmaAllocated(rs_idx);
    st_vfmas_.add();
}

bool
Core::nextUop(Uop &u)
{
    if (!replay_.empty()) {
        u = replay_.front();
        replay_.pop_front();
        return true;
    }
    if (trace_done_ || !trace_)
        return false;
    if (!trace_->next(u)) {
        trace_done_ = true;
        return false;
    }
    return true;
}

void
Core::allocate()
{
    if (cycle_ < resume_alloc_cycle_)
        return; // exception handler running
    for (int slot = 0; slot < mcfg.issueWidth; ++slot) {
        if (!have_peek_) {
            if (!nextUop(peek_))
                return;
            have_peek_ = true;
        }
        const Uop &u = peek_;
        if (rob.full()) {
            st_stall_rob_.add();
            fx_stall_ = &st_stall_rob_;
            return;
        }

        switch (u.op) {
          case Opcode::Alu: {
            RobEntry &re = rob.at(rob.allocEntry());
            re.seq = seq_;
            re.op = u.op;
            re.uop = u;
            re.done = true;
            break;
          }
          case Opcode::SetMask: {
            RobEntry &re = rob.at(rob.allocEntry());
            re.seq = seq_;
            re.op = u.op;
            re.uop = u;
            re.prevMask = renamer_.mask(u.wmask);
            re.done = true;
            renamer_.setMask(u.wmask, u.maskImm);
            break;
          }
          case Opcode::BroadcastLoad:
          case Opcode::LoadVec: {
            auto renamed = renamer_.renameDst(u.dst);
            if (renamed.newPhys == kNoReg) {
                st_stall_prf_.add();
                fx_stall_ = &st_stall_prf_;
                return; // PRF pressure: stall allocation
            }
            int rob_idx = rob.allocEntry();
            RobEntry &re = rob.at(rob_idx);
            re.seq = seq_;
            re.op = u.op;
            re.uop = u;
            re.dstPhys = renamed.newPhys;
            re.oldPhys = renamed.oldPhys;

            LoadReq req;
            req.toRs = false;
            req.seq = seq_;
            req.dstPhys = renamed.newPhys;
            req.robIdx = rob_idx;
            req.addr = u.addr;
            req.op = u.op;
            queueLoad(req);
            break;
          }
          case Opcode::StoreVec: {
            int rob_idx = rob.allocEntry();
            RobEntry &re = rob.at(rob_idx);
            re.seq = seq_;
            re.op = u.op;
            re.uop = u;
            re.isStore = true;
            re.storeAddr = u.addr;
            re.storeSrcPhys = renamer_.mapOf(u.srcC);
            pending_stores_.push_back({rob_idx, re.storeSrcPhys});
            inflight_store_lines_.push_back({seq_, lineOf(u.addr)});
            break;
          }
          default: {
            SAVE_ASSERT(u.isVfma(), "unhandled opcode");
            if (rs.full()) {
                st_stall_rs_.add();
                fx_stall_ = &st_stall_rs_;
                return;
            }
            if (prf.numFree() == 0) {
                st_stall_prf_.add();
                fx_stall_ = &st_stall_prf_;
                return;
            }
            allocateVfma(u);
            break;
          }
        }
        if (etrace_)
            etrace_->alloc(cycle_, seq_, u,
                           rob.indexFromHead(rob.size() - 1));
        ++seq_;
        have_peek_ = false;
        st_uops_.add();
        activity_ = true;
    }
}

std::string
Core::pipelineSnapshot() const
{
    std::ostringstream os;
    os << "core " << core_id_ << " @ cycle " << cycle_
       << " (last commit @ " << last_progress_cycle_ << ")\n";

    os << "  rob: " << rob.size() << "/" << rob.capacity();
    if (!rob.empty()) {
        const RobEntry &h = rob.at(rob.head());
        os << ", head seq " << h.seq << " " << h.uop.toString()
           << (h.done ? " [done]" : " [pending]")
           << ", lanesPending=" << h.lanesPending;
    }
    os << "\n";

    int elm_valid = 0, issued = 0;
    for (int idx : rs.order()) {
        const RsEntry &e = rs.at(idx);
        if (e.elmValid)
            ++elm_valid;
        if (e.issued)
            ++issued;
    }
    os << "  rs: " << rs.size() << "/" << rs.capacity()
       << " (mgu elmValid=" << elm_valid << ", issued=" << issued
       << ")\n";

    os << "  mem: load_queue=" << load_count_
       << ", events=" << events_.size() + pub_count_
       << ", pending_stores=" << pending_stores_.size()
       << ", replay=" << replay_.size() << "\n";

    for (size_t v = 0; v < vpus.size(); ++v)
        os << "  vpu" << v << ": "
           << (vpus[v].idle() ? "idle" : "busy")
           << ", ops=" << vpus[v].opsIssued() << "\n";

    if (bcache_)
        os << "  bcache hit rate: " << bcache_->hitRate() << "\n";
    return os.str();
}

void
Core::checkWatchdogs() const
{
    if (!rob.empty() && cycle_ - last_progress_cycle_ >= watchdog_cycles_)
        fireWatchdog("no uop committed within the watchdog window");
    if (cycle_ >= forced_watchdog_cycle_)
        fireWatchdog("fault injection forced the watchdog");
}

void
Core::fireWatchdog(const char *why) const
{
    SimError::Context ctx;
    ctx.coreId = core_id_;
    ctx.cycle = static_cast<int64_t>(cycle_);
    if (!rob.empty())
        ctx.uopSeq = static_cast<int64_t>(rob.at(rob.head()).seq);
    throw DeadlockError(why, pipelineSnapshot(), ctx);
}

} // namespace save
