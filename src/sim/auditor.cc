#include "sim/auditor.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "save/scheduler.h"
#include "sim/core.h"
#include "sim/mgu.h"
#include "util/bitutil.h"
#include "util/error.h"

namespace save {

namespace {

uint64_t
envAuditStride()
{
    const char *env = std::getenv("SAVE_AUDIT_STRIDE");
    if (!env || !*env)
        return 1;
    char *end = nullptr;
    long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0)
        return 1;
    return static_cast<uint64_t>(v);
}

std::string
hex(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", v);
    return buf;
}

} // namespace

Auditor::Auditor(Core &core) : c_(core), stride_(envAuditStride())
{
    free_bm_.resize(static_cast<size_t>(core.prf.numRegs()));
    map_bm_.resize(static_cast<size_t>(core.prf.numRegs()));
    rs_mark_.resize(static_cast<size_t>(core.rs.capacity()));
    lane_bm_.resize(static_cast<size_t>(core.rob.capacity()) *
                    kVecLanes);
    lane_count_.resize(static_cast<size_t>(core.rob.capacity()));
    rob_unsched_.resize(static_cast<size_t>(core.rob.capacity()));
}

void
Auditor::fail(const std::string &what) const
{
    SimContext ctx;
    ctx.coreId = c_.core_id_;
    ctx.cycle = static_cast<int64_t>(c_.cycle_);
    throw AuditError(std::string(when_) + ": " + what,
                     c_.pipelineSnapshot(), ctx);
}

void
Auditor::check(const char *when) const
{
    when_ = when;
    checkRob();
    checkRsLists();
    checkRobRsLink();
    checkPrf();
    checkWaiters();
    checkEventTargets();
    checkSaveState();
    checkCombinationWindow();
    checkLaneOrder();
    checkChains();
}

void
Auditor::checkRob() const
{
    const Rob &rob = c_.rob;
    int valid_slots = 0;
    for (int i = 0; i < rob.capacity(); ++i)
        if (rob.at(i).valid)
            ++valid_slots;
    if (valid_slots != rob.size())
        fail("ROB valid-slot count " + std::to_string(valid_slots) +
             " != size " + std::to_string(rob.size()));
    uint64_t prev_seq = 0;
    for (int i = 0; i < rob.size(); ++i) {
        const RobEntry &e = rob.at(rob.indexFromHead(i));
        if (!e.valid)
            fail("ROB entry " + std::to_string(i) +
                 " from head is invalid");
        if (i > 0 && e.seq <= prev_seq)
            fail("ROB seq order broken at entry " + std::to_string(i) +
                 " from head (seq " + std::to_string(e.seq) + ")");
        prev_seq = e.seq;
        if (e.uop.isVfma() && e.done != (e.lanesPending == 0))
            fail("VFMA ROB entry seq " + std::to_string(e.seq) +
                 ": done=" + std::to_string(e.done) +
                 " but lanesPending=" + std::to_string(e.lanesPending));
        if (e.lanesPending < 0 || e.lanesPending > kVecLanes)
            fail("ROB entry seq " + std::to_string(e.seq) +
                 ": lanesPending out of range");
    }
}

void
Auditor::checkRsLists() const
{
    const Rs &rs = c_.rs;
    // Age list: every node valid, seq strictly increasing, exact size.
    std::fill(rs_mark_.begin(), rs_mark_.end(), 0);
    int n = 0;
    uint64_t prev_seq = 0;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (!e.valid)
            fail("RS age list holds invalid slot " +
                 std::to_string(idx));
        if (rs_mark_[static_cast<size_t>(idx)])
            fail("RS age list visits slot " + std::to_string(idx) +
                 " twice");
        rs_mark_[static_cast<size_t>(idx)] = 1;
        if (n > 0 && e.seq <= prev_seq)
            fail("RS age order broken at slot " + std::to_string(idx));
        prev_seq = e.seq;
        ++n;
    }
    if (n != rs.size())
        fail("RS age list length " + std::to_string(n) + " != size " +
             std::to_string(rs.size()));
    // No valid slot outside the age list.
    for (int idx = 0; idx < rs.capacity(); ++idx) {
        if (rs.at(idx).valid && !rs_mark_[static_cast<size_t>(idx)])
            fail("valid RS slot " + std::to_string(idx) +
                 " missing from the age list");
    }
    // Each event-maintained list holds exactly the live entries its
    // definition names, oldest first: a missing entry is never
    // scheduled (missed wakeup), an extra one is walked for nothing.
    // Pending and issuable are disjoint because elmValid splits them;
    // under the baseline select (no ELMs) all three stay empty.
    // Mixed-precision entries the chain path schedules sit on no select
    // sublist once their ELM is out (select would only skip them), but
    // their pass lanes keep them on the pass list.
    const bool save_on = c_.scfg.enabled &&
                         c_.scfg.policy != SchedPolicy::Baseline;
    const bool chain_mode = save_on && c_.scfg.mpCompress;
    checkRsList("pending", rs.firstPending(), &Rs::nextInList,
                rs.pendingCount(), [save_on](const RsEntry &e) {
                    return save_on && !e.elmValid && e.aReady && e.bReady;
                });
    checkRsList("issuable", rs.firstIssuable(), &Rs::nextInList,
                rs.issuableCount(), [chain_mode](const RsEntry &e) {
                    return e.elmValid &&
                           !(chain_mode && e.uop.isMixedPrecision());
                });
    checkRsList("pass", rs.firstPass(), &Rs::nextPass, rs.passCount(),
                [](const RsEntry &e) {
                    return e.elmValid && e.passPending != 0;
                });
}

template <typename Member>
void
Auditor::checkRsList(const char *name, int first,
                     int (Rs::*next)(int) const, int count,
                     Member member) const
{
    const Rs &rs = c_.rs;
    auto list = [name] { return std::string("RS ") + name + " list"; };
    // rs_mark_ is 1 on every live slot (checkRsLists); 2 once seen.
    int n = 0;
    uint64_t prev_seq = 0;
    for (int idx = first; idx != Rs::kEnd; idx = (rs.*next)(idx)) {
        const RsEntry &e = rs.at(idx);
        if (!e.valid || rs_mark_[static_cast<size_t>(idx)] == 0)
            fail(list() + " holds invalid slot " + std::to_string(idx));
        if (rs_mark_[static_cast<size_t>(idx)] == 2)
            fail(list() + " visits slot " + std::to_string(idx) + " twice");
        rs_mark_[static_cast<size_t>(idx)] = 2;
        if (!member(e))
            fail(list() + " holds seq " + std::to_string(e.seq) +
                 ", which does not belong on it");
        if (n > 0 && e.seq <= prev_seq)
            fail(list() + " age order broken at seq " +
                 std::to_string(e.seq));
        prev_seq = e.seq;
        ++n;
    }
    if (n != count)
        fail(list() + " length " + std::to_string(n) +
             " != recorded count " + std::to_string(count));
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        uint8_t &mark = rs_mark_[static_cast<size_t>(idx)];
        if (mark != 2 && member(rs.at(idx)))
            fail("seq " + std::to_string(rs.at(idx).seq) +
                 " missing from the " + list());
        mark = 1;
    }
}

void
Auditor::checkRobRsLink() const
{
    const Rs &rs = c_.rs;
    const Rob &rob = c_.rob;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (e.robIdx < 0 || e.robIdx >= rob.capacity())
            fail("RS slot " + std::to_string(idx) +
                 ": robIdx out of range");
        const RobEntry &re = rob.at(e.robIdx);
        if (!re.valid || re.seq != e.seq)
            fail("RS slot " + std::to_string(idx) + " (seq " +
                 std::to_string(e.seq) +
                 ") references a dead/reused ROB slot");
        if (re.dstPhys != e.dstPhys)
            fail("RS/ROB dstPhys mismatch at seq " +
                 std::to_string(e.seq));
        if (re.done || re.lanesPending <= 0)
            fail("ROB entry seq " + std::to_string(e.seq) +
                 " complete while its RS entry is still live");
        if (!e.uop.isVfma())
            fail("non-VFMA uop in the RS at seq " +
                 std::to_string(e.seq));
        if (e.issued)
            fail("RS slot " + std::to_string(idx) +
                 " still live after whole-op issue");
    }
}

void
Auditor::checkPrf() const
{
    const PhysRegFile &prf = c_.prf;
    int nregs = prf.numRegs();
    std::fill(free_bm_.begin(), free_bm_.end(), 0);
    for (int r : prf.freeList()) {
        if (r < 0 || r >= nregs)
            fail("free list holds out-of-range register " +
                 std::to_string(r));
        if (free_bm_[static_cast<size_t>(r)])
            fail("register " + std::to_string(r) +
                 " on the free list twice");
        free_bm_[static_cast<size_t>(r)] = 1;
    }

    auto live = [&](int r, const char *what) {
        if (r < 0 || r >= nregs)
            fail(std::string(what) + " references out-of-range "
                 "register " + std::to_string(r));
        if (free_bm_[static_cast<size_t>(r)])
            fail(std::string(what) + " references register " +
                 std::to_string(r) + " which is on the free list");
    };

    // Rename map: in range, not free, injective.
    std::fill(map_bm_.begin(), map_bm_.end(), 0);
    std::vector<uint8_t> &mapped = map_bm_;
    for (int l = 0; l < kLogicalVecRegs; ++l) {
        int p = c_.renamer_.mapOf(l);
        live(p, "rename map");
        if (mapped[static_cast<size_t>(p)])
            fail("two logical registers map to physical register " +
                 std::to_string(p));
        mapped[static_cast<size_t>(p)] = 1;
    }

    const Rs &rs = c_.rs;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (e.pa != kNoReg)
            live(e.pa, "RS operand A");
        live(e.pb, "RS operand B");
        live(e.pc, "RS accumulator");
        live(e.dstPhys, "RS destination");
    }
    const Rob &rob = c_.rob;
    for (int i = 0; i < rob.size(); ++i) {
        const RobEntry &e = rob.at(rob.indexFromHead(i));
        if (e.dstPhys != kNoReg) {
            live(e.dstPhys, "ROB destination");
            mapped[static_cast<size_t>(e.dstPhys)] = 1;
        }
        if (e.oldPhys != kNoReg) {
            live(e.oldPhys, "ROB old mapping");
            mapped[static_cast<size_t>(e.oldPhys)] = 1;
        }
        if (e.storeSrcPhys != kNoReg)
            live(e.storeSrcPhys, "ROB store source");
    }
    // Leak check: every non-free register must be reachable as a
    // current mapping, an in-flight destination, or an in-flight
    // entry's to-be-freed old mapping — anything else can never be
    // released again.
    for (int r = 0; r < nregs; ++r) {
        if (!free_bm_[static_cast<size_t>(r)] &&
            !mapped[static_cast<size_t>(r)])
            fail("physical register " + std::to_string(r) +
                 " is neither free nor reachable (leaked)");
    }

    for (size_t p = 0; p < c_.vfma_dst_to_rs_.size(); ++p) {
        int phys = static_cast<int>(p);
        int rs_idx = c_.vfma_dst_to_rs_[p];
        if (rs_idx < 0)
            continue;
        live(phys, "vfma dst->RS map");
        if (rs_idx >= rs.capacity() || !rs.at(rs_idx).valid ||
            rs.at(rs_idx).dstPhys != phys)
            fail("vfma dst->RS map entry for register " +
                 std::to_string(phys) + " references a dead RS slot");
        if (!rs.at(rs_idx).uop.isMixedPrecision())
            fail("vfma dst->RS map entry for register " +
                 std::to_string(phys) + " is not mixed-precision");
    }
    for (size_t p = 0; p < c_.rotated_copies_.size(); ++p) {
        if (c_.rotated_copies_[p] != 0)
            live(static_cast<int>(p), "rotated-copy table");
    }
}

void
Auditor::checkWaiters() const
{
    const Rs &rs = c_.rs;
    // Completeness: each readiness flag the pipeline reads equals its
    // register's full readiness, and each such source not yet ready
    // has a waiter (the only way the flag can turn on). A and B are
    // read under every policy; C by the baseline select, and under
    // SAVE by the combination-window count, for entries with an ELM
    // and effectual work left.
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        const bool c_read = c_.baseline_select_ ||
                            (e.elmValid && (e.pendingAl || e.pendingMl));
        const struct
        {
            int phys;
            bool ready;
            Core::RegWaiter::Src src;
            const char *name;
        } srcs[] = {
            {e.pa, e.aReady, Core::RegWaiter::Src::A, "A"},
            {e.pb, e.bReady, Core::RegWaiter::Src::B, "B"},
            {c_read ? e.pc : kNoReg, e.cReady, Core::RegWaiter::Src::C,
             "C"},
        };
        for (const auto &src : srcs) {
            if (src.phys == kNoReg)
                continue;
            auto at = [&] {
                return std::string(" for source ") + src.name +
                       " of seq " + std::to_string(e.seq);
            };
            if (src.ready != c_.prf.fullyReady(src.phys))
                fail("readiness flag " + std::to_string(src.ready) +
                     " disagrees with register " +
                     std::to_string(src.phys) + at());
            if (src.ready)
                continue;
            bool found = false;
            for (const Core::RegWaiter &w :
                 c_.reg_waiters_[static_cast<size_t>(src.phys)]) {
                if (w.rsIdx == idx && w.seq == e.seq && w.src == src.src)
                    found = true;
            }
            if (!found)
                fail("no waiter on register " +
                     std::to_string(src.phys) + at());
        }
    }
    for (size_t phys = 0; phys < c_.reg_waiters_.size(); ++phys) {
        const auto &ws = c_.reg_waiters_[phys];
        if (ws.empty())
            continue;
        if (c_.prf.fullyReady(static_cast<int>(phys)))
            fail("register " + std::to_string(phys) +
                 " fully ready with unconsumed waiters (missed "
                 "wakeup)");
        for (const Core::RegWaiter &w : ws) {
            if (w.rsIdx < 0 || w.rsIdx >= rs.capacity())
                fail("waiter on register " + std::to_string(phys) +
                     ": RS index out of range");
            const RsEntry &e = rs.at(w.rsIdx);
            if (!e.valid || e.seq != w.seq)
                fail("stale waiter on register " +
                     std::to_string(phys) + " (seq " +
                     std::to_string(w.seq) + ")");
            int src = w.src == Core::RegWaiter::Src::A   ? e.pa
                      : w.src == Core::RegWaiter::Src::B ? e.pb
                                                         : e.pc;
            if (src != static_cast<int>(phys))
                fail("waiter on register " + std::to_string(phys) +
                     " enlisted for a different source of seq " +
                     std::to_string(e.seq));
            bool already = w.src == Core::RegWaiter::Src::A ? e.aReady
                           : w.src == Core::RegWaiter::Src::B
                               ? e.bReady
                               : e.cReady;
            if (already)
                fail("waiter outlived readiness of register " +
                     std::to_string(phys) + " at seq " +
                     std::to_string(e.seq));
        }
    }
    checkBaselineReady();
}

void
Auditor::checkBaselineReady() const
{
    if (!c_.baseline_select_)
        return;
    const Rs &rs = c_.rs;
    // Soundness: every queue record references a live, fully-ready,
    // unissued entry, and the queue is age-ordered.
    uint64_t prev_seq = 0;
    size_t queued = 0;
    for (const auto &[seq, idx] : c_.baseline_ready_) {
        const RsEntry &e = rs.at(idx);
        if (!e.valid || e.seq != seq)
            fail("baseline ready queue references a dead RS slot "
                 "(seq " + std::to_string(seq) + ")");
        if (!e.aReady || !e.bReady || !e.cReady || e.issued)
            fail("baseline ready queue holds a not-ready entry at seq " +
                 std::to_string(seq));
        if (seq <= prev_seq && queued > 0)
            fail("baseline ready queue out of age order at seq " +
                 std::to_string(seq));
        prev_seq = seq;
        ++queued;
    }
    // Completeness: a fully-ready unissued VFMA missing from the queue
    // would never be selected (missed wakeup).
    size_t ready = 0;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (e.aReady && e.bReady && e.cReady && !e.issued)
            ++ready;
    }
    if (ready != queued)
        fail("baseline ready queue holds " + std::to_string(queued) +
             " entries but " + std::to_string(ready) +
             " RS entries are fully ready");
}

void
Auditor::checkEventTargets() const
{
    const Rob &rob = c_.rob;
    const Rs &rs = c_.rs;
    std::fill(lane_bm_.begin(), lane_bm_.end(), 0);
    std::fill(lane_count_.begin(), lane_count_.end(), 0);

    auto checkLaneTarget = [&](int phys, int lane, int rob_idx,
                               const char *what) {
        if (rob_idx < 0 || rob_idx >= rob.capacity())
            fail(std::string(what) + ": robIdx out of range");
        const RobEntry &re = rob.at(rob_idx);
        if (!re.valid)
            fail(std::string(what) +
                 " targets a squashed/retired ROB slot " +
                 std::to_string(rob_idx));
        if (re.done || re.lanesPending <= 0)
            fail(std::string(what) + " targets completed ROB seq " +
                 std::to_string(re.seq));
        if (re.dstPhys != phys)
            fail(std::string(what) + " register " +
                 std::to_string(phys) +
                 " != ROB destination at seq " +
                 std::to_string(re.seq));
        if (lane < 0 || lane >= kVecLanes)
            fail(std::string(what) + ": lane out of range");
        if (phys < 0 || phys >= c_.prf.numRegs() ||
            free_bm_[static_cast<size_t>(phys)])
            fail(std::string(what) + " targets freed register " +
                 std::to_string(phys));
        size_t key = static_cast<size_t>(rob_idx) * kVecLanes +
                     static_cast<size_t>(lane);
        if (lane_bm_[key])
            fail(std::string(what) + ": duplicate in-flight write to "
                 "lane " + std::to_string(lane) + " of ROB seq " +
                 std::to_string(re.seq));
        lane_bm_[key] = 1;
        ++lane_count_[static_cast<size_t>(rob_idx)];
    };

    // A ring record is accounted lane by lane. A pass-through record
    // reads its source lanes when it drains, so the source must stay
    // live with every masked lane ready.
    size_t ring_total = 0;
    for (const auto &bucket : c_.pub_ring_) {
        ring_total += bucket.size();
        for (const Core::PendingPublish &p : bucket) {
            if (p.lanes == 0)
                fail("publish ring record for register " +
                     std::to_string(p.phys) + " has no lanes");
            for (uint16_t m = p.lanes; m; m &= static_cast<uint16_t>(m - 1))
                checkLaneTarget(p.phys, lowestSetBit(m), p.robIdx,
                                "publish ring");
            if (p.srcPhys == kNoReg)
                continue;
            if (p.srcPhys < 0 || p.srcPhys >= c_.prf.numRegs() ||
                free_bm_[static_cast<size_t>(p.srcPhys)])
                fail("pass-through record reads freed register " +
                     std::to_string(p.srcPhys));
            const uint16_t unready = static_cast<uint16_t>(
                p.lanes & ~c_.prf.laneReady(p.srcPhys));
            if (unready)
                fail("pass-through record copies lanes " + hex(unready) +
                     " of register " + std::to_string(p.srcPhys) +
                     " before they were published");
        }
    }
    if (ring_total != c_.pub_count_)
        fail("publish-ring count " + std::to_string(c_.pub_count_) +
             " != bucket total " + std::to_string(ring_total));

    auto checkLoadReq = [&](const Core::LoadReq &req, const char *what) {
        if (req.toRs) {
            if (req.rsIdx < 0 || req.rsIdx >= rs.capacity())
                fail(std::string(what) + ": RS index out of range");
            const RsEntry &e = rs.at(req.rsIdx);
            if (!e.valid || e.seq != req.seq)
                fail(std::string(what) + " (broadcast operand, seq " +
                     std::to_string(req.seq) +
                     ") targets a dead RS slot");
            if (e.pa != kNoReg || e.aReady)
                fail(std::string(what) + ": RS entry seq " +
                     std::to_string(e.seq) +
                     " not awaiting a broadcast operand");
        } else {
            if (req.robIdx < 0 || req.robIdx >= rob.capacity())
                fail(std::string(what) + ": robIdx out of range");
            const RobEntry &re = rob.at(req.robIdx);
            if (!re.valid || re.seq != req.seq)
                fail(std::string(what) + " (seq " +
                     std::to_string(req.seq) +
                     ") targets a dead ROB slot");
            if (re.done)
                fail(std::string(what) + " targets completed ROB seq " +
                     std::to_string(re.seq));
            if (re.dstPhys != req.dstPhys)
                fail(std::string(what) + " dstPhys mismatch at seq " +
                     std::to_string(re.seq));
        }
    };

    for (const Core::Event &ev : c_.events_.container())
        checkLoadReq(ev.load, "in-flight load");

    size_t load_ring_total = 0;
    for (const auto &bucket : c_.load_ring_) {
        load_ring_total += bucket.size();
        for (const Core::LoadReq &req : bucket)
            checkLoadReq(req, "load ring");
    }
    if (load_ring_total != c_.load_ring_count_)
        fail("load-ring count " + std::to_string(c_.load_ring_count_) +
             " != bucket total " + std::to_string(load_ring_total));

    uint64_t prev_seq = 0;
    bool first = true;
    for (size_t i = 0; i < c_.load_count_; ++i) {
        const Core::LoadReq &req =
            c_.load_queue_[(c_.load_head_ + i) % c_.load_queue_.size()];
        if (!first && req.seq <= prev_seq)
            fail("load queue out of program order at seq " +
                 std::to_string(req.seq));
        prev_seq = req.seq;
        first = false;
        checkLoadReq(req, "queued load");
    }

    for (const auto &v : c_.vpus) {
        v.forEachInFlight([&](const LaneWrite &w, uint64_t done) {
            (void)done;
            checkLaneTarget(w.dstPhys, w.lane, w.robIdx,
                            "VPU pipeline");
        });
    }
    // Lane accounting: every unwritten lane of a ROB entry is either
    // in flight (counted above) or still unscheduled in its RS entry —
    // all sixteen before the ELM, else its pending and pass lanes. A
    // write lost on the way (a dropped mask bit) breaks the sum.
    std::fill(rob_unsched_.begin(), rob_unsched_.end(), 0);
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (e.robIdx >= 0 && e.robIdx < rob.capacity())
            rob_unsched_[static_cast<size_t>(e.robIdx)] = e.elmValid
                ? popcount(static_cast<uint16_t>(e.pendingAl |
                                                 e.passPending))
                : kVecLanes;
    }
    for (int i = 0; i < rob.capacity(); ++i) {
        if (!rob.at(i).valid)
            continue; // checkLaneTarget rejects writes aimed here
        const int inflight = lane_count_[static_cast<size_t>(i)];
        const int unsched = rob_unsched_[static_cast<size_t>(i)];
        if (inflight + unsched != rob.at(i).lanesPending)
            fail("ROB seq " + std::to_string(rob.at(i).seq) + ": " +
                 std::to_string(rob.at(i).lanesPending) +
                 " lanes pending but " + std::to_string(inflight) +
                 " in flight and " + std::to_string(unsched) +
                 " unscheduled in the RS");
    }

    for (const Core::PendingStore &s : c_.pending_stores_) {
        if (s.robIdx < 0 || s.robIdx >= rob.capacity())
            fail("pending store: robIdx out of range");
        const RobEntry &re = rob.at(s.robIdx);
        if (!re.valid || !re.isStore)
            fail("pending store targets a non-store ROB slot " +
                 std::to_string(s.robIdx));
        if (re.done)
            fail("pending store at seq " + std::to_string(re.seq) +
                 " already marked done");
        if (re.storeSrcPhys != s.srcPhys)
            fail("pending store source mismatch at seq " +
                 std::to_string(re.seq));
    }

    // The in-flight store-line list is exactly the live ROB stores.
    int rob_stores = 0;
    for (int i = 0; i < rob.size(); ++i) {
        const RobEntry &re = rob.at(rob.indexFromHead(i));
        if (!re.isStore)
            continue;
        ++rob_stores;
        bool found = false;
        for (const Core::InflightStore &s : c_.inflight_store_lines_) {
            if (s.seq == re.seq) {
                if (s.line != lineOf(re.storeAddr))
                    fail("in-flight store line mismatch at seq " +
                         std::to_string(re.seq));
                found = true;
                break;
            }
        }
        if (!found)
            fail("ROB store seq " + std::to_string(re.seq) +
                 " missing from the in-flight store-line list");
    }
    if (rob_stores !=
        static_cast<int>(c_.inflight_store_lines_.size()))
        fail("in-flight store-line list has " +
             std::to_string(c_.inflight_store_lines_.size()) +
             " entries but the ROB holds " +
             std::to_string(rob_stores) + " live stores");
    prev_seq = 0;
    first = true;
    for (const Core::InflightStore &s : c_.inflight_store_lines_) {
        if (!first && s.seq <= prev_seq)
            fail("in-flight store-line list out of program order");
        prev_seq = s.seq;
        first = false;
    }
}

void
Auditor::checkSaveState() const
{
    const Rs &rs = c_.rs;
    bool save_on = c_.scfg.enabled &&
                   c_.scfg.policy != SchedPolicy::Baseline;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        std::string at = " at seq " + std::to_string(e.seq);
        if (!e.elmValid) {
            if (e.pendingMl || e.pendingAl || e.passPending)
                fail("lane state set before ELM generation" + at);
            continue;
        }
        if (!save_on)
            fail("ELM generated under the baseline policy" + at);
        if (!e.aReady || !e.bReady)
            fail("ELM valid before multiplicands ready" + at);
        if (e.pendingAl & e.passPending)
            fail("lane both pending and pass-through (" +
                 hex(e.pendingAl & e.passPending) + ")" + at);
        if (e.uop.isMixedPrecision()) {
            uint32_t expect = elmMp(c_.operandA(e), c_.operandB(e),
                                    e.wm);
            if (expect == 0 && !c_.scfg.bsSkip)
                expect = simd::expandMask16to32(e.wm);
            if (e.elm != expect)
                fail("mixed-precision ELM " + hex(e.elm) +
                     " disagrees with operand values (expected " +
                     hex(expect) + ")" + at);
            uint16_t elm_als = mpAlMask(e.elm);
            if (e.pendingMl & ~e.elm)
                fail("pending MLs outside the ELM" + at);
            if (e.pendingAl != mpAlMask(e.pendingMl))
                fail("pendingAl " + hex(e.pendingAl) +
                     " != AL projection of pendingMl " +
                     hex(mpAlMask(e.pendingMl)) + at);
            if (e.passPending & elm_als)
                fail("effectual AL marked pass-through" + at);
        } else {
            uint16_t expect = elmF32(c_.operandA(e), c_.operandB(e),
                                     e.wm);
            if (expect == 0 && !c_.scfg.bsSkip)
                expect = e.wm;
            if (e.elm >> 16)
                fail("FP32 ELM wider than 16 lanes" + at);
            if (e.elm != expect)
                fail("FP32 ELM " + hex(e.elm) +
                     " disagrees with operand values (expected " +
                     hex(expect) + ")" + at);
            if (e.elm & ~static_cast<uint32_t>(e.wm))
                fail("effectual lane outside the write mask" + at);
            if (e.pendingAl & ~e.elm)
                fail("pending AL outside the ELM" + at);
            if (e.passPending & e.elm)
                fail("effectual lane marked pass-through" + at);
            if (e.pendingMl)
                fail("mixed-precision state on an FP32 VFMA" + at);
        }
    }
}

void
Auditor::checkCombinationWindow() const
{
    // The scheduler's running CW count against the statistic's
    // definition, recounted: ELM generated, both multiplicands and the
    // whole accumulator ready, and effectual work unissued.
    const Rs &rs = c_.rs;
    const VectorScheduler &s = *c_.sched_;
    int cw = 0;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        const bool in = e.elmValid && e.aReady && e.bReady &&
                        (e.pendingAl || e.pendingMl) &&
                        c_.prf.fullyReady(e.pc);
        if (in != e.inCw)
            fail("combination-window flag " + std::to_string(e.inCw) +
                 " at seq " + std::to_string(e.seq) + ", expected " +
                 std::to_string(in));
        cw += in ? 1 : 0;
    }
    if (cw != s.cw_)
        fail("combination-window count " + std::to_string(s.cw_) +
             " != recount " + std::to_string(cw));
}

void
Auditor::checkLaneOrder() const
{
    // Lane-wise dependence order (paper SecIV-C / Algorithm 1): a lane
    // may only have been scheduled — for computation or pass-through —
    // once its accumulator input lane was published. Ready bits are
    // monotonic while the source register is live, so the condition
    // must still hold now. Chain-linked mixed-precision entries take
    // the accumulator from the forwarded partial result instead
    // (SecV-B) and are checked through checkChains.
    const Rs &rs = c_.rs;
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (!e.elmValid || e.chainId >= 0)
            continue;
        uint16_t started =
            static_cast<uint16_t>(~(e.pendingAl | e.passPending));
        uint16_t not_ready =
            static_cast<uint16_t>(~c_.prf.laneReady(e.pc));
        if (started & not_ready)
            fail("lanes " + hex(started & not_ready) + " of seq " +
                 std::to_string(e.seq) +
                 " scheduled before their accumulator lanes were "
                 "published (lane-wise dependence order)");
    }
}

void
Auditor::checkChains() const
{
    const VectorScheduler &s = *c_.sched_;
    const Rs &rs = c_.rs;
    bool chain_mode = c_.scfg.enabled && c_.scfg.mpCompress &&
                      c_.scfg.policy != SchedPolicy::Baseline;
    // The slab: its free list and its live slots partition it.
    const int slots = static_cast<int>(s.chains_.size());
    std::vector<uint8_t> &on_free = chain_mark_;
    on_free.assign(s.chains_.size(), 0);
    for (int id : s.free_chain_ids_) {
        if (id < 0 || id >= slots)
            fail("chain free list holds out-of-range id " +
                 std::to_string(id));
        if (on_free[static_cast<size_t>(id)])
            fail("chain slot " + std::to_string(id) +
                 " on the free list twice");
        if (s.chains_[static_cast<size_t>(id)].live)
            fail("live chain slot " + std::to_string(id) +
                 " on the free list");
        on_free[static_cast<size_t>(id)] = 1;
    }
    size_t live = 0;
    for (int id = 0; id < slots; ++id) {
        if (s.chains_[static_cast<size_t>(id)].live)
            ++live;
        else if (!on_free[static_cast<size_t>(id)])
            fail("chain slot " + std::to_string(id) +
                 " is neither live nor free (leaked)");
    }
    if (!chain_mode) {
        if (live != 0 || s.chain_head_ >= 0 || s.chain_tail_ >= 0)
            fail("accumulator chains exist without mixed-precision "
                 "compression");
        return;
    }
    // The kept chain order is a list of every live chain, oldest front
    // first, with symmetric links, and every queued trim has run.
    auto liveChain = [&](int id) {
        return id >= 0 && id < slots &&
               s.chains_[static_cast<size_t>(id)].live;
    };
    size_t listed = 0;
    int prev = -1;
    for (int id = s.chain_head_; id >= 0 && listed <= live; ++listed) {
        if (!liveChain(id))
            fail("chain order names free chain slot " + std::to_string(id));
        const VectorScheduler::Chain &ch =
            s.chains_[static_cast<size_t>(id)];
        if (ch.prev != prev)
            fail("chain " + std::to_string(id) + " links back to " +
                 std::to_string(ch.prev) + ", not its predecessor " +
                 std::to_string(prev));
        if (prev >= 0 &&
            s.chains_[static_cast<size_t>(prev)].frontSeq >= ch.frontSeq)
            fail("chain order not sorted by front seq at chain " +
                 std::to_string(id));
        if (ch.trimQueued)
            fail("chain " + std::to_string(id) + " left untrimmed");
        prev = id;
        id = ch.next;
    }
    if (s.chain_tail_ != prev)
        fail("chain order tail " + std::to_string(s.chain_tail_) +
             " is not its last chain " + std::to_string(prev));
    if (listed != live)
        fail("chain order holds " + std::to_string(listed) +
             (listed > live ? "+" : "") + " chains but " +
             std::to_string(live) + " slab slots are live");
    if (!s.trim_queue_.empty())
        fail("chain trim queue not drained");
    // Live RS entry -> owning chain, for the at-most-one-node check.
    std::fill(rs_mark_.begin(), rs_mark_.end(), 0);
    for (int id = 0; id < slots; ++id) {
        const VectorScheduler::Chain &ch =
            s.chains_[static_cast<size_t>(id)];
        if (!ch.live)
            continue;
        if (ch.nodes.empty())
            fail("chain " + std::to_string(id) + " has no nodes");
        if (ch.frontSeq != ch.nodes.front().seq)
            fail("chain " + std::to_string(id) +
                 " frontSeq out of date");
        {
            const auto &n = ch.nodes.front();
            if (n.rsIdx < 0 || n.rsIdx >= rs.capacity() ||
                !rs.at(n.rsIdx).valid || rs.at(n.rsIdx).seq != n.seq)
                fail("chain " + std::to_string(id) +
                     " front node is stale (untrimmed)");
        }
        std::array<int, kVecLanes> pending{};
        uint64_t prev_seq = 0;
        bool first = true;
        for (const auto &n : ch.nodes) {
            if (!first && n.seq <= prev_seq)
                fail("chain " + std::to_string(id) +
                     " nodes out of program order (cyclic forward)");
            prev_seq = n.seq;
            first = false;
            if (n.rsIdx < 0 || n.rsIdx >= rs.capacity())
                continue;
            const RsEntry &e = rs.at(n.rsIdx);
            if (!e.valid || e.seq != n.seq)
                continue; // released node, skipped by the walk
            if (rs_mark_[static_cast<size_t>(n.rsIdx)])
                fail("RS slot " + std::to_string(n.rsIdx) +
                     " appears in two chain nodes");
            rs_mark_[static_cast<size_t>(n.rsIdx)] = 1;
            if (e.chainId != id)
                fail("chain " + std::to_string(id) + " node seq " +
                     std::to_string(n.seq) +
                     " carries chainId " + std::to_string(e.chainId));
            if (!e.uop.isMixedPrecision())
                fail("FP32 VFMA linked into accumulator chain " +
                     std::to_string(id));
            if (!e.elmValid)
                continue;
            for (uint16_t m = mpAlMask(e.pendingMl); m;
                 m &= static_cast<uint16_t>(m - 1))
                ++pending[static_cast<size_t>(lowestSetBit(m))];
        }
        // The per-AL pending counts are kept by events (ELM up, AL
        // completion down); recount them here.
        uint16_t mask = 0;
        for (int al = 0; al < kVecLanes; ++al) {
            const int kept = ch.pendingNodes[static_cast<size_t>(al)];
            if (kept != pending[static_cast<size_t>(al)])
                fail("chain " + std::to_string(id) + " counts " +
                     std::to_string(kept) + " nodes pending on AL " +
                     std::to_string(al) + ", recount " +
                     std::to_string(pending[static_cast<size_t>(al)]));
            if (kept)
                mask |= static_cast<uint16_t>(1u << al);
        }
        if (ch.pendingAls != mask)
            fail("chain " + std::to_string(id) + " pending-AL mask " +
                 hex(ch.pendingAls) + " != its non-zero counts " +
                 hex(mask));
        // An AL has a base exactly when it has taken MLs, and each
        // take records a forward that lands half a VFMA latency out.
        const uint64_t reach = static_cast<uint64_t>(
            std::max(1, c_.fmaLatency(true) / 2));
        for (int al = 0; al < kVecLanes; ++al) {
            const uint64_t ready = ch.readyCycle[static_cast<size_t>(al)];
            if ((ready != 0) != (((ch.init >> al) & 1) != 0))
                fail("chain " + std::to_string(id) + " AL " +
                     std::to_string(al) + " has forward cycle " +
                     std::to_string(ready) + " but init mask " +
                     hex(ch.init));
            if (ready >= c_.cycle_ + reach)
                fail("chain " + std::to_string(id) + " AL " +
                     std::to_string(al) + " forward lands at cycle " +
                     std::to_string(ready) + ", beyond the forward "
                     "latency");
        }
    }
    // Every live mixed-precision entry must be linked into exactly the
    // chain it names, and that chain must be live.
    for (int idx = rs.first(); idx != Rs::kEnd; idx = rs.next(idx)) {
        const RsEntry &e = rs.at(idx);
        if (!e.uop.isMixedPrecision())
            continue;
        if (e.chainId < 0)
            fail("mixed-precision entry seq " + std::to_string(e.seq) +
                 " has no accumulator chain");
        if (!liveChain(e.chainId))
            fail("entry seq " + std::to_string(e.seq) +
                 " names free chain slot " + std::to_string(e.chainId));
        if (!rs_mark_[static_cast<size_t>(idx)])
            fail("entry seq " + std::to_string(e.seq) +
                 " missing from its chain's node list");
    }
}

void
Auditor::checkAfterSquash() const
{
    when_ = "post-squash";
    // The fault is taken at the ROB head, once everything older has
    // committed, so nothing in flight survives it (SecIII, SecV-B).
    auto empty = [&](bool is_empty, const char *what) {
        if (!is_empty)
            fail(std::string("the window is not empty after a squash: ") +
                 what + " still holds work");
    };
    for (const auto &ws : c_.reg_waiters_)
        empty(ws.empty(), "a register waiter list");
    for (const auto &v : c_.vpus)
        v.forEachInFlight([&](const LaneWrite &, uint64_t) {
            empty(false, "a VPU pipeline");
        });
    empty(c_.rob.empty(), "the ROB");
    empty(c_.rs.size() == 0, "the RS");
    empty(c_.baseline_ready_.empty(), "the baseline ready queue");
    empty(c_.load_count_ == 0, "the load queue");
    empty(c_.events_.empty(), "the event heap");
    empty(c_.pub_count_ == 0, "the publish ring");
    empty(c_.load_ring_count_ == 0, "the load ring");
    empty(c_.pending_stores_.empty(), "the pending-store list");
    empty(c_.inflight_store_lines_.empty(), "the in-flight store-line list");
    empty(c_.sched_->chain_head_ < 0 && c_.sched_->chain_tail_ < 0,
          "the accumulator chain order");
    empty(c_.sched_->cw_ == 0, "the combination-window count");
    check("post-squash");
}

} // namespace save
