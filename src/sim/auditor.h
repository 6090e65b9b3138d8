/**
 * @file
 * Cycle-granular pipeline invariant auditor (built with
 * -DSAVE_AUDIT=ON; the core's hooks compile away entirely otherwise).
 *
 * After every stepped cycle (and after every squash) the auditor
 * cross-checks the core's redundant structures against each other:
 * ROB/RS/free-list/rename-map consistency, the intrusive RS age and
 * scheduler sublists, every in-flight writeback target (publish ring,
 * event heap, VPU pipelines, load queue), the register-wakeup waiter
 * lists, and the SAVE-specific state — ELM effectualness against the
 * actual operand values (paper SecIII), the pending/pass/scheduled
 * lane-set algebra, lane-wise dependence order (SecIV-C / Alg. 1), and
 * the mixed-precision accumulator chains (SecV). A violation throws
 * AuditError carrying the same pipeline snapshot the deadlock watchdog
 * produces, so a failing fuzz case or test names the broken invariant
 * and the state it broke in.
 *
 * Runtime control:
 *   SAVE_AUDIT=0         disable entirely (no Auditor is constructed).
 *   SAVE_AUDIT_STRIDE=n  audit every n-th cycle only (squash checks
 *                        always run); default 1.
 */

#ifndef SAVE_SIM_AUDITOR_H
#define SAVE_SIM_AUDITOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace save {

class Core;
class Rs;

/** Invariant checker bound to one core (friend of Core and
 *  VectorScheduler; strictly read-only). */
class Auditor
{
  public:
    explicit Auditor(Core &core);

    /** Full invariant sweep; throws AuditError on the first violation.
     *  `when` tags the failure message ("cycle", "post-squash", ...). */
    void check(const char *when) const;

    /** Squash-specific sweep: the whole window is empty (ROB, RS,
     *  waiters, ready and load queues, events, both rings, VPU writes,
     *  store lists, chains and the CW count), then a full check. */
    void checkAfterSquash() const;

    /** Stride gate (SAVE_AUDIT_STRIDE). */
    bool
    due(uint64_t cycle) const
    {
        return stride_ <= 1 || cycle % stride_ == 0;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const;

    void checkRob() const;
    void checkRsLists() const;
    /** One age-ordered RS list (`first`/`next`) holds exactly the
     *  live entries that satisfy `member`. */
    template <typename Member>
    void checkRsList(const char *name, int first, int (Rs::*next)(int)
                     const, int count, Member member) const;
    void checkRobRsLink() const;
    void checkPrf() const;
    void checkWaiters() const;
    void checkBaselineReady() const;
    void checkEventTargets() const;
    void checkSaveState() const;
    void checkCombinationWindow() const;
    void checkLaneOrder() const;
    void checkChains() const;

    Core &c_;
    uint64_t stride_ = 1;
    mutable const char *when_ = "audit";

    /** Reusable scratch (the auditor runs every cycle in Debug; no
     *  steady-state allocation). */
    mutable std::vector<uint8_t> free_bm_;   // per phys reg: on free list
    mutable std::vector<uint8_t> map_bm_;    // per phys reg: reachable
    mutable std::vector<uint8_t> rs_mark_;   // per RS slot
    mutable std::vector<uint8_t> lane_bm_;   // per (robIdx, lane)
    mutable std::vector<int> lane_count_;    // in-flight writes per robIdx
    mutable std::vector<int> rob_unsched_;   // RS-unscheduled lanes per robIdx
    mutable std::vector<uint8_t> chain_mark_; // per chain slot: free
};

} // namespace save

#endif // SAVE_SIM_AUDITOR_H
