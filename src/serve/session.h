/**
 * @file
 * SimSession: the reentrant library facade over the simulation engine
 * and the whole-network estimator (DESIGN.md §14).
 *
 * A session owns everything one independent simulation context needs
 * — machine/feature configs, a RuntimeOptions snapshot, a thread-pool
 * handle, and a ResultStore handle — and touches no mutable process
 * globals: every environment knob is read exactly once, into the
 * RuntimeOptions snapshot captured at session creation (or injected
 * by the caller). That makes N sessions in one process safe to drive
 * concurrently with different settings, which is exactly what the
 * save-serve daemon does: one session per serve worker, all sharing
 * one ThreadPool and one content-addressed store.
 *
 * Results are bit-identical to the standalone benches by
 * construction:
 *  - runGemm is the benches' own memoRunGemm (engine/engine.h), so a
 *    repeat slice — served or benched — is answered from the shared
 *    store in O(1) without re-simulating;
 *  - runFig14Point evaluates one point of the fig14Points()
 *    enumeration with the same estimator arithmetic as `bench_fig14`;
 *    the caller renders the acked points through the shared
 *    dnn/fig14_report.h renderer.
 */

#ifndef SAVE_SERVE_SESSION_H
#define SAVE_SERVE_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/fig14_report.h"
#include "engine/engine.h"
#include "util/runtime_options.h"
#include "util/thread_pool.h"

namespace save {

/** Fig. 14 sweep knobs a session caller can vary per request.
 *  Defaults match bench_fig14 (grid=3 quick sampling). Threads and
 *  isolation are the session's own. Trivially copyable: travels as
 *  raw bytes in the serve protocol. */
struct Fig14Knobs
{
    int32_t gridStep = 3;
    int32_t kSteps = 192;
    int32_t tiles = 6;
    int32_t cores = 1;
    uint64_t seed = 7;
};

class SimSession
{
  public:
    struct Options
    {
        MachineConfig mcfg{};
        SaveConfig scfg{};
        /** Environment snapshot; callers override fields explicitly.
         *  The session never consults getenv after construction. */
        RuntimeOptions runtime{};
        /** Borrowed handles (must outlive the session); null = the
         *  session creates its own from `runtime`. */
        ThreadPool *sharedPool = nullptr;
        ResultStore *sharedStore = nullptr;
    };

    explicit SimSession(Options opt);
    ~SimSession();

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    const MachineConfig &machine() const { return opt_.mcfg; }
    const SaveConfig &save() const { return opt_.scfg; }
    const RuntimeOptions &runtime() const { return opt_.runtime; }

    /**
     * One GEMM slice simulation through memoRunGemm: a slice the
     * benches (or a previous request) already ran is answered from
     * the store without re-simulating.
     */
    KernelResult runGemm(const GemmConfig &g, int cores, int vpus);

    /**
     * One Fig. 14 sweep point by canonical index (fig14Points()
     * order) — the unit of work of a Fig14 request. Identical
     * arithmetic to the same point inside bench_fig14, so a remotely
     * computed point is bit-identical to the single-host bench's.
     * Estimators are cached per knob tuple, so repeat requests reuse
     * warm in-memory surfaces on top of the persistent store. Throws
     * ConfigError on a bad index.
     */
    NetResult runFig14Point(const Fig14Knobs &knobs, int index);

    /** Slice simulations actually executed across all estimators this
     *  session created (store misses). */
    uint64_t simulations() const;

    /** Permanently failed slice points across all estimators. */
    uint64_t sliceFailures() const;

    /** The session's store (shared or owned; never null). */
    const ResultStore *resultStore() const { return store_; }

  private:
    TrainingEstimator &estimatorFor(const Fig14Knobs &k);

    Options opt_;

    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool *pool_ = nullptr;

    std::unique_ptr<ResultStore> owned_store_;
    ResultStore *store_ = nullptr;

    /** Estimators keyed by the sweep-knob tuple; guarded by mu_. */
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<TrainingEstimator>> estimators_;
};

} // namespace save

#endif // SAVE_SERVE_SESSION_H
