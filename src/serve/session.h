/**
 * @file
 * SimSession: the reentrant library facade over the simulation engine
 * and the whole-network estimator (DESIGN.md §14).
 *
 * A session owns everything one independent simulation context needs
 * — machine/feature configs, a RuntimeOptions snapshot, a thread-pool
 * handle, a ResultStore handle, and the one SliceProducer (with its
 * worker pool) that produces every slice of the session — and touches
 * no mutable process globals: every environment knob is read exactly
 * once, into the RuntimeOptions snapshot captured at session creation
 * (or injected by the caller). That makes N sessions in one process safe to drive
 * concurrently with different settings, which is exactly what the
 * save-serve daemon does: one session per serve worker, all sharing
 * one ThreadPool and one content-addressed store.
 *
 * It is the only way a sweep point (sweep/sweep.h) reaches the
 * engine: runPoint runs one point of a SweepSpec, and the point
 * reaches the producer through runGemm and the Fig. 14 estimator
 * through estimator(). Every backend of the shard coordinator and
 * every daemon computes a point here, so a point's value cannot
 * depend on where it ran.
 */

#ifndef SAVE_SERVE_SESSION_H
#define SAVE_SERVE_SESSION_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/fig14_report.h"
#include "engine/engine.h"
#include "sweep/sweep.h"
#include "util/runtime_options.h"
#include "util/thread_pool.h"

namespace save {

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
        /** Slice retries, fail-fast and the sandbox worker knobs of
         *  the session's producer (EstimatorOptions fields of the
         *  same names). proc.workers == 0 matches the fan-out; the
         *  worker binary is runtime.workerBin. */
        int maxRetries = 2;
        bool failFast = false;
        ProcOptions proc{};
        /** Borrowed handles (must outlive the session); null = the
         *  session creates its own from `runtime`. */
        ThreadPool *sharedPool = nullptr;
        ResultStore *sharedStore = nullptr;
    };

    /** Throws ConfigError on a bad isolation mode, a missing worker
     *  binary under process isolation, or SAVE_FAULT_INJECT process
     *  faults without it (SliceProducer). */
    explicit SimSession(Options opt);
    ~SimSession();

    SimSession(const SimSession &) = delete;
    SimSession &operator=(const SimSession &) = delete;

    const MachineConfig &machine() const { return opt_.mcfg; }
    const SaveConfig &save() const { return opt_.scfg; }
    const RuntimeOptions &runtime() const { return opt_.runtime; }

    /**
     * Point `index` of `spec` at `knobs`: the unit of work of every
     * sweep backend. Throws ConfigError on a bad knob or an index
     * outside spec.points(knobs). Throws SimError when the result is
     * not spec.width values, or holds a NaN — the marker of a slice
     * that failed permanently — naming the point, so a failed point is
     * never taken for a result. The failed slices themselves are in
     * failureReport() and the log.
     */
    std::vector<double> runPoint(const SweepSpec &spec,
                                 const SweepKnobs &knobs, size_t index);

    /**
     * Engine::runGemm on `r`: read from the store, or on a miss
     * through the session's producer, which runs it under the
     * session's isolation and retry policy and stores it. A slice that
     * failed permanently comes back with a NaN time (runPoint reports
     * it); a request the engine refuses throws ConfigError.
     */
    KernelResult runGemm(const SliceRequest &r);

    /** The session's whole-network estimator for `knobs` (one per knob
     *  tuple, so repeat points reuse its in-memory surfaces on top of
     *  the store). */
    TrainingEstimator &estimator(const SweepKnobs &knobs);

    /** Slice simulations actually executed by this session (store
     *  misses): every estimator's plus runGemm's. */
    uint64_t simulations() const;

    /** The producer's failure and worker-pool report; empty when
     *  clean. */
    std::string failureReport() const;

    /** "<slice>: <last error> (<n> attempts)" of `r`'s slice if it
     *  failed for good in this session; empty otherwise. */
    std::string sliceFailure(const SliceRequest &r) const;

    /** The session's store (shared or owned; never null). */
    const ResultStore *resultStore() const { return store_; }

  private:
    Options opt_;

    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool *pool_ = nullptr;

    std::unique_ptr<ResultStore> owned_store_;
    ResultStore *store_ = nullptr;

    std::unique_ptr<SliceProducer> producer_;
    std::atomic<uint64_t> gemmSims_{0};

    /** Estimators keyed by the sweep-knob tuple; guarded by mu_. */
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<TrainingEstimator>> estimators_;
};

} // namespace save

#endif // SAVE_SERVE_SESSION_H
