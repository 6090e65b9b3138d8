/**
 * @file
 * SliceProducer: the one path from a SliceRequest to its stored record
 * (DESIGN.md §5, §12, §13). Every slice of a sweep, of the estimator
 * and of a served request takes it, so `--isolation`, `--max-retries`
 * and SAVE_FAULT_INJECT mean the same thing for each of them.
 */

#ifndef SAVE_PROC_SLICE_PRODUCER_H
#define SAVE_PROC_SLICE_PRODUCER_H

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cache/result_store.h"
#include "kernels/gemm.h"
#include "proc/worker_pool.h"

namespace save {

/** One permanently failed slice (all retries exhausted). */
struct SliceFailure
{
    std::string point;  ///< e.g. "slice mr=4 nr=6 ... vpus=2 save=1"
    std::string reason; ///< what() of the final attempt's exception
    int attempts = 0;   ///< 1 + retries
};

class SliceProducer
{
  public:
    /** The slice data of requests that differ only in machine,
     *  features and VPUs. The first in-process run fills it, each run
     *  simulates its own copy (a run writes C), and the last of its
     *  `users` to leave() drops it. */
    struct Fill
    {
        std::mutex mu;
        int users = 0;
        MemoryImage image;
        std::vector<GemmWorkload> work; ///< per core; empty until filled

        void leave();
    };

    /**
     * `store` must outlive the producer. `isolation` is a resolved
     * mode ("none", "thread" or "process"); under "process" the
     * producer owns a WorkerPool built from `proc` (proc.workers must
     * be resolved). Throws ConfigError when SAVE_FAULT_INJECT arms a
     * crash/abort/hang/oom mode without process isolation: a raised
     * SIGSEGV in-process would take the whole sweep down.
     */
    SliceProducer(ResultStore &store, std::string isolation,
                  int max_retries, bool fail_fast, const ProcOptions &proc);
    ~SliceProducer();

    SliceProducer(const SliceProducer &) = delete;
    SliceProducer &operator=(const SliceProducer &) = delete;

    /**
     * The record of `r`. The owner of the slice's flight reads the
     * store and, on a miss, runs the slice — in a worker under process
     * isolation until the pool degrades, else in-process, on a copy of
     * `fill`'s data when it is non-null — with up to `max_retries`
     * retries, and inserts a finite result, counting it in `sims`. A
     * follower waits for the owner's insert. A slice that fails every
     * attempt is recorded in failures() once and comes back with a NaN
     * time, now and on every later call, without running again —
     * unless fail-fast, which rethrows. A ConfigError (a request the
     * engine refuses) is rethrown at once, never retried or recorded.
     */
    CasValue produce(const SliceRequest &r, std::atomic<uint64_t> &sims,
                     Fill *fill = nullptr);

    ResultStore &store() const { return store_; }
    const std::string &isolation() const { return isolation_; }

    /** The worker pool; null unless isolation() == "process". */
    WorkerPool *pool() const { return pool_.get(); }

    std::vector<SliceFailure> failures() const;

    /** Multi-line report of all failures; empty string when clean.
     *  Includes the worker-pool status once any worker crashed. */
    std::string failureReport() const;

  private:
    CasValue runWithRetry(const SliceRequest &r, const CasKey &key,
                          Fill *fill);
    CasValue runOnce(const SliceRequest &r, int attempt, Fill *fill);

    ResultStore &store_;
    std::string isolation_;
    int max_retries_;
    bool fail_fast_;
    std::unique_ptr<WorkerPool> pool_;

    mutable std::mutex failures_mu_;
    std::vector<SliceFailure> failures_;
    std::set<CasKey> failed_; ///< the keys of failures_
};

} // namespace save

#endif // SAVE_PROC_SLICE_PRODUCER_H
