/**
 * @file
 * Crash-containing pool of sandboxed slice worker processes.
 *
 * The pool owns a fixed set of Worker slots and hands slices to them
 * under a mutex/condvar checkout: a calling thread grabs a free slot,
 * waits out that slot's respawn backoff if one is pending, runs the
 * slice, and returns the slot. Policy layered on top of Worker:
 *
 *  - per-slot exponential backoff with jitter between respawns, so a
 *    worker crashing in a tight loop does not busy-spin fork();
 *  - bounded recycling: after `maxSlicesPerWorker` slices a child is
 *    drained (BYE) and the next slice gets a fresh process, putting a
 *    ceiling on leak accumulation;
 *  - graceful degradation: once the pool-wide process-failure count
 *    reaches `maxWorkerCrashes` the pool drains every child and
 *    refuses further slices with WorkerError; the slice producer
 *    (proc/slice_producer.h) then falls back to in-process execution
 *    and keeps the sweep alive.
 *
 * Clean ERR frames (taxonomy errors raised inside a healthy worker)
 * pass through without touching the crash budget — only process-level
 * misbehavior (signals, deadline kills, OOM deaths, protocol
 * corruption, spawn failures) counts.
 */

#ifndef SAVE_PROC_WORKER_POOL_H
#define SAVE_PROC_WORKER_POOL_H

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "proc/worker.h"

namespace save {

/** Knobs for process-isolated slice execution. */
struct ProcOptions
{
    /** Worker process count; 0 means "match the simulation thread
     *  count" (filled in by the pool's owner). */
    int workers = 0;
    /** Per-slice wall-clock deadline; expiry SIGKILLs the worker. */
    int sliceTimeoutMs = 30000;
    /** Pool-wide process-failure budget before degrading to
     *  in-process execution. */
    int maxWorkerCrashes = 8;
    /** Recycle a worker after this many slices; 0 = never. */
    int maxSlicesPerWorker = 0;
    /** RLIMIT_AS cap applied inside each worker, MB; 0 = none. */
    int rssCapMb = 0;
    /** Respawn backoff: base doubles per consecutive crash, capped. */
    int backoffBaseMs = 50;
    int backoffMaxMs = 2000;
    /** Explicit worker binary; empty = resolveWorkerBin() search. */
    std::string workerBin;

    /** Throws ConfigError on out-of-range values. */
    void validate() const;
};

/** The estimator context runSlice(const SliceKey &) maps a surface
 *  point with (sliceRequest). The name is kept for perfbench. */
struct WireSessionInit
{
    MachineConfig mcfg;
    SaveConfig scfg; ///< the SAVE-on feature set
    int tiles = 1;
    int cores = 1;
    uint64_t seed = 0;
};

class WorkerPool
{
  public:
    /**
     * Resolves the worker binary eagerly (ConfigError if missing) and
     * ignores SIGPIPE process-wide so dead-pipe writes surface as
     * EPIPE. Children spawn lazily on first use of each slot. `init`
     * serves runSlice(const SliceKey &) only.
     */
    explicit WorkerPool(ProcOptions opts, WireSessionInit init = {});
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run one request in a worker process; `attempt` (1-based) feeds
     * the worker's fault injector. Blocks while all slots are busy or
     * backing off. Throws the rethrown taxonomy error for clean ERR
     * frames (no crash charged), or WorkerError when the process
     * misbehaved (one crash charged; the slot backs off). After
     * degradation every call throws WorkerError immediately.
     */
    CasValue run(const SliceRequest &r, int attempt);

    /** run() on the slice `key` names in the constructor's
     *  WireSessionInit; the key hash is unused. Kept for perfbench. */
    CasValue runSlice(const SliceKey &key, uint64_t key_hash, int attempt);

    /** True once the crash budget is spent and the pool has drained. */
    bool degraded() const;

    /** Drain all workers (BYE + bounded wait + SIGKILL). Idempotent. */
    void shutdown();

    int workerCount() const { return static_cast<int>(slots_.size()); }
    int crashes() const;
    uint64_t slicesRun() const;
    int respawns() const;

    /** Human-readable status block for failure reports. */
    std::string report() const;

  private:
    struct Slot
    {
        std::unique_ptr<Worker> worker;
        bool busy = false;
        /** Respawn backoff gate; checkout waits until it passes. */
        std::chrono::steady_clock::time_point notBefore =
            std::chrono::steady_clock::time_point::min();
    };

    /** Index of a checked-out slot; blocks on the condvar. */
    int checkout();
    void release(int idx, bool crashed);

    ProcOptions opts_;
    WireSessionInit init_;
    std::string bin_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Slot> slots_;
    bool degraded_ = false;
    bool shut_down_ = false;
    int crashes_ = 0;
    int respawns_ = 0;
    uint64_t slices_run_ = 0;
};

} // namespace save

#endif // SAVE_PROC_WORKER_POOL_H
