/**
 * @file
 * Parent-side handle for one sandboxed slice worker process.
 *
 * A Worker owns the lifecycle of one `save-worker` child: fork/exec
 * with request/response pipes on the child's stdin/stdout, the HELO
 * handshake that ships the RSS cap, per-slice request/response
 * exchange with a parent-enforced wall-clock
 * deadline (SIGKILL on expiry — the only cure for a livelocked host
 * loop that the in-process retirement watchdog cannot see), and
 * exit-status triage when the child dies: clean error frames,
 * termination signals, deadline kills, and OOM-style deaths are told
 * apart and thrown as WorkerError with the matching kind.
 *
 * Workers spawn lazily and keep per-slot respawn state (consecutive
 * crash count) so the pool's exponential backoff is per-slot, not
 * global. See worker_pool.h for the pool policy on top.
 */

#ifndef SAVE_PROC_WORKER_H
#define SAVE_PROC_WORKER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <sys/types.h>

#include "proc/wire_codec.h"
#include "util/error.h"

namespace save {

/**
 * Resolve the save-worker binary path: `explicit_path` if non-empty,
 * else the SAVE_WORKER_BIN environment variable, else a `save-worker`
 * sibling of the running executable, else `../bench/save-worker`
 * relative to it (tests live in build/tests, the worker in
 * build/bench). Throws ConfigError when nothing executable is found.
 */
std::string resolveWorkerBin(const std::string &explicit_path);

/** One child process slot. Not thread-safe: the pool checks a Worker
 *  out to exactly one thread at a time. The single exception is
 *  interrupt(), which only signals the child and may be called from
 *  any thread (pool degradation/shutdown). */
class Worker
{
  public:
    /** `rss_cap_mb` is the RLIMIT_AS cap every (re)spawn's HELO
     *  ships; `worker_bin` must already be resolved. */
    Worker(int id, std::string worker_bin, int rss_cap_mb);
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /**
     * Run one request, spawning (or respawning) the child first if
     * needed. `attempt` is the parent's 1-based retry attempt, which
     * workers feed to the stateless fault injector. Throws:
     *  - WorkerError (Crash/Timeout/Oom/Exit/Protocol/Spawn) when the
     *    process misbehaved — the caller should count it as a crash;
     *  - the rethrown taxonomy error when the worker sent a clean ERR
     *    frame (the child is still healthy and stays running).
     */
    CasValue run(const SliceRequest &r, int attempt, int timeout_ms);

    /** True while a child is believed alive. */
    bool alive() const { return pid() > 0; }
    pid_t pid() const
    {
        return pid_.load(std::memory_order_relaxed);
    }
    int id() const { return id_; }

    /** Slices completed by the current child (recycling counter). */
    int slicesDone() const { return slices_done_; }

    /** Consecutive process-level failures; reset by any success. */
    int consecutiveCrashes() const { return consecutive_crashes_; }

    /** Ask a live child to drain: BYE, bounded wait, then SIGKILL. */
    void shutdown();

    /** SIGKILL + reap immediately (deadline expiry, pool drain).
     *  Owner-only: closes the pipe fds. */
    void kill();

    /**
     * SIGKILL the child without touching fds or reaping — the only
     * member safe to call from a thread that does NOT own this
     * Worker. The owning thread (blocked in run()) observes EOF on
     * the pipe and does the close/reap in its own error path.
     */
    void interrupt();

  private:
    /** Fork/exec + HELO/HACK handshake. Throws WorkerError(Spawn). */
    void spawn();

    /** Reap the child and build the triage message for `verb`. */
    WorkerError triageDeath(const char *verb, bool killed_by_parent);

    int id_;
    std::string bin_;
    int rss_cap_mb_;

    /** Atomic so interrupt() can read it from a foreign thread while
     *  the owner respawns or reaps; all writes stay owner-only. */
    std::atomic<pid_t> pid_{-1};
    int to_child_ = -1;   ///< parent write end -> child stdin
    int from_child_ = -1; ///< parent read end <- child stdout
    int slices_done_ = 0;
    int consecutive_crashes_ = 0;
};

} // namespace save

#endif // SAVE_PROC_WORKER_H
