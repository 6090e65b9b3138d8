/**
 * @file
 * ShardCoordinator: distributed Fig. 14 sweeps over a mixed backend
 * set (DESIGN.md §15).
 *
 * The coordinator carves the canonical fig14Points() enumeration into
 * point jobs and dispatches them across every backend it is given:
 *
 *  - in-process lanes: N threads over ONE shared SimSession (shared
 *    ThreadPool + content-addressed ResultStore), each claiming one
 *    point at a time;
 *  - remote save-serve daemons: one dialer thread per socket,
 *    claiming one point at a time and shipping it as a protocol-v2
 *    SSHD job; its SPRG ack completes the point.
 *
 * Every backend claims its next point only when it is free, so no
 * point waits on a busy daemon while another backend sits idle.
 *
 * Correctness invariant — the merged report is byte-identical to
 * `bench_fig14` stdout for any shard count, backend mix, and fault
 * schedule — holds by construction, not by care:
 *
 *  - every backend computes a point with the same arithmetic (the
 *    same estimator pipeline behind SimSession::runFig14Point, seeded
 *    workloads, -ffp-contract=off everywhere), so WHO computes a
 *    point cannot change its value;
 *  - the report is rendered by the one shared dnn/fig14_report.h
 *    renderer, which walks points in config-key order and pulls each
 *    result from the coordinator's completed map — arrival order
 *    never touches the output.
 *
 * Fault policy (the PR-7 triage taxonomy, applied per dispatch):
 *  - ConfigError (local or a remote Config-kind SERR) is fatal: the
 *    sweep itself is misconfigured, every backend would fail alike;
 *  - any other failure re-queues the unfinished points, with a
 *    bounded per-point dispatch budget (`maxAttempts`); past it the
 *    point is recorded as a permanent failure and yields a
 *    value-initialized result, exactly like the single-host
 *    SweepRunner, so the rest of the sweep still completes;
 *  - a daemon that fails `kMaxBackendFaults` consecutive dispatches
 *    (or speaks protocol v1 — no SSHD) is excluded with a warning:
 *    graceful degradation to the remaining backends;
 *  - a straggler (a dispatched point older than `stragglerMs`) is
 *    speculatively re-dispatched to any idle backend; the first
 *    completion wins and the duplicate is discarded (results are
 *    bit-identical, so the race is benign).
 *
 * Crash resume: every backend persists each slice in the shared
 * content-addressed store as it completes. A coordinator killed
 * mid-sweep resumes by rerunning the same command against the same
 * store: stored slices are served, not simulated, and the dead run's
 * flight locks free themselves (cache/result_store.h).
 */

#ifndef SAVE_SHARD_COORDINATOR_H
#define SAVE_SHARD_COORDINATOR_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/result_store.h"
#include "serve/session.h"
#include "util/runtime_options.h"
#include "util/thread_pool.h"

namespace save {

class ShardCoordinator
{
  public:
    /** Consecutive failed dispatches before a daemon is excluded. */
    static constexpr int kMaxBackendFaults = 3;

    struct Options
    {
        /** Remote save-serve sockets (may be empty). */
        std::vector<std::string> sockets;
        /** In-process lanes over one shared SimSession; with 0 the
         *  run depends entirely on the daemons. */
        int inprocLanes = 1;
        /** Per-point dispatch budget before a permanent failure. */
        int maxAttempts = 3;
        /** Speculatively re-dispatch a point in flight longer than
         *  this; 0 disables straggler rebalance. */
        int stragglerMs = 0;
        /** Per-frame RPC read deadline (resets at each ack). */
        int rpcTimeoutMs = 120000;

        Fig14Knobs knobs{};
        MachineConfig mcfg{};
        SaveConfig scfg{};
        /** Environment snapshot (threads, cache dir, worker bin). */
        RuntimeOptions runtime{};
    };

    struct PermanentFailure
    {
        std::string key;
        std::string reason;
        int attempts = 0;
    };

    struct Stats
    {
        size_t computed = 0;   ///< points computed by backends
        size_t dispatches = 0; ///< points claimed (all backends)
        size_t requeues = 0;   ///< points re-queued after a fault
        size_t speculative = 0; ///< straggler re-dispatches
        size_t backendsExcluded = 0;
        std::vector<PermanentFailure> failures;
    };

    explicit ShardCoordinator(Options opt);
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    /**
     * Run the sweep to completion and return the merged report —
     * byte-identical to `bench_fig14` stdout for the same knobs.
     * Throws ConfigError for a misconfigured sweep, SimError when
     * every backend is lost with points outstanding.
     */
    std::string run();

    const Stats &stats() const { return stats_; }

    /** The in-process store (for --cache-stats); null when the run
     *  has no in-process lanes. */
    const ResultStore *resultStore() const;

  private:
    enum class PointPhase : uint8_t
    {
        Pending,
        InFlight,
        Done,
    };

    struct Point
    {
        PointPhase phase = PointPhase::Pending;
        int attempts = 0;
        uint64_t dispatchNs = 0;
        bool failed = false;
        NetResult result{};
    };

    /** Claim one point (pending first, then a straggler). Blocks
     *  until something is claimable, every point is done, or the run
     *  turned fatal; nullopt means "stop". */
    std::optional<uint32_t> claim();
    void complete(uint32_t idx, const NetResult &r);
    /** Re-queue after a fault; past the attempt budget the point is
     *  finished as a permanent failure. */
    void requeueFailure(uint32_t idx, const std::string &reason);
    void requeue(uint32_t idx);
    void setFatal(const std::string &msg);
    /** A backend is gone; with none left and work outstanding the
     *  run turns fatal instead of hanging. */
    void backendLost(const std::string &who, const std::string &why);

    void inprocLane(int lane);
    void daemonLane(const std::string &socket);

    Options opt_;

    /** One shared session for every in-process lane (it is reentrant
     *  and owns the pool + store); null when inprocLanes == 0. */
    std::unique_ptr<SimSession> session_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Point> points_;
    size_t remaining_ = 0;
    int activeBackends_ = 0;
    bool fatal_ = false;
    bool fatalIsConfig_ = false;
    std::string fatalMsg_;

    Stats stats_;
};

/** Parse a comma-separated socket list ("a.sock,b.sock"). */
std::vector<std::string> shardParseSockets(const std::string &list);

} // namespace save

#endif // SAVE_SHARD_COORDINATOR_H
