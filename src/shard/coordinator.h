/**
 * @file
 * ShardCoordinator: the one driver of every sweep (DESIGN.md §15).
 *
 * The coordinator runs a SweepSpec (sweep/sweep.h) by carving its
 * canonical points(knobs) list into point jobs and dispatching them
 * across every backend it is given:
 *
 *  - in-process lanes: N threads over ONE shared SimSession (shared
 *    ThreadPool + content-addressed ResultStore), each claiming one
 *    point at a time;
 *  - remote save-serve daemons: one dialer thread per socket,
 *    claiming one point at a time and sending it as a one-point
 *    Sweep request; its SPRG ack completes the point.
 *
 * Every `bench_<sweep>` binary is this coordinator built from flags
 * (bench/bench_util.h, sweepMain): in-process lanes alone by default,
 * daemons too with --sockets.
 *
 * Every backend claims its next point only when it is free, so no
 * point waits on a busy daemon while another backend sits idle.
 *
 * Correctness invariant — the merged report is byte-identical to the
 * single-host run for any shard count, backend mix, and fault
 * schedule — holds by construction, not by care:
 *
 *  - every backend computes a point with the same arithmetic
 *    (SimSession::runPoint, seeded workloads, -ffp-contract=off
 *    everywhere), so WHO computes a point cannot change its value;
 *  - the report is rendered by the spec's one renderer from the
 *    results merged by point index — arrival order never touches the
 *    output.
 *
 * Fault policy (the error taxonomy of util/error.h, per dispatch):
 *  - ConfigError (local or a remote Config-kind SERR) is fatal: the
 *    sweep itself is misconfigured, every backend would fail alike;
 *  - any other failure re-queues the point, with a bounded per-point
 *    budget of maxRetries + 1 attempts; past it the point is recorded
 *    as a permanent failure and yields a value-initialized result, so
 *    the rest of the sweep still completes — or, under failFast, the
 *    run ends with that point's error. A point whose slice failed for
 *    good fails in SimSession::runPoint, and an ack that does not
 *    carry the spec's width of values fails the attempt too;
 *  - a dispatch that never reached its daemon (the connect failed)
 *    hands the point back without charging an attempt, as a
 *    load-shed does: a dead daemon must not use up the budget of
 *    points a live backend could compute;
 *  - a daemon that fails `kMaxBackendFaults` consecutive dispatches
 *    (unreachable ones included), or whose status reports another
 *    protocol version, is excluded with a warning: graceful
 *    degradation to the remaining backends;
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
#include "sweep/sweep.h"
#include "util/runtime_options.h"

namespace save {

class ShardCoordinator
{
  public:
    /** Consecutive failed dispatches before a daemon is excluded. */
    static constexpr int kMaxBackendFaults = 3;

    struct Options
    {
        /** The sweep to run (sweep/sweep.h). */
        std::string sweep = "fig14";
        /** Remote save-serve sockets (may be empty). */
        std::vector<std::string> sockets;
        /** In-process lanes over one shared SimSession; with 0 the
         *  run depends entirely on the daemons. */
        int inprocLanes = 1;
        /** Retries of a failed point (attempts = retries + 1); the
         *  in-process session retries each failed slice as often. */
        int maxRetries = 2;
        /** End the run with the error of the first point to use up
         *  its attempts (and fail a slice's point at its first
         *  permanent failure). */
        bool failFast = false;
        /** Speculatively re-dispatch a point in flight longer than
         *  this; 0 disables straggler rebalance. */
        int stragglerMs = 0;
        /** Per-frame RPC read deadline (resets at each ack). */
        int rpcTimeoutMs = 120000;

        SweepKnobs knobs{};
        /** Environment snapshot (threads, cache dir, worker bin). */
        RuntimeOptions runtime{};
        /** Sandbox worker knobs of the in-process session. */
        ProcOptions proc{};
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

    /** Throws ConfigError for an unknown sweep, a bad knob, or no
     *  backend at all. */
    explicit ShardCoordinator(Options opt);
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    /**
     * Run the sweep to completion and return the merged report —
     * byte-identical to the single-host run for the same knobs.
     * Throws ConfigError for a misconfigured sweep, SimError when
     * every backend is lost with points outstanding or, under
     * failFast, when a point fails for good.
     */
    std::string run();

    const Stats &stats() const { return stats_; }

    /** The in-process session (for its counters and failure report);
     *  null when the run has no in-process lanes. */
    const SimSession *session() const { return session_.get(); }

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
        std::vector<double> result;
    };

    /** Claim one point (pending first, then a straggler). Blocks
     *  until something is claimable, every point is done, or the run
     *  turned fatal; nullopt means "stop". */
    std::optional<uint32_t> claim();
    void complete(uint32_t idx, const std::vector<double> &values);
    /** Re-queue after a fault; past the attempt budget the point is
     *  finished as a permanent failure. */
    void requeueFailure(uint32_t idx, const std::string &reason);
    /** Hand back a point no backend worked on, uncharged. */
    void requeue(uint32_t idx);
    void setFatal(const std::string &msg, bool config);
    /** A backend is gone; with none left and work outstanding the
     *  run turns fatal instead of hanging. */
    void backendLost(const std::string &who, const std::string &why);

    void inprocLane();
    void daemonLane(const std::string &socket);

    Options opt_;
    const SweepSpec &spec_;
    std::vector<std::string> keys_;

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
