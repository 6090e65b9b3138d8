/**
 * @file
 * The save-serve daemon: simulation-as-a-service over a Unix-domain
 * socket (DESIGN.md §14).
 *
 * One accept loop + N worker threads, each worker owning its own
 * SimSession (with its own slice producer and worker pool) while all
 * sessions share one ThreadPool and one content-addressed ResultStore:
 *
 *   accept -> read SREQ (2s deadline) -> control kinds answered
 *   inline; work kinds pass admission control: a bounded queue with
 *   three priority classes. A full queue sheds the request with a
 *   typed SBSY reply — the client never hangs on an overloaded
 *   daemon.
 *
 * Fault and lifetime policy:
 *  - per-request deadlines (ServeRequest::deadlineMs) checked at
 *    queue pop and before each sweep point (coarse: a single network
 *    evaluation is never interrupted mid-flight);
 *  - client disconnect aborts an in-flight sweep at the next point
 *    (EPIPE on the SPRG ack write, or a zero-byte MSG_PEEK);
 *  - slice-level faults stay contained by the session's slice
 *    producer (retries, NaN poisoning, the worker sandbox) for sweep
 *    points and Gemm requests alike — a crashing slice storm degrades
 *    that one request, not the daemon; a point or Gemm whose slice
 *    failed for good ends its request with an SERR naming it
 *    (SimSession::runPoint), never an ack;
 *  - a Sweep request with an unknown name, a bad knob or an index
 *    outside the sweep gets a Config SERR before any point runs;
 *  - SIGTERM/SIGINT (or a Drain request) drains gracefully: stop
 *    accepting, finish queued + in-flight work, exit 0;
 *  - SIGHUP re-reads the optional config file (queue_cap=N) and bumps
 *    the `reloads` status counter.
 *
 * A stale socket file (daemon died without unlinking) is detected by
 * probing it with connect(2): ECONNREFUSED means no listener owns it,
 * so it is unlinked and rebound; a live listener is a hard error.
 */

#ifndef SAVE_SERVE_SERVER_H
#define SAVE_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/session.h"

namespace save {

class ServeServer
{
  public:
    struct Options
    {
        /** Socket path; length-limited by sockaddr_un (~107 bytes). */
        std::string socketPath;
        /** Serve worker threads (each owns a SimSession). */
        int workers = 2;
        /** Admission-queue bound across all priority classes. */
        int queueCap = 8;
        MachineConfig mcfg{};
        SaveConfig scfg{};
        /** Environment snapshot taken by the caller (main). */
        RuntimeOptions runtime{};
        /** Optional key=value config file re-read on SIGHUP. */
        std::string configPath;
        /** Test hook: sleep this long before every sweep point, to
         *  fake a straggler backend (SAVE_SERVE_TEST_POINT_DELAY_MS).
         */
        int testPointDelayMs = 0;
    };

    /** Throws ConfigError on a bad option or session (SimSession). */
    explicit ServeServer(Options opt);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind, listen, serve until drained. Returns the process exit
     * code: 0 after a graceful drain (SIGTERM/SIGINT/Drain request).
     * Throws ConfigError for an unusable socket path or a live
     * daemon already bound to it.
     */
    int run();

    /** Ask the accept loop to drain (thread-safe; used by tests). */
    void requestDrain();

  private:
    struct Job
    {
        int fd = -1;
        ServeRequest req;
        /** CLOCK_MONOTONIC ns admission stamp; 0 deadline = none. */
        uint64_t admittedNs = 0;
    };

    int bindSocket();
    void acceptLoop(int listen_fd, int sig_fd);
    void handleConnection(int fd);
    void controlReply(int fd, const ServeRequest &req);
    ServeStatus statusSnapshot();
    void reloadConfig();

    void workerLoop(int index);
    void executeJob(SimSession &session, Job &job);
    void sendErrorReply(int fd, const std::exception &e);

    /** Pop the highest-priority job; blocks until one arrives or the
     *  drain completes (returns false). */
    bool popJob(Job &out);

    Options opt_;

    std::shared_ptr<ThreadPool> pool_;
    std::unique_ptr<ResultStore> store_;
    /** One per serve worker; declared after the pool and store they
     *  borrow, so they are destroyed first. */
    std::vector<std::unique_ptr<SimSession>> sessions_;

    std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<Job> queues_[3]; ///< indexed by ServePriority
    int queuedTotal_ = 0;

    std::atomic<bool> draining_{false};
    std::atomic<int> queueCap_{0};
    std::atomic<uint32_t> reloads_{0};
    std::atomic<uint32_t> active_{0};
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> errors_{0};

    std::vector<std::thread> workers_;
};

} // namespace save

#endif // SAVE_SERVE_SERVER_H
