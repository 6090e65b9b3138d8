#include "proc/worker.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/error.h"
#include "util/logging.h"
#include "util/posix_io.h"
#include "util/runtime_options.h"

namespace save {

namespace {

/** Handshake allowance: generous, but bounded — a worker that cannot
 *  say HACK within this window is wedged or not our binary. */
constexpr int kHandshakeTimeoutMs = 15000;

bool
executable(const std::string &path)
{
    return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

std::string
selfExeDir()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return std::filesystem::path(buf).parent_path().string();
}

} // namespace

std::string
resolveWorkerBin(const std::string &explicit_path)
{
    if (!explicit_path.empty()) {
        if (!executable(explicit_path))
            throw ConfigError("worker binary '" + explicit_path +
                              "' does not exist or is not executable");
        return explicit_path;
    }
    const std::string env = RuntimeOptions::fromEnv().workerBin;
    if (!env.empty()) {
        if (!executable(env))
            throw ConfigError("SAVE_WORKER_BIN='" + env +
                              "' does not exist or is not executable");
        return env;
    }
    std::string dir = selfExeDir();
    if (!dir.empty()) {
        for (const char *rel : {"/save-worker", "/../bench/save-worker"}) {
            std::string cand = dir + rel;
            if (executable(cand))
                return cand;
        }
    }
    throw ConfigError(
        "cannot locate the save-worker binary: pass --worker-bin=PATH "
        "or set SAVE_WORKER_BIN (expected a sibling of " +
        (dir.empty() ? std::string("the running executable") : dir) +
        " or ../bench/save-worker)");
}

Worker::Worker(int id, std::string worker_bin, int rss_cap_mb)
    : id_(id), bin_(std::move(worker_bin)), rss_cap_mb_(rss_cap_mb)
{
}

Worker::~Worker()
{
    shutdown();
}

void
Worker::spawn()
{
    // O_CLOEXEC: spawn() runs concurrently from several pool threads,
    // and a sibling slot forking between our pipe() and our
    // parent-side close would otherwise inherit from_child[1] across
    // its exec — keeping this worker's stdout pipe open so the parent
    // never sees EOF when the worker crashes, delaying crash
    // detection to the full slice deadline. dup2 in our own child
    // clears CLOEXEC on the stdin/stdout copies it needs.
    int to_child[2];   // parent writes -> child stdin
    int from_child[2]; // child stdout -> parent reads
    if (::pipe2(to_child, O_CLOEXEC) != 0)
        throw WorkerError(WorkerError::Kind::Spawn,
                          std::string("pipe: ") + std::strerror(errno));
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
        ::close(to_child[0]);
        ::close(to_child[1]);
        throw WorkerError(WorkerError::Kind::Spawn,
                          std::string("pipe: ") + std::strerror(errno));
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {to_child[0], to_child[1], from_child[0],
                       from_child[1]})
            ::close(fd);
        throw WorkerError(WorkerError::Kind::Spawn,
                          std::string("fork: ") + std::strerror(errno));
    }

    if (pid == 0) {
        // Child: requests on stdin, responses on stdout, logs on the
        // inherited stderr.
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        for (int fd : {to_child[0], to_child[1], from_child[0],
                       from_child[1]})
            ::close(fd);
        ::execl(bin_.c_str(), bin_.c_str(), static_cast<char *>(nullptr));
        // exec failed: report on stderr and die with the shell's
        // convention for "command not runnable".
        std::fprintf(stderr, "save-worker: cannot exec %s: %s\n",
                     bin_.c_str(), std::strerror(errno));
        ::_exit(kWorkerExitExec);
    }

    // Parent.
    ::close(to_child[0]);
    ::close(from_child[1]);
    pid_ = pid;
    to_child_ = to_child[1];
    from_child_ = from_child[0];
    slices_done_ = 0;

    // Handshake: ship the RSS cap, wait for the ack.
    try {
        if (!frameWriteFd(to_child_, kWireHello, 0,
                          wireEncodeHello(rss_cap_mb_)))
            throw triageDeath("rejected the session hello", false);
        Frame ack;
        FrameRead st = wireRead(from_child_, ack, kHandshakeTimeoutMs);
        if (st == FrameRead::Timeout) {
            kill();
            throw WorkerError(WorkerError::Kind::Spawn,
                              "worker did not acknowledge the session "
                              "hello within " +
                                  std::to_string(kHandshakeTimeoutMs) +
                                  " ms");
        }
        if (st == FrameRead::Eof)
            throw triageDeath("died during the handshake", false);
        if (ack.fourcc == kWireError)
            wireThrowError(wireDecodeError(ack.payload));
        if (ack.fourcc != kWireHelloAck || ack.arg != kWireVersion) {
            kill();
            throw WorkerError(WorkerError::Kind::Spawn,
                              "unexpected handshake reply (protocol "
                              "mismatch?)");
        }
    } catch (const TraceError &e) {
        kill();
        throw WorkerError(WorkerError::Kind::Spawn,
                          std::string("handshake: ") + e.what());
    }
    SAVE_INFORM("worker slot ", id_, ": spawned pid ", pid, " (",
                bin_, ")");
}

CasValue
Worker::run(const SliceRequest &r, int attempt, int timeout_ms)
{
    if (!alive())
        spawn();

    if (!frameWriteFd(to_child_, kWireRequest,
                      static_cast<uint32_t>(attempt),
                      wireEncodeRequest(r)))
        throw triageDeath("is gone (request write failed)", false);

    Frame frame;
    FrameRead st;
    try {
        st = wireRead(from_child_, frame, timeout_ms);
    } catch (const TraceError &e) {
        // Corrupt frame: the stream is unusable; put the child down.
        kill();
        ++consecutive_crashes_;
        throw WorkerError(WorkerError::Kind::Protocol, e.what());
    }

    switch (st) {
    case FrameRead::Timeout: {
        kill();
        ++consecutive_crashes_;
        throw WorkerError(
            WorkerError::Kind::Timeout,
            "slice exceeded its " + std::to_string(timeout_ms) +
                " ms deadline; SIGKILLed worker slot " +
                std::to_string(id_));
    }
    case FrameRead::Eof:
        throw triageDeath("died mid-slice", false);
    case FrameRead::Ok:
        break;
    }

    if (frame.fourcc == kWireError) {
        WireErrorInfo err;
        try {
            err = wireDecodeError(frame.payload);
        } catch (const TraceError &e) {
            // Malformed ERR payload is protocol corruption, not a
            // clean in-worker failure: same treatment as a corrupt
            // result frame.
            kill();
            ++consecutive_crashes_;
            throw WorkerError(WorkerError::Kind::Protocol, e.what());
        }
        // Clean in-worker failure: the child survives and keeps its
        // slot; rethrow with the original taxonomy type.
        ++slices_done_;
        consecutive_crashes_ = 0;
        wireThrowError(err);
    }
    if (frame.fourcc != kWireResult) {
        kill();
        ++consecutive_crashes_;
        throw WorkerError(WorkerError::Kind::Protocol,
                          "unexpected frame kind in response");
    }
    CasValue res;
    try {
        const uint8_t *p = frame.payload.data();
        res = casDecodeValue(p, p + frame.payload.size());
    } catch (const TraceError &e) {
        kill();
        ++consecutive_crashes_;
        throw WorkerError(WorkerError::Kind::Protocol, e.what());
    }
    ++slices_done_;
    consecutive_crashes_ = 0;
    return res;
}

WorkerError
Worker::triageDeath(const char *verb, bool killed_by_parent)
{
    pid_t pid = pid_;
    int status = 0;
    if (pid > 0)
        ::waitpid(pid, &status, 0);
    // Close our pipe ends and mark the slot dead.
    if (to_child_ >= 0)
        ::close(to_child_);
    if (from_child_ >= 0)
        ::close(from_child_);
    to_child_ = from_child_ = -1;
    pid_ = -1;
    ++consecutive_crashes_;

    std::string what = "worker slot " + std::to_string(id_) + " (pid " +
                       std::to_string(pid) + ") " + verb;
    WorkerError::Kind kind = WorkerError::Kind::Crash;
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        what += ": killed by signal " + std::to_string(sig) + " (" +
                ::strsignal(sig) + ")";
        if (sig == SIGKILL && !killed_by_parent)
            // We did not send it: the kernel OOM killer (or an
            // operator) did. Either way memory/external pressure, not
            // a simulator bug.
            kind = WorkerError::Kind::Oom;
    } else if (WIFEXITED(status)) {
        int code = WEXITSTATUS(status);
        what += ": exited with status " + std::to_string(code);
        if (code == kWorkerExitOom) {
            kind = WorkerError::Kind::Oom;
            what += " (out of memory)";
        } else if (code == kWorkerExitExec) {
            kind = WorkerError::Kind::Spawn;
            what += " (cannot exec the worker binary)";
        } else {
            kind = WorkerError::Kind::Exit;
        }
    }
    return WorkerError(kind, what);
}

void
Worker::kill()
{
    pid_t pid = pid_.load(std::memory_order_relaxed);
    if (pid <= 0)
        return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (to_child_ >= 0)
        ::close(to_child_);
    if (from_child_ >= 0)
        ::close(from_child_);
    to_child_ = from_child_ = -1;
    pid_ = -1;
}

void
Worker::interrupt()
{
    // Foreign-thread path (pool degradation/shutdown): signal only.
    // No fd close, no reap — the owning thread is blocked reading the
    // pipe, observes EOF once the child dies, and runs triageDeath to
    // close and reap in its own error path.
    pid_t pid = pid_.load(std::memory_order_relaxed);
    if (pid > 0)
        ::kill(pid, SIGKILL);
}

void
Worker::shutdown()
{
    pid_t pid = pid_.load(std::memory_order_relaxed);
    if (pid <= 0)
        return;
    // Graceful: ask, give it a moment, then insist.
    frameWriteFd(to_child_, kWireBye, 0, {});
    ::close(to_child_);
    to_child_ = -1;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(500);
    for (;;) {
        int status = 0;
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD)) {
            pid_ = -1;
            break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            pid_ = -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (from_child_ >= 0)
        ::close(from_child_);
    from_child_ = -1;
}

} // namespace save
