#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "util/error.h"
#include "util/logging.h"
#include "util/posix_io.h"

namespace save {

namespace {

/** Self-pipe write end for the async-signal-safe handler. */
std::atomic<int> g_signal_wfd{-1};

void
onSignal(int sig)
{
    int fd = g_signal_wfd.load(std::memory_order_relaxed);
    if (fd < 0)
        return;
    unsigned char b = (sig == SIGHUP) ? 'H' : 'T';
    // Nonblocking pipe: a full pipe just drops the byte (the pending
    // one already wakes the accept loop).
    ssize_t r = ::write(fd, &b, 1);
    (void)r;
}

uint64_t
nowNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** True when the peer closed its end (a zero-byte MSG_PEEK). */
bool
clientGone(int fd)
{
    char b;
    ssize_t r = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    return r == 0;
}

} // namespace

ServeServer::ServeServer(Options opt) : opt_(std::move(opt))
{
    if (opt_.socketPath.empty())
        throw ConfigError("save-serve needs a socket path (--socket)");
    struct sockaddr_un addr;
    if (opt_.socketPath.size() >= sizeof(addr.sun_path))
        throw ConfigError("socket path too long (" +
                          std::to_string(opt_.socketPath.size()) +
                          " bytes; the sockaddr_un limit is " +
                          std::to_string(sizeof(addr.sun_path) - 1) +
                          "): " + opt_.socketPath);
    if (opt_.workers < 1)
        throw ConfigError("--workers must be >= 1 (got " +
                          std::to_string(opt_.workers) + ")");
    if (opt_.queueCap < 1)
        throw ConfigError("--queue-cap must be >= 1 (got " +
                          std::to_string(opt_.queueCap) + ")");
    queueCap_.store(opt_.queueCap);

    pool_ = std::make_shared<ThreadPool>(
        std::max(1, opt_.runtime.resolveThreads()));
    store_ = std::make_unique<ResultStore>(
        ResultStore::resolveOptions(opt_.runtime));
    // One session per serve worker, built here so that a bad isolation
    // setup fails the daemon's start, not its first request.
    for (int i = 0; i < opt_.workers; ++i) {
        SimSession::Options so;
        so.mcfg = opt_.mcfg;
        so.scfg = opt_.scfg;
        so.runtime = opt_.runtime;
        so.sharedPool = pool_.get();
        so.sharedStore = store_.get();
        sessions_.push_back(std::make_unique<SimSession>(std::move(so)));
    }
}

ServeServer::~ServeServer() = default;

int
ServeServer::bindSocket()
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opt_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw ConfigError(std::string("cannot create socket: ") +
                          std::strerror(errno));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int bind_errno = errno;
        if (bind_errno == EADDRINUSE) {
            // Stale-socket detection: probe the path. ECONNREFUSED
            // means the file exists but nothing listens (a daemon
            // died without unlinking) — reclaim it. A successful
            // connect means a live daemon owns it.
            int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if (probe >= 0) {
                int rc = ::connect(
                    probe, reinterpret_cast<struct sockaddr *>(&addr),
                    sizeof(addr));
                int probe_errno = errno;
                ::close(probe);
                if (rc == 0) {
                    ::close(fd);
                    throw ConfigError(
                        "a live save-serve daemon already listens on " +
                        opt_.socketPath);
                }
                if (probe_errno == ECONNREFUSED) {
                    SAVE_WARN("reclaiming stale socket ",
                              opt_.socketPath);
                    ::unlink(opt_.socketPath.c_str());
                    if (::bind(fd,
                               reinterpret_cast<struct sockaddr *>(
                                   &addr),
                               sizeof(addr)) == 0)
                        bind_errno = 0;
                    else
                        bind_errno = errno;
                }
            }
        }
        if (bind_errno != 0) {
            ::close(fd);
            throw ConfigError("cannot bind " + opt_.socketPath + ": " +
                              std::strerror(bind_errno));
        }
    }
    if (::listen(fd, 64) != 0) {
        int e = errno;
        ::close(fd);
        ::unlink(opt_.socketPath.c_str());
        throw ConfigError("cannot listen on " + opt_.socketPath + ": " +
                          std::strerror(e));
    }
    return fd;
}

int
ServeServer::run()
{
    int listen_fd = bindSocket();

    int sig_pipe[2];
    if (::pipe2(sig_pipe, O_CLOEXEC | O_NONBLOCK) != 0) {
        int e = errno;
        ::close(listen_fd);
        ::unlink(opt_.socketPath.c_str());
        throw ConfigError(std::string("cannot create signal pipe: ") +
                          std::strerror(e));
    }
    g_signal_wfd.store(sig_pipe[1]);

    // EPIPE from a dead client must surface as a write error, not
    // kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGHUP, &sa, nullptr);

    SAVE_INFORM("save-serve listening on ", opt_.socketPath, " (",
              opt_.workers, " worker(s), queue cap ", queueCap_.load(),
              ", pool ", pool_->size(), " thread(s), cache ",
              store_->enabled() ? store_->dir() : "disabled", ")");

    workers_.reserve(static_cast<size_t>(opt_.workers));
    for (int i = 0; i < opt_.workers; ++i)
        workers_.emplace_back(&ServeServer::workerLoop, this, i);

    acceptLoop(listen_fd, sig_pipe[0]);

    // Graceful drain: no new connections; queued + in-flight work
    // finishes before the workers exit.
    ::close(listen_fd);
    qcv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    g_signal_wfd.store(-1);
    ::close(sig_pipe[0]);
    ::close(sig_pipe[1]);
    ::unlink(opt_.socketPath.c_str());
    SAVE_INFORM("save-serve drained: ", completed_.load(),
              " completed, ", shed_.load(), " shed, ", errors_.load(),
              " error(s)");
    return 0;
}

void
ServeServer::requestDrain()
{
    draining_.store(true);
    qcv_.notify_all();
    int fd = g_signal_wfd.load();
    if (fd >= 0) {
        unsigned char b = 'T';
        ssize_t r = ::write(fd, &b, 1);
        (void)r;
    }
}

void
ServeServer::acceptLoop(int listen_fd, int sig_fd)
{
    while (!draining_.load()) {
        struct pollfd pfds[2];
        pfds[0].fd = listen_fd;
        pfds[0].events = POLLIN;
        pfds[0].revents = 0;
        pfds[1].fd = sig_fd;
        pfds[1].events = POLLIN;
        pfds[1].revents = 0;
        int r = ::poll(pfds, 2, -1);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            SAVE_WARN("accept poll failed: ", std::strerror(errno),
                      "; draining");
            draining_.store(true);
            break;
        }
        if (pfds[1].revents != 0) {
            unsigned char b;
            while (::read(sig_fd, &b, 1) == 1) {
                if (b == 'H')
                    reloadConfig();
                else
                    draining_.store(true);
            }
        }
        if (draining_.load())
            break;
        if (pfds[0].revents != 0) {
            int cfd = ::accept4(listen_fd, nullptr, nullptr,
                                SOCK_CLOEXEC);
            if (cfd < 0) {
                if (errno != EINTR && errno != ECONNABORTED)
                    SAVE_WARN("accept failed: ", std::strerror(errno));
                continue;
            }
            handleConnection(cfd);
        }
    }
}

void
ServeServer::handleConnection(int fd)
{
    Frame f;
    ServeRequest req;
    try {
        // A client that connects and dawdles must not wedge the
        // accept loop: the whole request has 2s to arrive.
        FrameRead r = frameReadFd(fd, f, 2000, serveKnownFourcc,
                                  kServeMaxPayload, "serve");
        if (r != FrameRead::Ok) {
            if (r == FrameRead::Timeout)
                SAVE_WARN("dropping client: no request within 2s");
            ::close(fd);
            return;
        }
        if (f.fourcc != kServeRequest)
            throw TraceError("serve: expected SREQ, got " +
                             frameFourccName(f.fourcc));
        req = serveDecodeRequest(f.arg, f.payload);
    } catch (const std::exception &e) {
        // Corrupt or mismatched request: typed reply, then drop the
        // connection. Never let one bad client kill the daemon.
        errors_.fetch_add(1);
        sendErrorReply(fd, e);
        ::close(fd);
        return;
    }

    if (req.kind == ServeKind::Ping || req.kind == ServeKind::Status ||
        req.kind == ServeKind::Drain) {
        controlReply(fd, req);
        ::close(fd);
        return;
    }

    Job job;
    job.fd = fd;
    job.req = std::move(req);
    job.admittedNs = nowNs();
    {
        std::lock_guard<std::mutex> lk(qmu_);
        int cap = queueCap_.load();
        if (draining_.load() || queuedTotal_ >= cap) {
            ServeBusyInfo busy;
            busy.queued = static_cast<uint32_t>(queuedTotal_);
            busy.queueCap = static_cast<uint32_t>(cap);
            busy.reason =
                draining_.load()
                    ? "daemon is draining"
                    : "admission queue full (" +
                          std::to_string(queuedTotal_) + "/" +
                          std::to_string(cap) + ")";
            shed_.fetch_add(1);
            frameWriteFd(fd, kServeBusy, kServeVersion,
                         serveEncodeBusy(busy));
            ::close(fd);
            return;
        }
        queues_[static_cast<size_t>(job.req.priority)].push_back(
            std::move(job));
        ++queuedTotal_;
        accepted_.fetch_add(1);
    }
    qcv_.notify_one();
}

void
ServeServer::controlReply(int fd, const ServeRequest &req)
{
    std::vector<uint8_t> payload;
    if (req.kind == ServeKind::Status)
        payload = serveEncodeStatus(statusSnapshot());
    frameWriteFd(fd, kServeResult, static_cast<uint32_t>(req.kind),
                 payload);
    if (req.kind == ServeKind::Drain) {
        SAVE_INFORM("drain requested by client");
        draining_.store(true);
        qcv_.notify_all();
    }
}

ServeStatus
ServeServer::statusSnapshot()
{
    ServeStatus s;
    s.version = kServeVersion;
    s.workers = static_cast<uint32_t>(opt_.workers);
    s.queueCap = static_cast<uint32_t>(queueCap_.load());
    {
        std::lock_guard<std::mutex> lk(qmu_);
        s.queued = static_cast<uint32_t>(queuedTotal_);
    }
    s.active = active_.load();
    s.draining = draining_.load() ? 1 : 0;
    s.reloads = reloads_.load();
    s.accepted = accepted_.load();
    s.completed = completed_.load();
    s.shed = shed_.load();
    s.errors = errors_.load();
    s.casHits = store_->hits();
    s.casMisses = store_->misses();
    s.casInserts = store_->inserts();
    return s;
}

void
ServeServer::reloadConfig()
{
    reloads_.fetch_add(1);
    if (opt_.configPath.empty()) {
        SAVE_INFORM("SIGHUP: no --config file to reload");
        return;
    }
    std::string text, why;
    if (!readFileBytes(opt_.configPath, text, &why)) {
        SAVE_WARN("SIGHUP: ", why, "; keeping current settings");
        return;
    }
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos) {
            SAVE_WARN("config ", opt_.configPath, ": ignoring line '",
                      line, "' (expected key=value)");
            continue;
        }
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        if (key == "queue_cap") {
            int cap = std::atoi(val.c_str());
            if (cap >= 1) {
                queueCap_.store(cap);
                SAVE_INFORM("SIGHUP: queue_cap -> ", cap);
            } else {
                SAVE_WARN("config queue_cap must be >= 1 (got '", val,
                          "')");
            }
        } else {
            SAVE_WARN("config ", opt_.configPath,
                      ": unknown key '", key, "' ignored");
        }
    }
}

bool
ServeServer::popJob(Job &out)
{
    std::unique_lock<std::mutex> lk(qmu_);
    for (;;) {
        qcv_.wait(lk, [&] {
            return queuedTotal_ > 0 || draining_.load();
        });
        for (std::deque<Job> &q : queues_) {
            if (!q.empty()) {
                out = std::move(q.front());
                q.pop_front();
                --queuedTotal_;
                return true;
            }
        }
        if (draining_.load())
            return false;
    }
}

void
ServeServer::workerLoop(int index)
{
    Job job;
    while (popJob(job))
        executeJob(*sessions_[static_cast<size_t>(index)], job);
}

void
ServeServer::executeJob(SimSession &session, Job &job)
{
    const int fd = job.fd;
    active_.fetch_add(1);
    const uint64_t deadline_ns =
        job.req.deadlineMs == 0
            ? 0
            : job.admittedNs +
                  static_cast<uint64_t>(job.req.deadlineMs) * 1000000ull;
    try {
        if (clientGone(fd)) {
            // The client gave up while the job sat in the queue; do
            // not burn a sweep on a reply nobody will read.
            errors_.fetch_add(1);
            ::close(fd);
            active_.fetch_sub(1);
            return;
        }
        if (deadline_ns != 0 && nowNs() > deadline_ns)
            throw SimError("deadline of " +
                           std::to_string(job.req.deadlineMs) +
                           "ms exceeded while queued");

        if (job.req.kind == ServeKind::Gemm) {
            const SliceRequest r{session.machine(), session.save(),
                                 job.req.gemm, job.req.cores, job.req.vpus};
            const KernelResult kr = session.runGemm(r);
            // The reply names this request's slice alone; the
            // session's other failures belong to other requests.
            if (std::isnan(kr.timeNs))
                throw SimError("gemm slice failed permanently: " +
                               session.sliceFailure(r));
            std::vector<uint8_t> res;
            casEncodeValue(res, toCasValue(kr));
            if (!frameWriteFd(fd, kServeResult,
                              static_cast<uint32_t>(job.req.kind), res))
                throw SimError(
                    std::string("result write failed: ") +
                    std::strerror(errno));
        } else {
            // The whole request is checked before its first point: a
            // bad name, knob or index is a Config SERR, never a grid
            // loop that does not end or a half-run sweep.
            const SweepSpec &spec = findSweep(job.req.sweep);
            job.req.knobs.validate();
            const std::vector<std::string> keys =
                sweepKeys(spec, job.req.knobs);
            for (uint32_t idx : job.req.points)
                if (idx >= keys.size())
                    throw ConfigError(
                        std::string(spec.name) + " point index " +
                        std::to_string(idx) + " out of range [0, " +
                        std::to_string(keys.size()) + ")");
            for (uint32_t idx : job.req.points) {
                if (deadline_ns != 0 && nowNs() > deadline_ns)
                    throw SimError(
                        "deadline of " +
                        std::to_string(job.req.deadlineMs) +
                        "ms exceeded mid-sweep");
                if (clientGone(fd))
                    throw SimError("client disconnected mid-sweep");
                if (opt_.testPointDelayMs > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            opt_.testPointDelayMs));
                ServePointAck ack;
                ack.index = idx;
                ack.key = keys[idx];
                ack.values = session.runPoint(spec, job.req.knobs, idx);
                if (!frameWriteFd(fd, kServeAck, idx,
                                  serveEncodePointAck(ack)))
                    throw SimError(
                        std::string(
                            "client disconnected (ack write: ") +
                        std::strerror(errno) + ")");
            }
            if (!frameWriteFd(fd, kServeResult,
                              static_cast<uint32_t>(job.req.kind), {}))
                throw SimError(
                    std::string("result write failed: ") +
                    std::strerror(errno));
        }
        completed_.fetch_add(1);
    } catch (const std::exception &e) {
        errors_.fetch_add(1);
        SAVE_WARN("request ", serveKindName(job.req.kind),
                  " failed: ", e.what());
        sendErrorReply(fd, e);
    }
    ::close(fd);
    active_.fetch_sub(1);
}

void
ServeServer::sendErrorReply(int fd, const std::exception &e)
{
    // Best-effort: the client may already be gone (EPIPE is the very
    // thing that aborted the job).
    frameWriteFd(fd, kServeError, kServeVersion,
                 wireEncodeError(wireClassifyError(e)));
}

} // namespace save
