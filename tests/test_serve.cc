/**
 * @file
 * save-serve end-to-end tests: protocol round-trip and corruption
 * rejection, daemon lifecycle (spawned from the real binary),
 * admission control — priority order and load shedding — client
 * disconnect mid-sweep, graceful drain with in-flight work, SIGHUP
 * config reload, stale socket reclamation, the checks a Sweep
 * request gets before its first point (name, knobs) and the poison
 * rule after each, and the acceptance bar — a served Fig. 14 sweep,
 * rendered on the client, byte-identical to the in-process report
 * across isolation modes, with warm repeats answered from the shared
 * CAS store. Every sweep's served and sharded reports are pinned
 * against the goldens in test_sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dnn/fig14_report.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sweep/sweep.h"
#include "util/error.h"
#include "util/posix_io.h"

using namespace save;

namespace {

std::string
tmpDir(const char *tag)
{
    std::string t = "/tmp/save_serve_test_" + std::string(tag) + "_" +
                    std::to_string(::getpid()) + "_XXXXXX";
    std::vector<char> buf(t.begin(), t.end());
    buf.push_back('\0');
    const char *d = ::mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

std::string
socketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/ss_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** The quick sweep knobs every test uses (the CI smoke config). */
SweepKnobs
quickKnobs()
{
    SweepKnobs k;
    k.gridStep = 9;
    k.kSteps = 8;
    k.tiles = 1;
    return k;
}

/** A fig14 Sweep request for every point. */
ServeRequest
sweepRequest(const SweepKnobs &k)
{
    ServeRequest req;
    req.kind = ServeKind::Sweep;
    req.sweep = "fig14";
    req.knobs = k;
    for (int i = 0; i < fig14PointCount(); ++i)
        req.points.push_back(static_cast<uint32_t>(i));
    return req;
}

/** Send `req` and render its acked points on the client, as save-ctl
 *  does. Empty unless the daemon answered Ok with one ack per point. */
std::string
servedReport(ServeClient &client, const ServeRequest &req,
             int timeout_ms)
{
    const SweepSpec &spec = findSweep(req.sweep);
    SweepResults results(spec.points(req.knobs).size());
    std::vector<int> acks(results.size(), 0);
    ServeClient::Reply r = client.call(
        req,
        [&](const ServePointAck &a) {
            ++acks.at(a.index);
            results[a.index] = a.values;
        },
        timeout_ms);
    const bool whole = r.kind == ServeClient::Reply::Kind::Ok &&
                       acks == std::vector<int>(results.size(), 1);
    EXPECT_TRUE(whole) << r.error.what;
    return whole ? spec.render(req.knobs, results) : "";
}

/** Run `cmd` through the shell; its exit code, with stdout and
 *  stderr captured into `out` and `err`. */
int
runShell(const std::string &cmd, std::string &out, std::string &err)
{
    static std::atomic<int> counter{0};
    const std::string base = "/tmp/ss_sh_" + std::to_string(::getpid()) +
                             "_" + std::to_string(counter.fetch_add(1));
    const int status = std::system(
        (cmd + " > " + base + ".out 2> " + base + ".err").c_str());
    readFileBytes(base + ".out", out, nullptr);
    readFileBytes(base + ".err", err, nullptr);
    ::unlink((base + ".out").c_str());
    ::unlink((base + ".err").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** In-process reference report for the quick knobs. */
std::string
inprocReport(const std::string &cache_dir)
{
    EstimatorOptions eo;
    eo.gridStep = 9;
    eo.kSteps = 8;
    eo.tiles = 1;
    eo.cacheDir = cache_dir.empty() ? "none" : cache_dir;
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, eo);
    return fig14Report([&](const std::string &, const Fig14Entry &e,
                           bool training) {
        return training ? est.training(e.net, e.prec)
                        : est.inference(e.net, e.prec);
    });
}

/** Spawns the real save-serve binary and manages its lifetime. */
class DaemonProc
{
  public:
    /** Start the daemon; with a non-empty `log`, its stderr goes to
     *  that file. */
    void
    start(const std::string &socket,
          const std::vector<std::string> &extra_args = {},
          const std::string &log = "")
    {
        socket_ = socket;
        std::vector<std::string> args;
        args.push_back(SAVE_SERVE_BIN_PATH);
        args.push_back("--socket=" + socket);
        for (const std::string &a : extra_args)
            args.push_back(a);
        pid_ = ::fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            if (!log.empty()) {
                const int fd = ::open(log.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
                if (fd >= 0)
                    ::dup2(fd, STDERR_FILENO);
            }
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(SAVE_SERVE_BIN_PATH, argv.data());
            ::_exit(127);
        }
    }

    bool
    waitReady(int timeout_ms = 15000)
    {
        ServeClient client(socket_);
        ServeRequest ping;
        ping.kind = ServeKind::Ping;
        for (int waited = 0; waited < timeout_ms; waited += 50) {
            try {
                client.call(ping, nullptr, 2000);
                return true;
            } catch (const SimError &) {
                ::usleep(50 * 1000);
            }
        }
        return false;
    }

    /** waitpid with a deadline; returns the exit code, or -1 on
     *  timeout / abnormal death. */
    int
    waitExit(int timeout_ms = 60000)
    {
        for (int waited = 0; waited <= timeout_ms; waited += 50) {
            int status = 0;
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            ::usleep(50 * 1000);
        }
        return -1;
    }

    void
    signal(int sig)
    {
        if (pid_ > 0)
            ::kill(pid_, sig);
    }

    pid_t pid() const { return pid_; }

    ~DaemonProc()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status;
            ::waitpid(pid_, &status, 0);
        }
        if (!socket_.empty())
            ::unlink(socket_.c_str());
    }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** A listening Unix socket at `path`, for an in-test fake daemon. */
int
listenUnix(const std::string &path)
{
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(lfd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(lfd, reinterpret_cast<struct sockaddr *>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(lfd, 4), 0);
    return lfd;
}

ServeStatus
getStatus(ServeClient &client)
{
    ServeRequest req;
    req.kind = ServeKind::Status;
    ServeClient::Reply r = client.call(req, nullptr, 5000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok);
    return r.status;
}

/**
 * Counters are updated by the worker after the reply frame is
 * written, so a client that races straight to Status can observe the
 * pre-increment value; poll until `pred` holds (or the deadline
 * passes) and return the last snapshot.
 */
template <typename Pred>
ServeStatus
pollStatus(ServeClient &client, Pred pred, int timeout_ms = 30000)
{
    ServeStatus s = getStatus(client);
    for (int waited = 0; !pred(s) && waited < timeout_ms;
         waited += 50) {
        ::usleep(50 * 1000);
        s = getStatus(client);
    }
    return s;
}

} // namespace

// ---------------------------------------------------------------
// Protocol codec
// ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripAllKinds)
{
    ServeRequest g;
    g.kind = ServeKind::Gemm;
    g.priority = ServePriority::High;
    g.deadlineMs = 1234;
    g.gemm.mr = 2;
    g.gemm.nrVecs = 3;
    g.gemm.kSteps = 77;
    g.gemm.bsSparsity = 0.4;
    g.cores = 3;
    g.vpus = 1;
    ServeRequest g2 =
        serveDecodeRequest(kServeVersion, serveEncodeRequest(g));
    EXPECT_EQ(g2.kind, ServeKind::Gemm);
    EXPECT_EQ(g2.priority, ServePriority::High);
    EXPECT_EQ(g2.deadlineMs, 1234u);
    EXPECT_EQ(g2.gemm.mr, 2);
    EXPECT_EQ(g2.gemm.kSteps, 77);
    EXPECT_DOUBLE_EQ(g2.gemm.bsSparsity, 0.4);
    EXPECT_EQ(g2.cores, 3);
    EXPECT_EQ(g2.vpus, 1);

    ServeRequest f;
    f.kind = ServeKind::Sweep;
    f.priority = ServePriority::Low;
    f.deadlineMs = 4500;
    f.sweep = "ablation_dvfs";
    f.knobs.gridStep = 9;
    f.knobs.kSteps = 8;
    f.knobs.seed = 42;
    f.points = {0, 3, 15};
    ServeRequest f2 =
        serveDecodeRequest(kServeVersion, serveEncodeRequest(f));
    EXPECT_EQ(f2.kind, ServeKind::Sweep);
    EXPECT_EQ(f2.priority, ServePriority::Low);
    EXPECT_EQ(f2.deadlineMs, 4500u);
    EXPECT_EQ(f2.sweep, "ablation_dvfs");
    EXPECT_EQ(f2.knobs.gridStep, 9);
    EXPECT_EQ(f2.knobs.kSteps, 8);
    EXPECT_EQ(f2.knobs.seed, 42u);
    EXPECT_EQ(f2.points, (std::vector<uint32_t>{0, 3, 15}));

    for (ServeKind k :
         {ServeKind::Ping, ServeKind::Status, ServeKind::Drain}) {
        ServeRequest c;
        c.kind = k;
        EXPECT_EQ(
            serveDecodeRequest(kServeVersion, serveEncodeRequest(c))
                .kind,
            k);
    }
}

TEST(ServeProtocol, RejectsVersionSkewTruncationAndTrailingBytes)
{
    ServeRequest r;
    r.kind = ServeKind::Gemm;
    std::vector<uint8_t> p = serveEncodeRequest(r);

    EXPECT_THROW(serveDecodeRequest(kServeVersion + 1, p), TraceError);

    std::vector<uint8_t> trunc(p.begin(), p.begin() + p.size() / 2);
    EXPECT_THROW(serveDecodeRequest(kServeVersion, trunc), TraceError);

    std::vector<uint8_t> trail = p;
    trail.push_back(0);
    EXPECT_THROW(serveDecodeRequest(kServeVersion, trail), TraceError);
}

TEST(ServeProtocol, SweepRequestRejectsTruncatedPointList)
{
    ServeRequest r;
    r.kind = ServeKind::Sweep;
    r.sweep = "fig14";
    r.points = {1, 2, 3};
    std::vector<uint8_t> p = serveEncodeRequest(r);
    p.resize(p.size() - 4); // drop the last index
    EXPECT_THROW(serveDecodeRequest(kServeVersion, p), TraceError);
}

TEST(ServeProtocol, AckRejectsAValueCountPastItsPayload)
{
    ServePointAck a;
    a.index = 2;
    a.key = "vpus2/w0/a0";
    a.values = {1.5, 2.5};
    std::vector<uint8_t> p = serveEncodePointAck(a);
    ServePointAck d = serveDecodePointAck(p);
    EXPECT_EQ(d.values, a.values);

    // The u32 count sits right before the values: claim one more
    // value than the payload holds.
    const size_t count_at = p.size() - 2 * sizeof(double) - 4;
    p[count_at] = 3;
    EXPECT_THROW(serveDecodePointAck(p), TraceError);
    // A count far past the payload fails before any allocation.
    p[count_at + 3] = 0x7f;
    EXPECT_THROW(serveDecodePointAck(p), TraceError);
}

TEST(ServeProtocol, StatusBusyRoundTrip)
{
    ServeStatus s;
    s.accepted = 7;
    s.shed = 3;
    s.reloads = 2;
    ServeStatus s2 = serveDecodeStatus(serveEncodeStatus(s));
    EXPECT_EQ(s2.accepted, 7u);
    EXPECT_EQ(s2.shed, 3u);
    EXPECT_EQ(s2.reloads, 2u);

    ServeBusyInfo b;
    b.reason = "admission queue full (4/4)";
    b.queued = 4;
    b.queueCap = 4;
    ServeBusyInfo b2 = serveDecodeBusy(serveEncodeBusy(b));
    EXPECT_EQ(b2.reason, b.reason);
    EXPECT_EQ(b2.queued, 4u);
}

TEST(ServeProtocol, FrameReadRejectsBitFlipAndTruncation)
{
    ServeRequest r;
    r.kind = ServeKind::Sweep;
    std::vector<uint8_t> payload = serveEncodeRequest(r);
    std::vector<uint8_t> frame =
        frameEncode(kServeRequest, kServeVersion, payload);

    // Flipped payload bit: the CRC catches it.
    {
        std::vector<uint8_t> bad = frame;
        bad[kFrameHeaderBytes + 2] ^= 0x10;
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], bad.data(), bad.size()),
                  static_cast<ssize_t>(bad.size()));
        ::close(fds[1]);
        Frame f;
        EXPECT_THROW(frameReadFd(fds[0], f, 1000, serveKnownFourcc,
                                 kServeMaxPayload, "serve"),
                     TraceError);
        ::close(fds[0]);
    }

    // Truncated mid-frame: EOF inside the payload is corruption, not
    // a clean EOF.
    {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], frame.data(), frame.size() - 3),
                  static_cast<ssize_t>(frame.size() - 3));
        ::close(fds[1]);
        Frame f;
        EXPECT_THROW(frameReadFd(fds[0], f, 1000, serveKnownFourcc,
                                 kServeMaxPayload, "serve"),
                     TraceError);
        ::close(fds[0]);
    }

    // Unknown fourcc is rejected before the payload is read.
    {
        std::vector<uint8_t> bad =
            frameEncode(frameFourcc('J', 'U', 'N', 'K'), 0, payload);
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], bad.data(), bad.size()),
                  static_cast<ssize_t>(bad.size()));
        ::close(fds[1]);
        Frame f;
        EXPECT_THROW(frameReadFd(fds[0], f, 1000, serveKnownFourcc,
                                 kServeMaxPayload, "serve"),
                     TraceError);
        ::close(fds[0]);
    }
}

// ---------------------------------------------------------------
// Daemon end-to-end
// ---------------------------------------------------------------

TEST(ServeDaemon, PingStatusAndGracefulDrain)
{
    std::string sock = socketPath("basic");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=2", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    ServeStatus s = getStatus(client);
    EXPECT_EQ(s.version, kServeVersion);
    EXPECT_EQ(s.workers, 1u);
    EXPECT_EQ(s.queueCap, 2u);
    EXPECT_EQ(s.draining, 0u);

    ServeRequest drain;
    drain.kind = ServeKind::Drain;
    ServeClient::Reply r = client.call(drain, nullptr, 5000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(d.waitExit(), 0);
}

TEST(ServeDaemon, GemmServedAndWarmRepeatHitsCas)
{
    std::string cache = tmpDir("gemmcas");
    std::string sock = socketPath("gemm");
    DaemonProc d;
    d.start(sock,
            {"--workers=2", "--queue-cap=4", "--cache-dir=" + cache});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    ServeRequest req;
    req.kind = ServeKind::Gemm;
    req.gemm.kSteps = 24;
    req.gemm.tiles = 1;
    req.gemm.bsSparsity = 0.3;
    req.gemm.seed = 11;

    ServeClient::Reply first = client.call(req, nullptr, 60000);
    ASSERT_EQ(first.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_GT(first.gemm.timeNs, 0.0);
    EXPECT_GT(first.gemm.cycles, 0u);

    // The warm repeat must answer from the content-addressed store
    // (O(1)) and be bit-identical to the simulation it replaces.
    ServeClient::Reply second = client.call(req, nullptr, 60000);
    ASSERT_EQ(second.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(std::memcmp(&first.gemm.timeNs, &second.gemm.timeNs,
                          sizeof(double)),
              0);
    EXPECT_EQ(first.gemm.cycles, second.gemm.cycles);
    EXPECT_EQ(first.gemm.stats, second.gemm.stats);

    ServeStatus s = pollStatus(
        client, [](const ServeStatus &st) { return st.completed >= 2; });
    EXPECT_GE(s.casHits, 1u);
    EXPECT_GE(s.casInserts, 1u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(ServeDaemon, ConcurrentClients)
{
    std::string sock = socketPath("conc");
    DaemonProc d;
    d.start(sock, {"--workers=2", "--queue-cap=16", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    constexpr int kClients = 4;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServeClient client(sock);
            ServeRequest req;
            req.kind = ServeKind::Gemm;
            req.gemm.kSteps = 16;
            req.gemm.tiles = 1;
            req.gemm.seed = static_cast<uint64_t>(100 + i);
            ServeClient::Reply r = client.call(req, nullptr, 120000);
            if (r.kind == ServeClient::Reply::Kind::Ok &&
                r.gemm.timeNs > 0)
                ok.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kClients);
}

TEST(ServeDaemon, QueueFullShedsWithTypedBusy)
{
    // The daemon sleeps before every sweep point, so the blocker holds
    // the single worker for at least kHoldPoints x kPointDelayMs however
    // fast the simulator is. Every check waits until both helper
    // threads are joined: a test body that returned early with a
    // joinable thread would end the process before ~DaemonProc stops
    // the daemon.
    constexpr int kPointDelayMs = 500;
    constexpr uint32_t kHoldPoints = 4;
    std::string sock = socketPath("shed");
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS",
             std::to_string(kPointDelayMs).c_str(), 1);
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=1", "--cache-dir=none"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());

    std::thread blocker([&] {
        ServeRequest hold = sweepRequest(quickKnobs());
        hold.points.resize(kHoldPoints);
        ServeClient client(sock);
        client.call(hold, nullptr, 300000);
    });

    ServeClient client(sock);
    const uint32_t active = pollStatus(client, [](const ServeStatus &s) {
                                return s.active >= 1;
                            }).active;

    ServeRequest req;
    req.kind = ServeKind::Gemm;
    req.gemm.kSteps = 16;
    req.gemm.tiles = 1;

    // Fill the single queue slot, and wait until the daemon reports
    // it occupied...
    std::thread queued([&] {
        ServeClient c2(sock);
        ServeRequest q = req;
        q.gemm.seed = 200;
        c2.call(q, nullptr, 300000);
    });
    const uint32_t waiting = pollStatus(client, [](const ServeStatus &s) {
                                 return s.queued >= 1;
                             }).queued;

    // ...so further submissions must be shed with a typed BUSY
    // reply, never a hang.
    int busy = 0;
    for (int i = 0; i < 20 && busy == 0; ++i) {
        ServeRequest q = req;
        q.gemm.seed = static_cast<uint64_t>(300 + i);
        ServeClient::Reply r = client.call(q, nullptr, 300000);
        if (r.kind == ServeClient::Reply::Kind::Busy) {
            ++busy;
            EXPECT_NE(r.busy.reason.find("queue full"),
                      std::string::npos);
            EXPECT_GE(r.busy.queueCap, 1u);
        }
    }
    blocker.join();
    queued.join();
    EXPECT_GE(active, 1u);
    EXPECT_GE(waiting, 1u);
    EXPECT_GE(busy, 1);
    EXPECT_GE(getStatus(client).shed, 1u);
}

TEST(ServeDaemon, AdmissionServesHigherPriorityFirst)
{
    // One worker, held by a blocker sweep, so a Normal and then a High
    // request both wait in the queue: the High one must leave it
    // first, whatever its kind. The daemon sleeps before every sweep
    // point, so the blocker holds the worker for at least
    // kHoldPoints x kPointDelayMs however fast the simulator is.
    constexpr int kPointDelayMs = 500;
    constexpr uint32_t kHoldPoints = 6;
    std::string sock = socketPath("prio");
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS",
             std::to_string(kPointDelayMs).c_str(), 1);
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());
    ServeClient client(sock);

    uint64_t round = 0;
    for (ServeKind high_kind : {ServeKind::Sweep, ServeKind::Gemm}) {
        SCOPED_TRACE(serveKindName(high_kind));
        ++round;
        // Start from an idle daemon: the previous round's last job is
        // still counted active for a moment after its reply, and would
        // pass for the blocker below while a Normal request overtakes
        // the real one.
        const ServeStatus idle =
            pollStatus(client, [](const ServeStatus &s) {
                return s.active == 0 && s.queued == 0;
            });
        ASSERT_EQ(idle.active, 0u);
        ASSERT_EQ(idle.queued, 0u);

        std::thread blocker([&] {
            ServeRequest hold = sweepRequest(quickKnobs());
            hold.points.resize(kHoldPoints);
            ServeClient c(sock);
            c.call(hold, nullptr, 300000);
        });
        EXPECT_GE(pollStatus(client,
                             [](const ServeStatus &s) {
                                 return s.active >= 1;
                             })
                      .active,
                  1u);

        std::mutex mu;
        std::vector<std::string> order;
        auto submit = [&](const ServeRequest &req, std::string tag) {
            return std::thread([&, req, tag] {
                ServeClient c(sock);
                ServeClient::Reply r = c.call(req, nullptr, 300000);
                EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok)
                    << tag << ": " << r.error.what;
                std::lock_guard<std::mutex> lk(mu);
                order.push_back(tag);
            });
        };

        // A one-point sweep, so the daemon sleeps before serving it:
        // its reply trails the High one's by at least kPointDelayMs,
        // far more than a busy host can delay the client threads that
        // record the order.
        ServeRequest normal = sweepRequest(quickKnobs());
        normal.points = {1};
        std::thread normal_client = submit(normal, "normal");
        EXPECT_GE(pollStatus(client,
                             [](const ServeStatus &s) {
                                 return s.queued >= 1;
                             })
                      .queued,
                  1u);

        ServeRequest high;
        high.kind = high_kind;
        high.priority = ServePriority::High;
        if (high_kind == ServeKind::Sweep) {
            high.sweep = "fig14";
            high.knobs = quickKnobs();
            high.points = {0};
        } else {
            high.gemm.kSteps = 16;
            high.gemm.tiles = 1;
            high.gemm.seed = 600 + round;
        }
        std::thread high_client = submit(high, "high");
        // Both must wait behind the blocker, or the order proves
        // nothing.
        EXPECT_GE(pollStatus(client,
                             [](const ServeStatus &s) {
                                 return s.queued >= 2;
                             })
                      .queued,
                  2u);

        blocker.join();
        normal_client.join();
        high_client.join();
        ASSERT_EQ(order.size(), 2u);
        EXPECT_EQ(order[0], "high");
    }
}

TEST(ServeDaemon, MidSweepClientDisconnectKeepsServing)
{
    std::string sock = socketPath("disc");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    // Raw client: submit a sweep, then vanish without reading.
    {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, sock.c_str(),
                     sizeof(addr.sun_path) - 1);
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::connect(fd,
                            reinterpret_cast<struct sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ASSERT_TRUE(frameWriteFd(fd, kServeRequest, kServeVersion,
                                 serveEncodeRequest(
                                     sweepRequest(quickKnobs()))));
        ::close(fd);
    }

    // The daemon must notice (pre-execution probe, the probe before
    // a point, or an ack write) and move on to the next client.
    ServeClient client(sock);
    for (int waited = 0; waited < 120000; waited += 100) {
        if (getStatus(client).errors >= 1)
            break;
        ::usleep(100 * 1000);
    }
    EXPECT_GE(getStatus(client).errors, 1u);

    ServeRequest gemm;
    gemm.kind = ServeKind::Gemm;
    gemm.gemm.kSteps = 16;
    gemm.gemm.tiles = 1;
    ServeClient::Reply r = client.call(gemm, nullptr, 120000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok);
}

TEST(ServeDaemon, DrainWaitsForInflightWork)
{
    // The daemon sleeps before every sweep point, so the sweep is
    // still in flight when the drain arrives however fast the
    // simulator is. Every check waits until the helper thread is
    // joined (see QueueFullShedsWithTypedBusy).
    constexpr int kPointDelayMs = 300;
    constexpr uint32_t kHoldPoints = 4;
    std::string sock = socketPath("drain");
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS",
             std::to_string(kPointDelayMs).c_str(), 1);
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());

    std::atomic<bool> sweep_ok{false};
    std::atomic<uint32_t> acks{0};
    std::thread inflight([&] {
        ServeRequest hold = sweepRequest(quickKnobs());
        hold.points.resize(kHoldPoints);
        ServeClient client(sock);
        const ServeClient::Reply r = client.call(
            hold, [&](const ServePointAck &) { ++acks; }, 300000);
        sweep_ok.store(r.kind == ServeClient::Reply::Kind::Ok);
    });

    ServeClient client(sock);
    const uint32_t active = pollStatus(client, [](const ServeStatus &s) {
                                return s.active >= 1;
                            }).active;

    ServeRequest drain;
    drain.kind = ServeKind::Drain;
    const ServeClient::Reply::Kind drained =
        client.call(drain, nullptr, 5000).kind;

    // Drain must let the in-flight sweep finish, then exit 0.
    const int rc = d.waitExit(300000);
    inflight.join();
    EXPECT_GE(active, 1u);
    EXPECT_EQ(drained, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(sweep_ok.load());
    EXPECT_EQ(acks.load(), kHoldPoints);
}

TEST(ServeDaemon, SighupReloadsConfig)
{
    std::string dir = tmpDir("cfg");
    std::string cfg = dir + "/serve.conf";
    {
        FILE *f = std::fopen(cfg.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# serve config\nqueue_cap=5\n", f);
        std::fclose(f);
    }
    std::string sock = socketPath("hup");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=2", "--cache-dir=none",
                   "--config=" + cfg});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    EXPECT_EQ(getStatus(client).queueCap, 2u);
    d.signal(SIGHUP);
    for (int waited = 0; waited < 30000; waited += 50) {
        if (getStatus(client).reloads >= 1)
            break;
        ::usleep(50 * 1000);
    }
    ServeStatus s = getStatus(client);
    EXPECT_GE(s.reloads, 1u);
    EXPECT_EQ(s.queueCap, 5u);
}

TEST(ServeDaemon, StaleSocketIsReclaimed)
{
    std::string sock = socketPath("stale");
    DaemonProc d1;
    d1.start(sock, {"--workers=1", "--cache-dir=none"});
    ASSERT_TRUE(d1.waitReady());
    d1.signal(SIGKILL);
    d1.waitExit(30000); // reap; SIGKILL leaves the socket file behind

    struct stat st;
    ASSERT_EQ(::stat(sock.c_str(), &st), 0)
        << "SIGKILL should leave the socket file";

    DaemonProc d2;
    d2.start(sock, {"--workers=1", "--cache-dir=none"});
    EXPECT_TRUE(d2.waitReady())
        << "second daemon should reclaim the stale socket";
}

// ---------------------------------------------------------------
// Acceptance: served == in-process, byte for byte
// ---------------------------------------------------------------

TEST(ServeFig14, ServedReportIsByteIdenticalAndWarmFromCas)
{
    std::string cache = tmpDir("fig14cas");
    std::string sock = socketPath("fig14");
    DaemonProc d;
    d.start(sock,
            {"--workers=1", "--queue-cap=4", "--cache-dir=" + cache});
    ASSERT_TRUE(d.waitReady());

    // Served first (cold: populates the shared store), one ack per
    // point, rendered on the client.
    ServeClient client(sock);
    const ServeRequest req = sweepRequest(quickKnobs());
    const std::string served = servedReport(client, req, 300000);
    ASSERT_FALSE(served.empty());

    // In-process reference over the SAME store: warm, and the bytes
    // must match exactly.
    std::string ref = inprocReport(cache);
    EXPECT_EQ(served, ref);

    // save-ctl must print the identical bytes to stdout.
    std::string cmd = std::string(SAVE_CTL_BIN_PATH) +
                      " fig14 --socket=" + sock +
                      " --grid=9 --ksteps=8 --tiles=1 2>/dev/null";
    FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string ctl_out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        ctl_out.append(buf, n);
    EXPECT_EQ(::pclose(p), 0);
    EXPECT_EQ(ctl_out, ref);

    // The cold sweep populated the shared store.
    ServeStatus s = getStatus(client);
    EXPECT_GE(s.casInserts, 1u);

    // A FRESH daemon on the same cache dir has a cold in-memory
    // estimator but a warm store: the repeat sweep must be answered
    // from the CAS (hits, not re-simulation) and still byte-match.
    ServeRequest drain;
    drain.kind = ServeKind::Drain;
    EXPECT_EQ(client.call(drain, nullptr, 5000).kind,
              ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(d.waitExit(60000), 0);

    std::string sock2 = socketPath("fig14b");
    DaemonProc d2;
    d2.start(sock2,
             {"--workers=1", "--queue-cap=4", "--cache-dir=" + cache});
    ASSERT_TRUE(d2.waitReady());
    ServeClient client2(sock2);
    EXPECT_EQ(servedReport(client2, req, 300000), ref);
    ServeStatus s2 = getStatus(client2);
    EXPECT_GE(s2.casHits, 1u);
}

TEST(ServeFig14, ByteIdenticalAcrossIsolationNoneAndProcess)
{
    std::string ref = inprocReport("");

    // Isolation is the daemon's own: one daemon per mode.
    for (const char *iso : {"none", "process"}) {
        std::string sock = socketPath("iso");
        DaemonProc d;
        d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none",
                       std::string("--isolation=") + iso,
                       "--worker-bin=" SAVE_WORKER_BIN_PATH});
        ASSERT_TRUE(d.waitReady());
        ServeClient client(sock);
        EXPECT_EQ(servedReport(client, sweepRequest(quickKnobs()), 600000),
                  ref)
            << "isolation=" << iso;
    }
}

TEST(ServeDaemon, DeadlineExceededReturnsTypedError)
{
    std::string sock = socketPath("deadline");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    ServeRequest req = sweepRequest(quickKnobs());
    req.deadlineMs = 1; // expires before the sweep can finish
    ServeClient::Reply r = client.call(req, nullptr, 300000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Error);
    EXPECT_NE(r.error.what.find("deadline"), std::string::npos);

    // The daemon survives and keeps serving.
    ServeRequest ping;
    ping.kind = ServeKind::Ping;
    EXPECT_EQ(client.call(ping, nullptr, 5000).kind,
              ServeClient::Reply::Kind::Ok);
}

/** A fake daemon on listener `lfd` for one request: it acks every
 *  point (but the last, with `skip_last`) with `width` values each,
 *  then answers Ok. */
std::thread
fakeAckingDaemon(int lfd, size_t width, bool skip_last)
{
    return std::thread([=] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        Frame f;
        if (fd >= 0 && frameReadFd(fd, f, 5000, serveKnownFourcc,
                                   kServeMaxPayload,
                                   "test") == FrameRead::Ok) {
            const ServeRequest req = serveDecodeRequest(f.arg, f.payload);
            const size_t n = req.points.size() - (skip_last ? 1 : 0);
            for (size_t i = 0; i < n; ++i) {
                ServePointAck ack;
                ack.index = req.points[i];
                ack.key = fig14Points()[ack.index].key;
                ack.values.assign(width, 1.0);
                frameWriteFd(fd, kServeAck, ack.index,
                             serveEncodePointAck(ack));
            }
            frameWriteFd(fd, kServeResult,
                         static_cast<uint32_t>(req.kind), {});
        }
        ::close(fd);
    });
}

TEST(ServeFig14, CtlRejectsASweepWithAPointMissing)
{
    // A faulty daemon answers Ok but never acks the last point.
    // save-ctl must not render a report with a hole in it: it exits 1
    // and names the point.
    const std::string sock = socketPath("hole");
    const int lfd = listenUnix(sock);
    std::thread daemon =
        fakeAckingDaemon(lfd, findSweep("fig14").width, true);
    std::string out, err;
    const int rc = runShell(std::string(SAVE_CTL_BIN_PATH) +
                                " fig14 --socket=" + sock +
                                " --grid=9 --ksteps=8 --tiles=1",
                            out, err);
    daemon.join();
    ::close(lfd);
    ::unlink(sock.c_str());

    EXPECT_EQ(rc, 1);
    EXPECT_TRUE(out.empty()) << out;
    EXPECT_NE(err.find("'" + fig14Points().back().key + "' was acked 0"),
              std::string::npos)
        << err;
}

TEST(ServeSweep, CtlRejectsAnAckOfTheWrongWidth)
{
    // Every point is acked, but with 3 values where fig14 has 20:
    // save-ctl must exit 1 rather than render from short results.
    const std::string sock = socketPath("width");
    const int lfd = listenUnix(sock);
    std::thread daemon = fakeAckingDaemon(lfd, 3, false);
    std::string out, err;
    const int rc = runShell(std::string(SAVE_CTL_BIN_PATH) +
                                " fig14 --socket=" + sock +
                                " --grid=9 --ksteps=8 --tiles=1",
                            out, err);
    daemon.join();
    ::close(lfd);
    ::unlink(sock.c_str());

    EXPECT_EQ(rc, 1);
    EXPECT_TRUE(out.empty()) << out;
    EXPECT_NE(err.find("acked 3 value(s), expected 20"),
              std::string::npos)
        << err;
}

TEST(ServeSweep, UnknownNameAndBadKnobsAreConfigErrors)
{
    // The daemon checks a Sweep request's name and knobs before any
    // point runs: a grid stride of 0 would never end the grid loop,
    // so it must come back as a Config SERR, and the daemon must keep
    // serving.
    std::string sock = socketPath("badreq");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());
    ServeClient client(sock);

    ServeRequest unknown = sweepRequest(quickKnobs());
    unknown.sweep = "fig99";
    ServeRequest no_grid = sweepRequest(quickKnobs());
    no_grid.sweep = "fig15";
    no_grid.knobs.gridStep = 0;
    no_grid.points = {0};
    ServeRequest no_tiles = sweepRequest(quickKnobs());
    no_tiles.knobs.tiles = 0;
    ServeRequest past_end = sweepRequest(quickKnobs());
    past_end.points = {0, static_cast<uint32_t>(fig14PointCount())};
    int acks = 0;
    for (const ServeRequest &req : {unknown, no_grid, no_tiles, past_end}) {
        ServeClient::Reply r = client.call(
            req, [&](const ServePointAck &) { ++acks; }, 60000);
        EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Error)
            << req.sweep << " gridStep=" << req.knobs.gridStep;
        EXPECT_EQ(r.error.kind, WireErrorKind::Config) << r.error.what;
    }
    EXPECT_EQ(acks, 0);

    ServeRequest ping;
    ping.kind = ServeKind::Ping;
    EXPECT_EQ(client.call(ping, nullptr, 5000).kind,
              ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(getStatus(client).errors, 4u);
}

TEST(ServeDaemon, GemmOutsideTheMachineIsAConfigError)
{
    // A Gemm request the engine refuses (a VPU or core count outside
    // the machine) fails the same way on every attempt: it comes back
    // as a Config SERR at once, is neither retried nor recorded as a
    // failed slice, and the next request is served.
    const std::string sock = socketPath("badgemm");
    const std::string dir = tmpDir("badgemm");
    const std::string log = dir + "/daemon.log";
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"},
            log);
    ASSERT_TRUE(d.waitReady());
    ServeClient client(sock);

    ServeRequest gemm;
    gemm.kind = ServeKind::Gemm;
    gemm.gemm.kSteps = 16;
    gemm.gemm.tiles = 1;
    ServeRequest three_vpus = gemm;
    three_vpus.vpus = 3;
    ServeRequest no_cores = gemm;
    no_cores.cores = 0;
    for (const ServeRequest &req : {three_vpus, no_cores}) {
        const ServeClient::Reply r = client.call(req, nullptr, 60000);
        EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Error);
        EXPECT_EQ(r.error.kind, WireErrorKind::Config) << r.error.what;
    }
    const ServeClient::Reply ok = client.call(gemm, nullptr, 60000);
    EXPECT_EQ(ok.kind, ServeClient::Reply::Kind::Ok) << ok.error.what;

    std::string text;
    readFileBytes(log, text, nullptr);
    EXPECT_EQ(text.find("retrying slice"), std::string::npos) << text;
    EXPECT_EQ(text.find("failed permanently"), std::string::npos) << text;
    std::filesystem::remove_all(dir);
}

TEST(ServeSweep, PoisonedPointIsAnError)
{
    // Every slice fails for good in the daemon, so every point's
    // result holds the NaN marker of a failed slice. That is an error,
    // not a result: save-ctl exits 1 and names the point.
    std::string sock = socketPath("poison");
    ::setenv("SAVE_FAULT_INJECT", "slice=1,times=999,seed=3", 1);
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ::unsetenv("SAVE_FAULT_INJECT");
    ASSERT_TRUE(d.waitReady());

    std::string out, err;
    const int rc = runShell(std::string(SAVE_CTL_BIN_PATH) +
                                " fig14 --socket=" + sock +
                                " --grid=9 --ksteps=8 --tiles=1",
                            out, err);
    EXPECT_EQ(rc, 1);
    EXPECT_TRUE(out.empty()) << out;
    EXPECT_NE(err.find("'" + fig14Points().front().key +
                       "' holds a failed slice"),
              std::string::npos)
        << err;

    // A Gemm request's slice takes the same retries and fails the same
    // way: an error reply, never a NaN record.
    ServeRequest gemm;
    gemm.kind = ServeKind::Gemm;
    gemm.gemm.kSteps = 16;
    gemm.gemm.tiles = 1;
    const ServeClient::Reply r = ServeClient(sock).call(gemm, nullptr, 60000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Error);
    EXPECT_NE(r.error.what.find("failed permanently"), std::string::npos)
        << r.error.what;
}

TEST(ServeSweep, ProcessIsolationCoversGemmRequestsAndGemmSweeps)
{
    // Under --isolation=process every slice a daemon produces runs in
    // a sandboxed worker, a served Gemm and a GEMM sweep's slices as
    // much as the estimator's. The first attempt of each slice crashes
    // its worker (the workers inherit SAVE_FAULT_INJECT), so each
    // request retries in a fresh worker and still answers with the
    // fault-free bytes.
    const std::string sock = socketPath("isoproc");
    const std::string dir = tmpDir("isoproc");
    const std::string log = dir + "/daemon.log";
    ::setenv("SAVE_FAULT_INJECT", "crash=1.0,times=1", 1);
    DaemonProc d;
    d.start(sock,
            {"--workers=1", "--threads=2", "--isolation=process",
             "--cache-dir=none",
             std::string("--worker-bin=") + SAVE_WORKER_BIN_PATH},
            log);
    ::unsetenv("SAVE_FAULT_INJECT");
    ASSERT_TRUE(d.waitReady());
    auto retries = [&log] {
        std::string text;
        readFileBytes(log, text, nullptr);
        size_t n = 0;
        for (size_t at = text.find("retrying slice");
             at != std::string::npos;
             at = text.find("retrying slice", at + 1))
            ++n;
        return n;
    };

    SimSession::Options o;
    o.runtime.threads = 1;
    o.runtime.cacheDir = "none";
    o.runtime.isolation = "thread";
    SimSession inproc(o);
    ServeClient client(sock);

    ServeRequest gemm;
    gemm.kind = ServeKind::Gemm;
    gemm.gemm.kSteps = 16;
    gemm.gemm.tiles = 1;
    gemm.gemm.bsSparsity = 0.5;
    const ServeClient::Reply r = client.call(gemm, nullptr, 120000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok) << r.error.what;
    const CasValue want = toCasValue(inproc.runGemm(
        {MachineConfig{}, SaveConfig{}, gemm.gemm, gemm.cores, gemm.vpus}));
    EXPECT_EQ(std::memcmp(&r.gemm.timeNs, &want.timeNs, sizeof(double)),
              0);
    EXPECT_EQ(r.gemm.cycles, want.cycles);
    EXPECT_EQ(r.gemm.stats, want.stats);
    const size_t gemm_retries = retries();
    EXPECT_EQ(gemm_retries, 1u);

    const SweepSpec &spec = findSweep("fig15");
    ServeRequest sweep;
    sweep.kind = ServeKind::Sweep;
    sweep.sweep = spec.name;
    sweep.knobs = quickKnobs();
    SweepResults ref;
    for (uint32_t i = 0; i < spec.points(sweep.knobs).size(); ++i) {
        sweep.points.push_back(i);
        ref.push_back(inproc.runPoint(spec, sweep.knobs, i));
    }
    EXPECT_EQ(servedReport(client, sweep, 300000),
              spec.render(sweep.knobs, ref));
    EXPECT_GT(retries(), gemm_retries);
    std::filesystem::remove_all(dir);
}
