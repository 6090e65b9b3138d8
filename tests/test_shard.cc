/**
 * @file
 * Shard coordinator tests: point acks, the exact protocol version
 * match, the canonical point enumeration, and the coordinator fault
 * matrix — shard-count invariance, daemon crash mid-point, straggler
 * rebalance, one stored record per slice across processes on a
 * shared store, a daemon acking a point outside the sweep or with
 * the wrong width of values, a daemon of another protocol version, a
 * daemon that vanishes after its status probe, points whose slices
 * fail for good, and a bench_fig14 SIGKILLed mid-sweep whose rerun
 * resumes through the store. The acceptance bar throughout is that
 * the merged report is byte-identical to the single-host sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <regex>
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
#include "shard/coordinator.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/frame.h"
#include "util/posix_io.h"

using namespace save;

namespace {

std::string
tmpDir(const char *tag)
{
    std::string t = "/tmp/shard_test_" + std::string(tag) + "_" +
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
    return "/tmp/sh_" + std::string(tag) + "_" +
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

/** Single-host report at grid 9 on 2 threads: bench_fig14's stdout
 *  for the same knobs. */
std::string
singleHostReport(int ksteps, int tiles)
{
    EstimatorOptions eo;
    eo.gridStep = 9;
    eo.kSteps = ksteps;
    eo.tiles = tiles;
    eo.threads = 2;
    eo.cacheDir = "none";
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, eo);
    return fig14Report([&](const std::string &, const Fig14Entry &e,
                           bool training) {
        return training ? est.training(e.net, e.prec)
                        : est.inference(e.net, e.prec);
    });
}

/** Single-host reference report for the quick knobs. */
const std::string &
referenceReport()
{
    static const std::string report = singleHostReport(8, 1);
    return report;
}

ShardCoordinator::Options
quickOptions()
{
    ShardCoordinator::Options o;
    o.knobs = quickKnobs();
    o.runtime.cacheDir = "none";
    o.runtime.threads = 2;
    return o;
}

/** Spawns the real save-serve binary and manages its lifetime. */
class DaemonProc
{
  public:
    void
    start(const std::string &socket,
          const std::vector<std::string> &extra_args = {})
    {
        socket_ = socket;
        std::vector<std::string> args;
        args.push_back(SAVE_SERVE_BIN_PATH);
        args.push_back("--socket=" + socket);
        for (const std::string &a : extra_args)
            args.push_back(a);
        // The first match of a flag wins, so an extra --cache-dir
        // overrides this default.
        args.push_back("--cache-dir=none");
        pid_ = ::fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
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

    void
    kill9()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status;
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
        }
    }

    ~DaemonProc()
    {
        kill9();
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

/** A fake daemon's request on `fd`; false on EOF or timeout. */
bool
readRequest(int fd, Frame &f)
{
    return frameReadFd(fd, f, 5000, serveKnownFourcc, kServeMaxPayload,
                       "test") == FrameRead::Ok;
}

/** Answer a status probe as a daemon speaking `version`. */
void
answerStatus(int fd, uint32_t version)
{
    ServeStatus st;
    st.version = version;
    frameWriteFd(fd, kServeResult, kServeVersion, serveEncodeStatus(st));
}

/** Run the bench_fig14 binary with stdout/stderr captured to files;
 *  returns the pid (caller waits or kills). */
pid_t
spawnFig14(const std::vector<std::string> &extra_args,
           const std::string &out_path, const std::string &err_path)
{
    std::vector<std::string> args;
    args.push_back(SAVE_FIG14_BIN_PATH);
    for (const std::string &a : extra_args)
        args.push_back(a);
    // The first match of a flag wins, so an extra argument overrides
    // these quick defaults.
    for (const char *a : {"--grid=9", "--ksteps=8", "--tiles=1",
                          "--cache-dir=none", "--threads=2"})
        args.push_back(a);
    pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        int out = ::open(out_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        int err = ::open(err_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0)
            ::_exit(126);
        ::dup2(out, 1);
        ::dup2(err, 2);
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(SAVE_FIG14_BIN_PATH, argv.data());
        ::_exit(127);
    }
    return pid;
}

int
waitExit(pid_t pid, int timeout_ms = 120000)
{
    for (int waited = 0; waited <= timeout_ms; waited += 50) {
        int status = 0;
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        ::usleep(50 * 1000);
    }
    return -2;
}

std::string
slurp(const std::string &path)
{
    std::string text;
    readFileBytes(path, text, nullptr);
    return text;
}

/** Files in `dir` named `<prefix>*<ext>`; none when `dir` is absent. */
std::vector<std::string>
filesLike(const std::string &dir, const char *prefix, const char *ext)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.path().filename().string().rfind(prefix, 0) == 0 &&
            e.path().extension() == ext)
            out.push_back(e.path().string());
    return out;
}

/** Record frames across a store's shard files. A duplicate append is
 *  a second frame with an already-stored key: it adds to this count
 *  but not to ResultStore::records(). */
size_t
storeFrames(const std::string &cas)
{
    size_t frames = 0;
    for (const std::string &path : filesLike(cas, "cas-", ".savecas")) {
        const std::string bytes = slurp(path);
        const auto *base = reinterpret_cast<const uint8_t *>(bytes.data());
        uint64_t off = 0;
        while (off < bytes.size()) {
            FrameView v;
            std::string why;
            if (frameParse(base, bytes.size(), off, v, 1ull << 24,
                           &why) != FrameParse::Ok) {
                ADD_FAILURE() << path << ": " << why;
                break;
            }
            ++frames;
        }
    }
    return frames;
}

} // namespace

// ---------------------------------------------------------------------
// Point acks, the protocol version and the point enumeration
// ---------------------------------------------------------------------

TEST(ShardProtocol, AckRoundtrip)
{
    ServePointAck a;
    a.index = 7;
    a.key = "train/GNMT MP pruned";
    a.values = {123.5, 0.0, -1.0 / 3.0, 9.25};
    std::vector<uint8_t> p = serveEncodePointAck(a);

    ServePointAck d = serveDecodePointAck(p);
    EXPECT_EQ(d.index, 7u);
    EXPECT_EQ(d.key, "train/GNMT MP pruned");
    EXPECT_EQ(d.values, a.values);
}

TEST(ShardProtocol, RequestVersionMatchesExactly)
{
    ServeRequest r;
    r.kind = ServeKind::Ping;
    std::vector<uint8_t> p = serveEncodeRequest(r);
    EXPECT_NO_THROW(serveDecodeRequest(kServeVersion, p));
    EXPECT_THROW(serveDecodeRequest(kServeVersion - 1, p), TraceError);
    EXPECT_THROW(serveDecodeRequest(kServeVersion + 1, p), TraceError);
}

TEST(ShardProtocol, PointEnumerationMatchesReportWalk)
{
    const std::vector<Fig14Point> &pts = fig14Points();
    ASSERT_EQ(static_cast<int>(pts.size()), fig14PointCount());
    const std::vector<std::string> keys =
        sweepKeys(findSweep("fig14"), quickKnobs());
    ASSERT_EQ(keys.size(), pts.size());

    // The renderer must ask for keys in exactly the enumeration
    // order — that equality is what makes index-addressed dispatch
    // and key-ordered merging the same thing.
    std::vector<std::string> walk;
    fig14Report([&](const std::string &key, const Fig14Entry &,
                    bool) -> NetResult {
        walk.push_back(key);
        return NetResult{};
    });
    ASSERT_EQ(walk.size(), pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(walk[i], pts[i].key) << "index " << i;
        EXPECT_EQ(keys[i], pts[i].key) << "index " << i;
    }
}

TEST(ShardProtocol, SocketListParsing)
{
    EXPECT_TRUE(shardParseSockets("").empty());
    EXPECT_EQ(shardParseSockets("a.sock"),
              (std::vector<std::string>{"a.sock"}));
    EXPECT_EQ(shardParseSockets("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(shardParseSockets(",a,,b,"),
              (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------
// Coordinator fault matrix
// ---------------------------------------------------------------------

TEST(ShardCoordinator, RejectsEmptyBackendSet)
{
    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 0;
    EXPECT_THROW(ShardCoordinator{std::move(o)}, ConfigError);
}

TEST(ShardCoordinator, ShardCountInvariance)
{
    // 1, 2, and 8 backends must all merge to the identical report.
    for (int lanes : {1, 2, 8}) {
        ShardCoordinator::Options o = quickOptions();
        o.inprocLanes = lanes;
        ShardCoordinator coord(std::move(o));
        EXPECT_EQ(coord.run(), referenceReport())
            << lanes << " in-process lanes";
    }
}

TEST(ShardCoordinator, MixedBackendIdentity)
{
    std::string s1 = socketPath("mixed1");
    std::string s2 = socketPath("mixed2");
    DaemonProc d1, d2;
    d1.start(s1, {"--workers=1"});
    d2.start(s2, {"--workers=1"});
    ASSERT_TRUE(d1.waitReady());
    ASSERT_TRUE(d2.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 2;
    o.sockets = {s1, s2};
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    EXPECT_EQ(coord.stats().backendsExcluded, 0u);
    EXPECT_EQ(coord.stats().computed, fig14Points().size());
}

TEST(ShardCoordinator, DaemonCrashMidBatchDegradesGracefully)
{
    std::string s = socketPath("crash");
    // Slow the daemon down so the kill is guaranteed mid-point: its
    // first point is still in flight at 700 ms, while the in-process
    // lane has long finished every other point.
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS", "1000", 1);
    DaemonProc d;
    d.start(s, {"--workers=1"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.rpcTimeoutMs = 10000;
    ShardCoordinator coord(std::move(o));

    std::thread killer([&] {
        ::usleep(700 * 1000);
        d.kill9();
    });
    std::string report = coord.run();
    killer.join();

    // The crash re-queued the daemon's in-flight point and the
    // in-process lane finished it: same bytes, no hang.
    EXPECT_EQ(report, referenceReport());
    EXPECT_GE(coord.stats().requeues, 1u);
}

TEST(ShardCoordinator, StragglerRebalance)
{
    std::string s = socketPath("slow");
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS", "1500", 1);
    DaemonProc d;
    d.start(s, {"--workers=1"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.stragglerMs = 100;
    o.rpcTimeoutMs = 30000;
    ShardCoordinator coord(std::move(o));
    std::string report = coord.run();

    // The fast in-process lane stole the slow daemon's in-flight
    // point; the first completion won and the merge is unchanged.
    EXPECT_EQ(report, referenceReport());
    EXPECT_GE(coord.stats().speculative, 1u);
}

TEST(ShardCoordinator, ShardedSweepStoresEachSliceOnce)
{
    // A process-isolated daemon and an in-process lane share one
    // store. Each process sees the others' appends on a lookup miss
    // and re-checks after winning a slice's flight lock, so every
    // slice lands on disk exactly once across all of them.
    const std::string dir = tmpDir("once");
    const std::string cas = dir + "/cas";
    std::string s = socketPath("once");
    DaemonProc d;
    d.start(s, {"--workers=1", "--threads=2", "--isolation=process",
                "--cache-dir=" + cas,
                std::string("--worker-bin=") + SAVE_WORKER_BIN_PATH});
    ASSERT_TRUE(d.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.runtime.cacheDir = cas;
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    d.kill9();

    const size_t frames = storeFrames(cas);
    ResultStore reread(ResultStore::Options{cas, 0});
    EXPECT_EQ(reread.quarantines(), 0u);
    EXPECT_GT(frames, 0u);
    EXPECT_EQ(frames, reread.records());
    std::filesystem::remove_all(dir);
}

TEST(ShardCoordinator, AckForAnotherPointIsIgnored)
{
    // A daemon names the point each ack completes. A faulty daemon
    // that acks an index outside the sweep must not reach the point
    // table: the coordinator accepts only the dispatched point's ack.
    const std::string s = socketPath("bogus");
    const int lfd = listenUnix(s);

    std::thread daemon([&] {
        SimSession::Options so;
        so.runtime.cacheDir = "none";
        so.runtime.threads = 1;
        SimSession session(std::move(so));
        for (int fd; (fd = ::accept(lfd, nullptr, nullptr)) >= 0;
             ::close(fd)) {
            Frame f;
            if (!readRequest(fd, f))
                continue;
            const ServeRequest req = serveDecodeRequest(f.arg, f.payload);
            if (req.kind == ServeKind::Status) {
                answerStatus(fd, kServeVersion);
                continue;
            }
            for (uint32_t idx : req.points) {
                ServePointAck ack;
                ack.index = 1u << 30; // not a point of this sweep
                frameWriteFd(fd, kServeAck, ack.index,
                             serveEncodePointAck(ack));
                ack.index = idx;
                ack.key = fig14Points()[idx].key;
                ack.values =
                    session.runPoint(findSweep(req.sweep), req.knobs, idx);
                frameWriteFd(fd, kServeAck, idx,
                             serveEncodePointAck(ack));
            }
            frameWriteFd(fd, kServeResult, kServeVersion, {});
        }
    });

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    EXPECT_EQ(coord.stats().computed, fig14Points().size());
    EXPECT_EQ(coord.stats().backendsExcluded, 0u);

    ::shutdown(lfd, SHUT_RDWR); // wakes the accept loop
    daemon.join();
    ::close(lfd);
    ::unlink(s.c_str());
}

TEST(ShardCoordinator, VersionSkewExcludesDaemon)
{
    // A daemon whose status reports another protocol version gets no
    // point request: the coordinator excludes it with a warning after
    // the probe and completes on the remaining backend, bytes
    // unchanged.
    const std::string s = socketPath("skew");
    const int lfd = listenUnix(s);
    std::atomic<int> jobs{0};
    std::thread daemon([&] {
        for (int fd; (fd = ::accept(lfd, nullptr, nullptr)) >= 0;
             ::close(fd)) {
            Frame f;
            if (!readRequest(fd, f))
                continue;
            if (serveDecodeRequest(f.arg, f.payload).kind ==
                ServeKind::Sweep)
                ++jobs;
            answerStatus(fd, kServeVersion + 1);
        }
    });

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    ShardCoordinator coord(std::move(o));
    std::string report;
    EXPECT_NO_THROW(report = coord.run());
    EXPECT_EQ(report, referenceReport());
    EXPECT_EQ(coord.stats().backendsExcluded, 1u);
    EXPECT_EQ(jobs.load(), 0);

    ::shutdown(lfd, SHUT_RDWR); // wakes the accept loop
    daemon.join();
    ::close(lfd);
    ::unlink(s.c_str());
}

TEST(ShardCoordinator, UnreachableDaemonUsesNoAttempts)
{
    // A daemon answers the status probe and then vanishes: it closes
    // and unlinks its listener before replying, so every point request
    // to it fails to connect. Those dispatches never reached a daemon,
    // so they must not use up the points' one attempt each while the
    // in-process lane can still compute them; the daemon lane is
    // excluded after kMaxBackendFaults of them. Its backoff sleeps
    // 0.1 + 0.2 s before the third dispatch, so the in-process sweep
    // must outlast that: on one thread these slices take about a
    // second in an optimized build (at 96 K-steps on two threads a
    // fast host finished first in 4 of 15 runs).
    const std::string reference = singleHostReport(192, 3);
    const std::string s = socketPath("gone");
    const int lfd = listenUnix(s);
    std::thread daemon([&] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        ::close(lfd);
        ::unlink(s.c_str());
        Frame f;
        if (fd >= 0 && readRequest(fd, f))
            answerStatus(fd, kServeVersion);
        ::close(fd);
    });

    ShardCoordinator::Options o = quickOptions();
    o.knobs.kSteps = 192;
    o.knobs.tiles = 3;
    o.runtime.threads = 1;
    o.inprocLanes = 1;
    o.sockets = {s};
    o.maxRetries = 0;
    ShardCoordinator coord(std::move(o));
    std::string report;
    EXPECT_NO_THROW(report = coord.run());
    daemon.join();
    EXPECT_EQ(report, reference);
    EXPECT_TRUE(coord.stats().failures.empty());
    EXPECT_EQ(coord.stats().backendsExcluded, 1u);
    EXPECT_GT(coord.stats().dispatches, fig14Points().size());
}

TEST(ShardCoordinator, CoordinatorKillThenRerun)
{
    // Slices long enough that the kill lands mid-sweep: uninterrupted,
    // this sweep takes about a second in an optimized build. Timing the
    // single-host reference gives the rerun a yardstick that holds in
    // slow (debug, sanitizer) builds too.
    const auto ref_t0 = std::chrono::steady_clock::now();
    const std::string reference = singleHostReport(96, 3);
    const auto uninterrupted = std::chrono::steady_clock::now() - ref_t0;
    const std::string dir = tmpDir("kill");
    const std::string cas = dir + "/cas";
    const std::vector<std::string> args = {
        "--inproc=1", "--grid=9", "--ksteps=96", "--tiles=3",
        "--threads=2", "--cache-dir=" + cas};

    // SIGKILL the real binary once the store holds a record (a
    // coordinator crash, not a graceful stop).
    auto storeHoldsARecord = [&] {
        std::error_code ec;
        for (const std::string &path : filesLike(cas, "cas-", ".savecas"))
            if (std::filesystem::file_size(path, ec) > 0 && !ec)
                return true;
        return false;
    };
    pid_t pid = spawnFig14(args, dir + "/out1", dir + "/err1");
    ASSERT_GT(pid, 0);
    bool stored = false;
    for (int waited = 0; waited < 120000 && !stored; waited += 5) {
        stored = storeHoldsARecord();
        if (!stored)
            ::usleep(5 * 1000);
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(stored) << "first run never stored a record";
    ASSERT_FALSE(WIFEXITED(status)); // killed, not exited

    // Rerun the same command: the store serves what the dead run
    // stored, and the dead run's flight locks hold nobody up.
    std::vector<std::string> rerun = args;
    rerun.push_back("--cache-stats");
    const auto t0 = std::chrono::steady_clock::now();
    pid = spawnFig14(rerun, dir + "/out2", dir + "/err2");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(waitExit(pid), 0) << slurp(dir + "/err2");
    // Waiting out a dead owner's flight (the follower timeout is 60 s)
    // would cost at least 30 s on top of the sweep itself.
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              uninterrupted + std::chrono::seconds(30));
    EXPECT_EQ(slurp(dir + "/out2"), reference);

    const std::string err = slurp(dir + "/err2");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(err, m, std::regex(R"("hits": (\d+))")))
        << err;
    EXPECT_GE(std::atoi(m[1].str().c_str()), 1);
    EXPECT_TRUE(filesLike(cas, "fl-", ".lock").empty());
    const size_t frames = storeFrames(cas);
    ResultStore reread(ResultStore::Options{cas, 0});
    EXPECT_EQ(frames, reread.records());
    std::filesystem::remove_all(dir);
}

TEST(ShardCoordinator, PoisonedPointFailsTheSweep)
{
    // Every slice fails for good, so every point's result holds the
    // estimator's NaN marker. Each point must use up its attempts and
    // end as a permanent failure naming it — never a result.
    FaultPlan plan;
    plan.sliceProb = 1.0;
    plan.sliceTimes = 999;
    plan.seed = 3;
    FaultInjector::global().configure(plan);
    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 2;
    ShardCoordinator coord(std::move(o));
    EXPECT_NO_THROW(coord.run());
    FaultInjector::global().reset();

    const ShardCoordinator::Stats &st = coord.stats();
    ASSERT_EQ(st.failures.size(), fig14Points().size());
    for (const ShardCoordinator::PermanentFailure &f : st.failures) {
        EXPECT_EQ(f.attempts, 3) << f.key;
        EXPECT_NE(f.reason.find("'" + f.key + "' holds a failed slice"),
                  std::string::npos)
            << f.reason;
    }
    EXPECT_EQ(st.computed, 0u);
}

TEST(ShardCoordinator, FailFastEndsTheRunWithThePointsError)
{
    // Under fail-fast the first point to use up its attempts ends the
    // run with its error instead of being recorded and skipped.
    FaultPlan plan;
    plan.sliceProb = 1.0;
    plan.sliceTimes = 999;
    FaultInjector::global().configure(plan);
    ShardCoordinator::Options o = quickOptions();
    o.failFast = true;
    o.maxRetries = 0;
    ShardCoordinator coord(std::move(o));
    std::string what;
    try {
        coord.run();
    } catch (const SimError &e) {
        what = e.what();
    }
    FaultInjector::global().reset();
    EXPECT_NE(what.find("failed after 1 attempt(s)"), std::string::npos)
        << what;
}

TEST(ShardCoordinator, AckOfTheWrongWidthFailsTheAttempt)
{
    // A daemon acks the dispatched point with 3 values where fig14
    // has 20. The ack must not complete the point: with no retries it
    // fails for good, and after kMaxBackendFaults such dispatches the
    // daemon is excluded; the in-process lane finishes the rest.
    const std::string s = socketPath("width");
    const int lfd = listenUnix(s);
    std::thread daemon([&] {
        for (int fd; (fd = ::accept(lfd, nullptr, nullptr)) >= 0;
             ::close(fd)) {
            Frame f;
            if (!readRequest(fd, f))
                continue;
            const ServeRequest req = serveDecodeRequest(f.arg, f.payload);
            if (req.kind == ServeKind::Status) {
                answerStatus(fd, kServeVersion);
                continue;
            }
            for (uint32_t idx : req.points) {
                ServePointAck ack;
                ack.index = idx;
                ack.key = fig14Points()[idx].key;
                ack.values = {1.0, 2.0, 3.0};
                frameWriteFd(fd, kServeAck, idx, serveEncodePointAck(ack));
            }
            frameWriteFd(fd, kServeResult, kServeVersion, {});
        }
    });

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.maxRetries = 0;
    ShardCoordinator coord(std::move(o));
    EXPECT_NO_THROW(coord.run());
    const ShardCoordinator::Stats &st = coord.stats();
    EXPECT_GE(st.failures.size(), 1u);
    for (const ShardCoordinator::PermanentFailure &f : st.failures)
        EXPECT_NE(f.reason.find("acked 3 value(s), expected 20"),
                  std::string::npos)
            << f.reason;
    EXPECT_EQ(st.computed + st.failures.size(), fig14Points().size());

    ::shutdown(lfd, SHUT_RDWR); // wakes the accept loop
    daemon.join();
    ::close(lfd);
    ::unlink(s.c_str());
}

TEST(ShardCoordinator, Fig14BenchExitsByMaxFailures)
{
    // A sweep whose every slice fails for good fails the run: 16
    // poisoned points, a failure report naming them, and exit 1 —
    // unless --max-failures tolerates them all.
    const std::string dir = tmpDir("maxfail");
    ::setenv("SAVE_FAULT_INJECT", "slice=1,times=999,seed=3", 1);
    const pid_t strict = spawnFig14({}, dir + "/out1", dir + "/err1");
    const int strict_rc = waitExit(strict);
    const std::string tolerate =
        "--max-failures=" + std::to_string(fig14PointCount());
    const pid_t lax =
        spawnFig14({tolerate}, dir + "/out2", dir + "/err2");
    const int lax_rc = waitExit(lax);
    ::unsetenv("SAVE_FAULT_INJECT");

    EXPECT_EQ(strict_rc, 1);
    const std::string err = slurp(dir + "/err1");
    EXPECT_NE(err.find(std::to_string(fig14PointCount()) +
                       " sweep point(s) failed permanently"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("surface point(s) failed permanently"),
              std::string::npos)
        << err;
    EXPECT_EQ(lax_rc, 0) << slurp(dir + "/err2");
    std::filesystem::remove_all(dir);
}
