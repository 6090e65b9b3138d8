/**
 * @file
 * Shard coordinator tests: protocol-v2 frame round-trips and version
 * windows, the canonical point enumeration, and the coordinator
 * fault matrix — shard-count invariance, daemon crash mid-point,
 * straggler rebalance, one stored record per slice across processes
 * on a shared store, a daemon acking a point outside the sweep,
 * protocol version skew against a v1-emulating daemon, and
 * coordinator SIGKILL + journal resume recomputing zero
 * already-merged points. The acceptance bar throughout is that the
 * merged report is byte-identical to the single-host sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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
#include "util/frame.h"
#include "util/journal.h"
#include "util/posix_io.h"

using namespace save;

namespace {

std::string
tmpDir(const char *tag)
{
    std::string t = "/tmp/save_shard_test_" + std::string(tag) + "_" +
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
Fig14Knobs
quickKnobs()
{
    Fig14Knobs k;
    k.gridStep = 9;
    k.kSteps = 8;
    k.tiles = 1;
    return k;
}

/** Single-host reference report for the quick knobs. */
const std::string &
referenceReport()
{
    static const std::string report = [] {
        EstimatorOptions eo;
        eo.gridStep = 9;
        eo.kSteps = 8;
        eo.tiles = 1;
        eo.cacheDir = "none";
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, eo);
        return fig14Report([&](const std::string &,
                               const Fig14Entry &e, bool training) {
            return training ? est.training(e.net, e.prec)
                            : est.inference(e.net, e.prec);
        });
    }();
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

/** Run the save-shard binary with stdout/stderr captured to files;
 *  returns the pid (caller waits or kills). */
pid_t
spawnShard(const std::vector<std::string> &extra_args,
           const std::string &out_path, const std::string &err_path)
{
    std::vector<std::string> args;
    args.push_back(SAVE_SHARD_BIN_PATH);
    args.push_back("--grid=9");
    args.push_back("--ksteps=8");
    args.push_back("--tiles=1");
    args.push_back("--cache-dir=none");
    args.push_back("--threads=2");
    for (const std::string &a : extra_args)
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
        ::execv(SAVE_SHARD_BIN_PATH, argv.data());
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

} // namespace

// ---------------------------------------------------------------------
// Protocol v2 frames
// ---------------------------------------------------------------------

TEST(ShardProtocol, JobRoundtrip)
{
    ServeShardJob j;
    j.priority = ServePriority::High;
    j.deadlineMs = 4500;
    j.knobs = quickKnobs();
    j.points = {0, 3, 15};
    std::vector<uint8_t> p = serveEncodeShardJob(j);

    ServeShardJob d = serveDecodeShardJob(kServeVersion, p);
    EXPECT_EQ(d.priority, ServePriority::High);
    EXPECT_EQ(d.deadlineMs, 4500u);
    EXPECT_EQ(d.knobs.gridStep, 9);
    EXPECT_EQ(d.knobs.kSteps, 8);
    EXPECT_EQ(d.points, (std::vector<uint32_t>{0, 3, 15}));
}

TEST(ShardProtocol, JobRejectsBadVersions)
{
    ServeShardJob j;
    j.points = {1};
    std::vector<uint8_t> p = serveEncodeShardJob(j);
    // A v1 peer can never legally carry SSHD...
    EXPECT_THROW(serveDecodeShardJob(1, p), TraceError);
    // ...and a future version is a skew, not a guess.
    EXPECT_THROW(serveDecodeShardJob(kServeVersion + 1, p), TraceError);
}

TEST(ShardProtocol, JobRejectsTruncatedPointList)
{
    ServeShardJob j;
    j.points = {1, 2, 3};
    std::vector<uint8_t> p = serveEncodeShardJob(j);
    p.resize(p.size() - 4); // drop the last index
    EXPECT_THROW(serveDecodeShardJob(kServeVersion, p), TraceError);
}

TEST(ShardProtocol, AckRoundtrip)
{
    ServeShardAck a;
    a.index = 7;
    a.key = "train/GNMT MP pruned";
    a.result.baseline2.forward = 123.5;
    a.result.saveDynamic.bwdWeights = 9.25;
    std::vector<uint8_t> p = serveEncodeShardAck(a);

    ServeShardAck d = serveDecodeShardAck(p);
    EXPECT_EQ(d.index, 7u);
    EXPECT_EQ(d.key, "train/GNMT MP pruned");
    EXPECT_EQ(d.result.baseline2.forward, 123.5);
    EXPECT_EQ(d.result.saveDynamic.bwdWeights, 9.25);
}

TEST(ShardProtocol, RequestVersionWindow)
{
    ServeRequest r;
    r.kind = ServeKind::Ping;
    std::vector<uint8_t> p = serveEncodeRequest(r);
    // v1 requests must keep decoding on a v2 build (old clients).
    EXPECT_NO_THROW(serveDecodeRequest(1, p));
    EXPECT_NO_THROW(serveDecodeRequest(kServeVersion, p));
    EXPECT_THROW(serveDecodeRequest(0, p), TraceError);
    EXPECT_THROW(serveDecodeRequest(kServeVersion + 1, p), TraceError);
}

TEST(ShardProtocol, V1PredicateRejectsShardFrames)
{
    EXPECT_TRUE(serveKnownFourcc(kServeShardJob));
    EXPECT_FALSE(serveKnownFourccV1(kServeShardJob));
    EXPECT_TRUE(serveKnownFourccV1(kServeRequest));
}

TEST(ShardProtocol, PointEnumerationMatchesReportWalk)
{
    const std::vector<Fig14Point> &pts = fig14Points();
    ASSERT_EQ(static_cast<int>(pts.size()), fig14PointCount());

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
    for (size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(walk[i], pts[i].key) << "index " << i;
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

    // A duplicate append is a second frame with an already-stored key:
    // it adds to the frame count but not to the records index.
    size_t frames = 0;
    for (const auto &e : std::filesystem::directory_iterator(cas)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("cas-", 0) != 0 ||
            e.path().extension() != ".savecas")
            continue;
        const std::string bytes = slurp(e.path().string());
        const auto *base = reinterpret_cast<const uint8_t *>(bytes.data());
        uint64_t off = 0;
        while (off < bytes.size()) {
            FrameView v;
            std::string why;
            ASSERT_EQ(frameParse(base, bytes.size(), off, v, 1ull << 24,
                                 &why),
                      FrameParse::Ok)
                << name << ": " << why;
            ++frames;
        }
    }
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
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(lfd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, s.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<struct sockaddr *>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);

    std::thread daemon([&] {
        SimSession::Options so;
        so.runtime.cacheDir = "none";
        so.runtime.threads = 1;
        SimSession session(std::move(so));
        for (int fd; (fd = ::accept(lfd, nullptr, nullptr)) >= 0;
             ::close(fd)) {
            Frame f;
            if (frameReadFd(fd, f, 5000, serveKnownFourcc,
                            kServeMaxPayload, "test") != FrameRead::Ok)
                continue;
            if (f.fourcc == kServeRequest) { // the status probe
                frameWriteFd(fd, kServeResult, kServeVersion,
                             serveEncodeStatus(ServeStatus{}));
                continue;
            }
            const ServeShardJob job = serveDecodeShardJob(f.arg, f.payload);
            for (uint32_t idx : job.points) {
                ServeShardAck ack;
                ack.index = 1u << 30; // not a point of this sweep
                frameWriteFd(fd, kServeProgress, ack.index,
                             serveEncodeShardAck(ack));
                ack.index = idx;
                ack.key = fig14Points()[idx].key;
                ack.result =
                    session.runFig14Point(job.knobs, static_cast<int>(idx));
                frameWriteFd(fd, kServeProgress, idx,
                             serveEncodeShardAck(ack));
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

TEST(ShardCoordinator, VersionSkewExcludesV1Daemon)
{
    std::string s = socketPath("v1");
    DaemonProc d;
    d.start(s, {"--workers=1", "--v1-compat"});
    ASSERT_TRUE(d.waitReady());

    // The emulated old daemon advertises v1 and still answers v1
    // single requests...
    ServeClient client(s);
    ServeRequest sreq;
    sreq.kind = ServeKind::Status;
    ServeClient::Reply status = client.call(sreq, nullptr, 5000);
    ASSERT_EQ(status.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(status.status.version, 1u);

    // ...and rejects a batched shard job with a typed Trace error
    // instead of hanging or dying.
    ServeShardJob job;
    job.knobs = quickKnobs();
    job.points = {0};
    ServeClient::Reply shard = client.callShard(job, nullptr, 5000);
    ASSERT_EQ(shard.kind, ServeClient::Reply::Kind::Error);
    EXPECT_EQ(shard.error.kind, WireErrorKind::Trace);

    // The coordinator negotiates, excludes it with a warning, and
    // completes on the remaining backend — bytes unchanged.
    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    EXPECT_EQ(coord.stats().backendsExcluded, 1u);
}

TEST(ShardCoordinator, JournalInterchangesWithBench)
{
    std::string dir = tmpDir("journal");
    std::string jpath = dir + "/sweep.journal";

    // First run journals every point...
    {
        ShardCoordinator::Options o = quickOptions();
        o.inprocLanes = 2;
        o.journalPath = jpath;
        ShardCoordinator coord(std::move(o));
        EXPECT_EQ(coord.run(), referenceReport());
        EXPECT_EQ(coord.stats().resumed, 0u);
        EXPECT_EQ(coord.stats().computed, fig14Points().size());
    }
    // ...and a resumed run recomputes zero points.
    {
        ShardCoordinator::Options o = quickOptions();
        o.inprocLanes = 2;
        o.journalPath = jpath;
        ShardCoordinator coord(std::move(o));
        EXPECT_EQ(coord.run(), referenceReport());
        EXPECT_EQ(coord.stats().resumed, fig14Points().size());
        EXPECT_EQ(coord.stats().computed, 0u);
    }
}

TEST(ShardCoordinator, CoordinatorKillThenJournalResume)
{
    std::string dir = tmpDir("kill");
    std::string jpath = dir + "/sweep.journal";

    // Run the real binary and SIGKILL it once the journal shows
    // progress (a coordinator crash, not a graceful stop).
    pid_t pid = spawnShard({"--inproc=1", "--journal=" + jpath},
                           dir + "/out1", dir + "/err1");
    ASSERT_GT(pid, 0);
    bool progressed = false;
    for (int waited = 0; waited < 120000; waited += 50) {
        std::string text = slurp(jpath);
        size_t lines =
            static_cast<size_t>(std::count(text.begin(), text.end(),
                                           '\n'));
        if (lines >= 4) { // header + >= 3 completed points
            progressed = true;
            break;
        }
        ::usleep(50 * 1000);
    }
    ASSERT_TRUE(progressed) << "first run never journaled 3 points";
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_FALSE(WIFEXITED(status)); // killed, not exited

    // The resumed run must replay every journaled point (recompute
    // zero already-merged points) and still match the reference.
    pid = spawnShard({"--inproc=1", "--journal=" + jpath},
                     dir + "/out2", dir + "/err2");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(waitExit(pid), 0);
    EXPECT_EQ(slurp(dir + "/out2"), referenceReport());

    std::string err = slurp(dir + "/err2");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        err, m,
        std::regex(R"((\d+) point\(s\) resumed, (\d+) computed)")))
        << err;
    const int resumed = std::atoi(m[1].str().c_str());
    const int computed = std::atoi(m[2].str().c_str());
    EXPECT_GE(resumed, 3);
    EXPECT_EQ(resumed + computed, fig14PointCount());
}
