/**
 * @file
 * Sweep registry tests and the generic remote-identity bar: every
 * SweepSpec (sweep/sweep.h), served whole to `save-ctl <name>` and
 * sharded by `bench_<name> --sockets=<daemon> --inproc=1` across one
 * daemon and an in-process lane, prints its committed golden report
 * byte for byte — the same bytes the golden ctests pin for the
 * in-process run. Also: the DVFS ablation's probes are session slices
 * and a point whose probes failed is a failed point, and a GEMM
 * sweep's slices retry injected faults and refuse
 * process-level fault modes without process isolation, as the
 * estimator's do.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dnn/estimator.h"
#include "proc/wire_codec.h"
#include "save/frequency.h"
#include "serve/client.h"
#include "serve/session.h"
#include "sweep/sweep.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/posix_io.h"

using namespace save;

namespace {

/** Run `cmd` through the shell; its exit code, with stdout and
 *  stderr captured into `out` and `err`. */
int
runShell(const std::string &cmd, std::string &out, std::string &err)
{
    static std::atomic<int> counter{0};
    const std::string base = "/tmp/sw_sh_" + std::to_string(::getpid()) +
                             "_" + std::to_string(counter.fetch_add(1));
    const int status = std::system(
        (cmd + " > " + base + ".out 2> " + base + ".err").c_str());
    readFileBytes(base + ".out", out, nullptr);
    readFileBytes(base + ".err", err, nullptr);
    ::unlink((base + ".out").c_str());
    ::unlink((base + ".err").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The knob flags and golden file of a sweep's golden ctest. */
struct Golden
{
    std::string args;
    std::string file;
};

Golden
goldenFor(const std::string &name)
{
    if (name == "fig14")
        return {"--grid=9 --ksteps=8 --tiles=1 --seed=7",
                "fig14_grid9_k8_t1_seed7.txt"};
    return {"--ksteps=24 --tiles=1", name + "_k24_t1.txt"};
}

std::vector<std::string>
sweepNames()
{
    std::vector<std::string> names;
    for (const SweepSpec *s : allSweeps())
        names.push_back(s->name);
    return names;
}

uint64_t
completedRequests(const std::string &socket)
{
    ServeRequest req;
    req.kind = ServeKind::Status;
    return ServeClient(socket).call(req, nullptr, 5000).status.completed;
}

} // namespace

TEST(SweepRegistry, NamesAreUniqueAndFound)
{
    const std::vector<std::string> names = sweepNames();
    ASSERT_EQ(names.size(), 10u);
    for (const std::string &n : names) {
        EXPECT_EQ(findSweep(n).name, n);
        const SweepSpec &s = findSweep(n);
        EXPECT_GE(s.defaultGrid, 1) << n;
        EXPECT_GE(s.width, 1u) << n;
    }
    EXPECT_THROW(findSweep("fig99"), ConfigError);
    EXPECT_THROW(findSweep(""), ConfigError);
}

TEST(SweepRegistry, PointKeysAreUnique)
{
    for (const SweepSpec *s : allSweeps()) {
        SweepKnobs k;
        k.gridStep = s->defaultGrid;
        std::vector<std::string> keys = sweepKeys(*s, k);
        ASSERT_FALSE(keys.empty()) << s->name;
        std::sort(keys.begin(), keys.end());
        EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
            << s->name;
    }
}

TEST(SweepKnobs, OneRangeCheckForSweepsAndTheEstimator)
{
    SweepKnobs ok;
    EXPECT_NO_THROW(ok.validate());
    for (int grid : {0, -1, 10}) {
        SweepKnobs k;
        k.gridStep = grid;
        EXPECT_THROW(k.validate(), ConfigError) << grid;
        EstimatorOptions eo;
        eo.gridStep = grid;
        EXPECT_THROW(eo.validate(), ConfigError) << grid;
    }
    SweepKnobs k;
    k.kSteps = 0;
    EXPECT_THROW(k.validate(), ConfigError);
    k = SweepKnobs{};
    k.tiles = 0;
    EXPECT_THROW(k.validate(), ConfigError);
    k = SweepKnobs{};
    k.cores = 0;
    EXPECT_THROW(k.validate(), ConfigError);
}

TEST(SweepSession, DvfsProbesAreMemoizedSlices)
{
    // The DVFS ablation's counter probes reach the engine through the
    // session like every other slice: on a fresh store a point
    // simulates four slices (the probe and the full slice, each with
    // 2 VPUs and with 1) and on a warm store none, with the same
    // values.
    const SweepSpec &spec = findSweep("ablation_dvfs");
    SweepKnobs k;
    k.gridStep = 9;
    k.kSteps = 24;
    k.tiles = 1;
    const size_t n = spec.points(k).size();
    const std::string dir = "/tmp/sw_dvfs_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::vector<std::vector<double>> cold;
    for (const bool warm : {false, true}) {
        SimSession::Options o;
        o.runtime.threads = 1;
        o.runtime.cacheDir = dir;
        SimSession session(o);
        for (size_t i = 0; i < n; ++i) {
            const std::vector<double> v = session.runPoint(spec, k, i);
            if (!warm)
                cold.push_back(v);
            else
                EXPECT_EQ(std::memcmp(v.data(), cold[i].data(),
                                      v.size() * sizeof(double)),
                          0)
                    << i;
        }
        EXPECT_EQ(session.simulations(), warm ? 0 : 4 * n);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepSession, DvfsPointWithFailedProbesIsAFailedPoint)
{
    // When only a point's two probe slices fail for good, its full
    // slices still time, but the counter heuristic has nothing to
    // read: the point is a failed point, on its first attempt and on
    // a retry, never a row with utilization 0 and the default choice
    // of 2 VPUs. The plan that selects exactly those two slices is
    // found by asking the injector about each slice's fault site.
    const SweepSpec &spec = findSweep("ablation_dvfs");
    SweepKnobs k;
    k.gridStep = 9;
    k.kSteps = 24;
    k.tiles = 1;
    const int a = gridBins(k).front();
    ASSERT_EQ(spec.points(k).front().key, "a" + std::to_string(a));
    const GemmConfig full =
        sliceFor(resnetKernel("resnet2_2b", Phase::Forward),
                 Precision::Fp32, a * 0.1, 0.0, k,
                 101 + static_cast<uint64_t>(a));
    const GemmConfig probe = vpuProbe(full);
    auto selected = [](const GemmConfig &g, int vpus) {
        try {
            FaultInjector::global().maybeFailSlice(sliceFaultSite(
                {MachineConfig{}, SaveConfig{}, g, 1, vpus}));
            return false;
        } catch (const TraceError &) {
            return true;
        }
    };
    FaultPlan plan;
    plan.sliceProb = 0.5;
    plan.sliceTimes = 1000;
    for (plan.seed = 1; plan.seed < 1000; ++plan.seed) {
        FaultInjector::global().configure(plan);
        if (selected(probe, 2) && selected(probe, 1) &&
            !selected(full, 2) && !selected(full, 1))
            break;
    }
    ASSERT_LT(plan.seed, 1000u);
    FaultInjector::global().configure(plan); // clears the probes' counts

    SimSession::Options o;
    o.runtime.threads = 1;
    o.runtime.cacheDir = "none";
    SimSession session(o);
    setQuietLogging(true);
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_THROW(session.runPoint(spec, k, 0), SimError) << attempt;
    setQuietLogging(false);
    FaultInjector::global().reset();
    EXPECT_NE(session.failureReport().find("2 slice(s) failed permanently"),
              std::string::npos)
        << session.failureReport();
    // The full slices ran on both attempts (there is no store); the
    // failed probes are recorded once.
    EXPECT_EQ(session.simulations(), 4u);
}

TEST(SweepSession, GemmSlicesRetryInjectedFaults)
{
    // A GEMM sweep's slices take the same retry path as the
    // estimator's: with every slice failing its first attempt, fig15
    // retries each of its slices once and prints its fault-free
    // report.
    const SweepSpec &spec = findSweep("fig15");
    SweepKnobs k;
    k.gridStep = 9;
    k.kSteps = 8;
    k.tiles = 1;
    const std::string cmd = std::string(SAVE_BENCH_DIR) +
                            "/bench_fig15 --grid=9 --ksteps=8 --tiles=1 "
                            "--threads=1 --cache-dir=none";
    std::string ref, out, err;
    ASSERT_EQ(runShell(cmd, ref, err), 0) << err;
    EXPECT_EQ(runShell("SAVE_FAULT_INJECT=slice=1.0,times=1,seed=42 " + cmd,
                       out, err),
              0)
        << err;
    EXPECT_EQ(out, ref);
    size_t retries = 0;
    for (size_t at = err.find("retrying slice"); at != std::string::npos;
         at = err.find("retrying slice", at + 1))
        ++retries;
    // One slice per point, each distinct.
    EXPECT_EQ(retries, spec.points(k).size()) << err;
}

TEST(SweepSession, ProcessFaultModesNeedProcessIsolation)
{
    // A raised SIGSEGV cannot be contained in-process, so without
    // process isolation crash/abort/hang/oom plans are refused before
    // any slice runs: by a session, and so by every sweep bench.
    FaultInjector::global().configure(
        FaultInjector::parsePlan("crash=1.0,times=1"));
    for (const char *iso : {"none", "thread"}) {
        SimSession::Options o;
        o.runtime.threads = 1;
        o.runtime.cacheDir = "none";
        o.runtime.isolation = iso;
        EXPECT_THROW(SimSession{o}, ConfigError) << iso;
    }
    FaultInjector::global().reset();
    for (const char *bench : {"fig14", "fig15"}) {
        std::string out, err;
        EXPECT_EQ(runShell("SAVE_FAULT_INJECT=crash=1.0,times=1 " +
                               std::string(SAVE_BENCH_DIR) + "/bench_" +
                               bench +
                               " --grid=9 --ksteps=8 --tiles=1 "
                               "--isolation=thread --cache-dir=none",
                           out, err),
                  2)
            << bench << ": " << err;
        EXPECT_NE(err.find("require --isolation=process"),
                  std::string::npos)
            << err;
    }
}

/** One daemon for every sweep of the identity bar. */
class RemoteSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    static void
    SetUpTestSuite()
    {
        socket_ = "/tmp/sw_" + std::to_string(::getpid()) + ".sock";
        pid_ = ::fork();
        if (pid_ == 0) {
            const std::string sock = "--socket=" + socket_;
            ::execl(SAVE_SERVE_BIN_PATH, SAVE_SERVE_BIN_PATH, sock.c_str(),
                    "--workers=2", "--threads=2", "--cache-dir=none",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ServeRequest ping;
        ping.kind = ServeKind::Ping;
        for (int waited = 0; waited < 15000; waited += 50) {
            try {
                ServeClient(socket_).call(ping, nullptr, 2000);
                return;
            } catch (const SimError &) {
                ::usleep(50 * 1000);
            }
        }
    }

    static void
    TearDownTestSuite()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status;
            ::waitpid(pid_, &status, 0);
        }
        ::unlink(socket_.c_str());
    }

    static std::string socket_;
    static pid_t pid_;
};

std::string RemoteSweep::socket_;
pid_t RemoteSweep::pid_ = -1;

TEST_P(RemoteSweep, ServedAndShardedMatchTheGolden)
{
    const std::string name = GetParam();
    const Golden g = goldenFor(name);
    std::string expected;
    ASSERT_TRUE(readFileBytes(std::string(SAVE_GOLDEN_DIR) + "/" + g.file,
                              expected, nullptr));

    std::string out, err;
    EXPECT_EQ(runShell(std::string(SAVE_CTL_BIN_PATH) + " " + name +
                           " --socket=" + socket_ + " " + g.args,
                       out, err),
              0)
        << err;
    EXPECT_EQ(out, expected) << "save-ctl " << name;

    const uint64_t before = completedRequests(socket_);
    EXPECT_EQ(runShell(std::string(SAVE_BENCH_DIR) + "/bench_" + name +
                           " " + g.args + " --sockets=" + socket_ +
                           " --inproc=1 --threads=2 --cache-dir=none",
                       out, err),
              0)
        << err;
    EXPECT_EQ(out, expected) << "bench_" << name << " --sockets";
    // The daemon computed some of the sharded run's points.
    EXPECT_GT(completedRequests(socket_), before) << err;
}

INSTANTIATE_TEST_SUITE_P(AllSweeps, RemoteSweep,
                         ::testing::ValuesIn(sweepNames()),
                         [](const ::testing::TestParamInfo<std::string> &i) {
                             return i.param;
                         });
