/**
 * @file
 * Sweep registry tests and the generic remote-identity bar: every
 * SweepSpec (sweep/sweep.h), served whole to `save-ctl <name>` and
 * sharded by `bench_<name> --sockets=<daemon> --inproc=1` across one
 * daemon and an in-process lane, prints its committed golden report
 * byte for byte — the same bytes the golden ctests pin for the
 * in-process run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dnn/estimator.h"
#include "serve/client.h"
#include "sweep/sweep.h"
#include "util/error.h"
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
