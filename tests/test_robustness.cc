/**
 * @file
 * Hardened-harness coverage: error taxonomy and validate() rejection
 * messages, the retirement watchdog (via forced fault injection), the
 * estimator's retry/fault-isolation policy, deadline-bounded reads,
 * and flag parsing. Store corruption and quarantine live in
 * test_result_store; a sweep point's retries, failure report and exit
 * code live in test_shard (ShardCoordinator and bench_fig14).
 *
 * Every fault here is injected deterministically (FaultInjector), so
 * the recovery paths run on every CI invocation, not just when
 * something happens to break.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include "../bench/bench_util.h"
#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "engine/engine.h"
#include "kernels/gemm.h"
#include "kernels/lstm.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/frame.h"
#include "util/logging.h"
#include "util/posix_io.h"

namespace save {
namespace {

/** Fast estimator knobs shared by the fault-injection tests. */
EstimatorOptions
fastOptions(int threads = 2)
{
    EstimatorOptions o;
    o.kSteps = 24;
    o.tiles = 1;
    o.gridStep = 9;
    o.threads = threads;
    o.cacheDir = "none";
    return o;
}

NetworkModel
tinyNet()
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);
    return net;
}

bool
bytesEqual(const NetResult &a, const NetResult &b)
{
    return std::memcmp(&a, &b, sizeof(NetResult)) == 0;
}

/** Resets the global injector around every test. */
class RobustnessTest : public ::testing::Test
{
  protected:
    RobustnessTest() { FaultInjector::global().reset(); }
    ~RobustnessTest() override { FaultInjector::global().reset(); }
};

// ------------------------------------------------------ error taxonomy

TEST_F(RobustnessTest, ContextFormatsOnlySetFields)
{
    SimError::Context ctx;
    EXPECT_EQ(ctx.toString(), "");
    ctx.coreId = 3;
    ctx.cycle = 1024;
    std::string s = ctx.toString();
    EXPECT_NE(s.find("core 3"), std::string::npos) << s;
    EXPECT_NE(s.find("cycle 1024"), std::string::npos) << s;
    EXPECT_EQ(s.find("uop"), std::string::npos) << s;
}

TEST_F(RobustnessTest, MachineConfigValidateNamesTheField)
{
    MachineConfig m;
    m.cores = 0;
    try {
        m.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("cores"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("got 0"),
                  std::string::npos)
            << e.what();
    }

    MachineConfig bad_freq;
    bad_freq.freq2VpuGhz = -1.0;
    EXPECT_THROW(bad_freq.validate(), ConfigError);
    EXPECT_NO_THROW(MachineConfig{}.validate());
}

TEST_F(RobustnessTest, SaveConfigValidateRejectsBadRotationStates)
{
    SaveConfig s;
    s.rotationStates = 0;
    EXPECT_THROW(s.validate(), ConfigError);
    EXPECT_NO_THROW(SaveConfig{}.validate());
    EXPECT_NO_THROW(SaveConfig::baseline().validate());
}

TEST_F(RobustnessTest, GemmConfigValidateRejectsBadShapes)
{
    GemmConfig g;
    g.mr = 0;
    EXPECT_THROW(g.validate(), ConfigError);

    GemmConfig frac;
    frac.bsSparsity = 1.5;
    EXPECT_THROW(frac.validate(), ConfigError);

    GemmConfig big;
    big.mr = 32;
    big.nrVecs = 1;
    big.pattern = BroadcastPattern::Embedded;
    EXPECT_THROW(big.validate(), ConfigError);
    EXPECT_NO_THROW(GemmConfig{}.validate());
}

TEST_F(RobustnessTest, LstmCellValidateNamesTheCell)
{
    LstmCell c;
    c.name = "enc0";
    c.batch = 0;
    try {
        c.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("enc0"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(RobustnessTest, EstimatorOptionsValidateRejectsBadKnobs)
{
    EstimatorOptions o;
    o.threads = -1;
    EXPECT_THROW(o.validate(), ConfigError);
    o = EstimatorOptions{};
    o.maxRetries = -1;
    EXPECT_THROW(o.validate(), ConfigError);
    EXPECT_NO_THROW(EstimatorOptions{}.validate());
}

TEST_F(RobustnessTest, EngineRejectsOutOfRangeResources)
{
    Engine eng(MachineConfig{}, SaveConfig{});
    GemmConfig g;
    g.kSteps = 8;
    g.tiles = 1;
    EXPECT_THROW(eng.runGemm(g, 99, 2), ConfigError);
    EXPECT_THROW(eng.runGemm(g, 1, 0), ConfigError);

    // A chain result publishes mpFmaLatency cycles out, into the
    // 64-slot publish ring: 63 runs, 64 is rejected by name.
    GemmConfig mp = g;
    mp.precision = Precision::Bf16;
    MachineConfig slow;
    slow.mpFmaLatency = 64;
    try {
        Engine(slow, SaveConfig{}).runGemm(mp, 1, 2);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("mpFmaLatency"),
                  std::string::npos)
            << e.what();
    }
    slow.mpFmaLatency = 63;
    KernelResult r = Engine(slow, SaveConfig{}).runGemm(mp, 1, 2);
    EXPECT_GT(r.stats.get("mp_mls_issued"), 0.0);
}

// ------------------------------------------------------------ watchdog

TEST_F(RobustnessTest, ForcedWatchdogNamesCoreAndDumpsPipeline)
{
    FaultPlan plan;
    plan.watchdogCore = 0;
    plan.watchdogAfterCycles = 50;
    FaultInjector::global().configure(plan);

    Engine eng(MachineConfig{}, SaveConfig{});
    GemmConfig g;
    g.kSteps = 64;
    g.tiles = 2;
    try {
        eng.runGemm(g, 1, 2);
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.context().coreId, 0);
        EXPECT_GE(e.context().cycle, 50);
        std::string what = e.what();
        EXPECT_NE(what.find("core 0"), std::string::npos) << what;
        EXPECT_NE(e.snapshot().find("rob:"), std::string::npos)
            << e.snapshot();
        EXPECT_NE(e.snapshot().find("vpu0:"), std::string::npos)
            << e.snapshot();
    }

    // Injection off: the same kernel completes.
    FaultInjector::global().reset();
    EXPECT_NO_THROW(eng.runGemm(g, 1, 2));
}

// ----------------------------------------- retry and fault isolation

TEST_F(RobustnessTest, InjectedSliceFaultsRetryToBitIdenticalResult)
{
    NetworkModel net = tinyNet();

    EstimatorOptions opt = fastOptions();
    TrainingEstimator clean(MachineConfig{}, SaveConfig{}, opt);
    NetResult want = clean.inference(net, Precision::Fp32);

    // Every slice throws once; one retry recovers each.
    FaultPlan plan;
    plan.sliceProb = 1.0;
    plan.sliceTimes = 1;
    plan.seed = 42;
    FaultInjector::global().configure(plan);
    setQuietLogging(true);
    TrainingEstimator faulty(MachineConfig{}, SaveConfig{}, opt);
    NetResult got = faulty.inference(net, Precision::Fp32);
    setQuietLogging(false);

    EXPECT_TRUE(bytesEqual(want, got));
    EXPECT_EQ(faulty.simulations(), clean.simulations());
    EXPECT_TRUE(faulty.failures().empty());
    EXPECT_EQ(faulty.failureReport(), "");
}

TEST_F(RobustnessTest, ExhaustedRetriesYieldNanAndFailureReport)
{
    NetworkModel net = tinyNet();

    FaultPlan plan;
    plan.sliceProb = 1.0;
    plan.sliceTimes = 1000; // never recovers
    FaultInjector::global().configure(plan);

    EstimatorOptions opt = fastOptions();
    opt.maxRetries = 1;
    setQuietLogging(true);
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
    NetResult r = est.inference(net, Precision::Fp32);
    setQuietLogging(false);

    EXPECT_TRUE(std::isnan(r.baseline2.total()));
    // failures() returns a snapshot copy; keep it alive while we poke
    // at the front element.
    std::vector<SliceFailure> fails = est.failures();
    ASSERT_FALSE(fails.empty());
    const SliceFailure &f = fails.front();
    EXPECT_EQ(f.attempts, 2);
    EXPECT_NE(f.reason.find("injected slice fault"), std::string::npos)
        << f.reason;
    EXPECT_NE(est.failureReport().find("failed permanently"),
              std::string::npos);
    EXPECT_EQ(est.simulations(), 0u);
}

TEST_F(RobustnessTest, FailFastRethrowsTheSliceFault)
{
    FaultPlan plan;
    plan.sliceProb = 1.0;
    plan.sliceTimes = 1000;
    FaultInjector::global().configure(plan);

    EstimatorOptions opt = fastOptions(1);
    opt.maxRetries = 0;
    opt.failFast = true;
    setQuietLogging(true);
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
    EXPECT_THROW(est.inference(tinyNet(), Precision::Fp32), TraceError);
    setQuietLogging(false);
}

TEST_F(RobustnessTest, FaultSelectionIsDeterministic)
{
    FaultPlan plan;
    plan.sliceProb = 0.5;
    plan.seed = 7;
    plan.sliceTimes = 1;

    auto selected = [&](uint64_t key) {
        FaultInjector::global().configure(plan);
        bool threw = false;
        try {
            FaultInjector::global().maybeFailSlice(key);
        } catch (const TraceError &) {
            threw = true;
        }
        return threw;
    };
    int hits = 0;
    for (uint64_t k = 0; k < 64; ++k) {
        bool first = selected(k);
        EXPECT_EQ(first, selected(k)) << "key " << k;
        hits += first ? 1 : 0;
    }
    // ~50% of keys selected; generous determinism-friendly bounds.
    EXPECT_GT(hits, 16);
    EXPECT_LT(hits, 48);
}

TEST_F(RobustnessTest, ParsePlanAcceptsSpecAndRejectsGarbage)
{
    FaultPlan p = FaultInjector::parsePlan(
        "slice=0.25,times=3,seed=9,watchdog-core=1,watchdog-after=77");
    EXPECT_DOUBLE_EQ(p.sliceProb, 0.25);
    EXPECT_EQ(p.sliceTimes, 3);
    EXPECT_EQ(p.seed, 9u);
    EXPECT_EQ(p.watchdogCore, 1);
    EXPECT_EQ(p.watchdogAfterCycles, 77u);

    EXPECT_THROW(FaultInjector::parsePlan("slice=2.0"), ConfigError);
    EXPECT_THROW(FaultInjector::parsePlan("slice=abc"), ConfigError);
    EXPECT_THROW(FaultInjector::parsePlan("times=0"), ConfigError);
    EXPECT_THROW(FaultInjector::parsePlan("nonsense=1"), ConfigError);
}

// ------------------------------------------- deadline-bounded reads

namespace {
void
sigusr1Noop(int)
{
}
} // namespace

/** RAII SIGUSR1 handler WITHOUT SA_RESTART (every delivery interrupts
 *  poll/read with EINTR) plus a thread hammering this thread with it. */
class SignalStorm
{
  public:
    SignalStorm()
    {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sigusr1Noop;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0; // no SA_RESTART
        sigaction(SIGUSR1, &sa, &old_);
        pthread_t victim = pthread_self();
        storm_ = std::thread([this, victim] {
            while (!stop_.load()) {
                ::pthread_kill(victim, SIGUSR1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        });
    }

    ~SignalStorm()
    {
        stop_.store(true);
        storm_.join();
        sigaction(SIGUSR1, &old_, nullptr);
    }

  private:
    struct sigaction old_;
    std::atomic<bool> stop_{false};
    std::thread storm_;
};

TEST_F(RobustnessTest, PollReadableKeepsDeadlineUnderSignalStorm)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    // With ~1ms EINTR wakeups, a poll that restarted with the FULL
    // timeout after each interruption would never expire. The fix
    // recomputes the remaining budget, so 200ms means about 200ms.
    const auto t0 = std::chrono::steady_clock::now();
    int r;
    {
        SignalStorm storm;
        r = pollReadable(fds[0], 200);
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(r, 0) << "empty pipe must time out, not spuriously wake";
    EXPECT_GE(elapsed, 180) << "deadline shaved short";
    EXPECT_LT(elapsed, 2000) << "deadline extended by EINTR restarts";

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(RobustnessTest, FrameReadCompletesUnderSignalStormWithSlowPeer)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    std::vector<uint8_t> bytes;
    frameAppend(bytes, frameFourcc('T', 'E', 'S', 'T'), 7,
                std::vector<uint8_t>{1, 2, 3, 4});

    // A peer trickling one byte every 2ms while signals hammer the
    // reader: every partial read gets EINTR'd and retried, and the
    // overall deadline still holds.
    std::thread writer([&] {
        for (uint8_t b : bytes) {
            (void)!::write(fds[1], &b, 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::close(fds[1]);
    });

    Frame frame;
    FrameRead rr;
    {
        SignalStorm storm;
        rr = frameReadFd(
            fds[0], frame, 10000, [](uint32_t) { return true; },
            1 << 20, "test");
    }
    writer.join();
    ASSERT_EQ(rr, FrameRead::Ok);
    EXPECT_EQ(frame.fourcc, frameFourcc('T', 'E', 'S', 'T'));
    EXPECT_EQ(frame.arg, 7u);
    EXPECT_EQ(frame.payload, (std::vector<uint8_t>{1, 2, 3, 4}));

    ::close(fds[0]);
}

// --------------------------------------------------- flag parsing

TEST_F(RobustnessTest, FlagsRejectMalformedIntegers)
{
    const char *argv_bad[] = {"bench", "--threads=abc"};
    Flags bad(2, const_cast<char **>(argv_bad));
    EXPECT_THROW(bad.getInt("threads", 0), ConfigError);

    const char *argv_tail[] = {"bench", "--grid=3x"};
    Flags tail(2, const_cast<char **>(argv_tail));
    EXPECT_THROW(tail.getInt("grid", 1), ConfigError);

    const char *argv_ok[] = {"bench", "--grid=3", "--threads=-1"};
    Flags ok(3, const_cast<char **>(argv_ok));
    EXPECT_EQ(ok.getInt("grid", 1), 3);
    // -1 parses, but runtimeOptions() rejects it with an actionable
    // message instead of the old assert-abort.
    EXPECT_THROW(runtimeOptions(ok), ConfigError);
}

} // namespace
} // namespace save
