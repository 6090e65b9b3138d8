/**
 * @file
 * Tests for the parallel simulation layer: the work-stealing thread
 * pool, the estimator's concurrent slice fan-out (results must be
 * bit-identical to the serial path for every thread count), and the
 * estimator's persistence through the result store.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <set>
#include <stdexcept>
#include <unistd.h>

#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace save {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1);
}

TEST(ThreadPool, UsesMultipleThreads)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> ids;
    // Enough chunky tasks that helpers wake up and participate.
    pool.parallelFor(64, [&](int64_t) {
        volatile uint64_t x = 0;
        for (int k = 0; k < 2'000'000; ++k)
            x = x + static_cast<uint64_t>(k);
        std::lock_guard<std::mutex> lk(mu);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](int64_t) {
        pool.parallelFor(8, [&](int64_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [&](int64_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneSizedLoops)
{
    ThreadPool pool(2);
    int runs = 0;
    pool.parallelFor(0, [&](int64_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    pool.parallelFor(1, [&](int64_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

// ----------------------------------------------- estimator determinism

EstimatorOptions
fastOptions(int threads)
{
    EstimatorOptions o;
    o.kSteps = 24;
    o.tiles = 1;
    o.gridStep = 9; // only 0% and 90% bins: fast
    o.threads = threads;
    o.cacheDir = "none"; // never mix persistent state into this test
    return o;
}

/** Byte-wise equality: "bit-identical" in the strictest sense. */
bool
bytesEqual(const NetResult &a, const NetResult &b)
{
    return std::memcmp(&a, &b, sizeof(NetResult)) == 0;
}

TEST(ParallelEstimator, BitIdenticalAcrossThreadCounts)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(4);
    net.schedule = PruningSchedule::none(3);

    TrainingEstimator serial(MachineConfig{}, SaveConfig{},
                             fastOptions(1));
    EXPECT_EQ(serial.threads(), 1);
    NetResult want_inf = serial.inference(net, Precision::Fp32);
    NetResult want_train = serial.training(net, Precision::Bf16);

    for (int threads : {2, 8}) {
        TrainingEstimator par(MachineConfig{}, SaveConfig{},
                              fastOptions(threads));
        EXPECT_EQ(par.threads(), threads);
        NetResult inf = par.inference(net, Precision::Fp32);
        NetResult train = par.training(net, Precision::Bf16);
        EXPECT_TRUE(bytesEqual(want_inf, inf))
            << "inference differs with " << threads << " threads";
        EXPECT_TRUE(bytesEqual(want_train, train))
            << "training differs with " << threads << " threads";
    }
}

TEST(ParallelEstimator, FanOutMatchesSerialSimulationCount)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);

    TrainingEstimator serial(MachineConfig{}, SaveConfig{},
                             fastOptions(1));
    TrainingEstimator par(MachineConfig{}, SaveConfig{},
                          fastOptions(4));
    serial.inference(net, Precision::Fp32);
    par.inference(net, Precision::Fp32);
    // Single-flight dedup: the concurrent fan-out must not simulate
    // any surface point twice.
    EXPECT_EQ(par.simulations(), serial.simulations());
}

TEST(ParallelEstimator, PrefetchCoversEvaluation)
{
    NetworkModel pruned = resnet50Pruned();
    pruned.convLayers.resize(4);
    NetworkModel dense = vgg16Dense();
    dense.convLayers.resize(3);

    for (const NetworkModel &net : {dense, pruned})
        for (bool inference_only : {true, false}) {
            TrainingEstimator est(MachineConfig{}, SaveConfig{},
                                  fastOptions(2));
            est.prefetch(net, Precision::Fp32, inference_only);
            uint64_t after_prefetch = est.simulations();
            EXPECT_GT(after_prefetch, 0u);
            if (inference_only)
                est.inference(net, Precision::Fp32);
            else
                est.training(net, Precision::Fp32);
            // The evaluation itself must be fully served from cache:
            // prefetch simulates exactly the corners it reads.
            EXPECT_EQ(est.simulations(), after_prefetch)
                << net.name << (inference_only ? " inference"
                                               : " training");
        }
}

TEST(ParallelEstimator, ZeroWeightCornersAreNeverSimulated)
{
    // A dense VGG's first-layer forward kernel has nbs = 0 (dense
    // weights) and bs = 0 (first layer): at gridStep 3 both fall on
    // bin 0 with interpolation weight 0 on the 30% neighbours, so one
    // SAVE corner per VPU count is all the lookup reads.
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);
    const KernelSpec first =
        makeConvKernel(net.convLayers[0], Phase::Forward, net.batch);
    const double nbs = net.schedule.sparsityAt(net.steps() - 1);
    ASSERT_EQ(nbs, 0.0);

    EstimatorOptions opt = fastOptions(2);
    opt.gridStep = 3;
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
    est.kernelTime(first, Precision::Fp32, 0.0, nbs, true, 2);
    EXPECT_EQ(est.simulations(), 1u);
    est.kernelTime(first, Precision::Fp32, 0.0, nbs, true, 1);
    EXPECT_EQ(est.simulations(), 2u);
}

TEST(ParallelEstimator, FailFastRethrowsWithoutHanging)
{
    FaultPlan plan;
    plan.sliceProb = 1.0;
    plan.sliceTimes = 1000; // every attempt fails: a permanent failure
    FaultInjector::global().configure(plan);
    setQuietLogging(true);

    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);
    EstimatorOptions opt = fastOptions(2);
    opt.maxRetries = 0;
    opt.failFast = true;
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
    auto sweep = std::async(std::launch::async, [&] {
        est.inference(net, Precision::Fp32);
    });
    if (sweep.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "failFast prefetch hung";
        std::_Exit(1); // the sweep thread can never be joined
    }
    EXPECT_THROW(sweep.get(), TraceError);
    // The failure is memoized: the same point fails again at once
    // instead of waiting on a promise nobody resolves.
    EXPECT_THROW(est.inference(net, Precision::Fp32), TraceError);
    EXPECT_EQ(est.simulations(), 0u);

    setQuietLogging(false);
    FaultInjector::global().reset();
}

// ------------------------------------------------------ persistent store

class PersistentStoreTest : public ::testing::Test
{
  protected:
    PersistentStoreTest()
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("save-cache-test-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
    }

    ~PersistentStoreTest() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(PersistentStoreTest, EstimatorPersistsAndReloadsSurfaces)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(2);

    EstimatorOptions o;
    o.kSteps = 24;
    o.tiles = 1;
    o.gridStep = 9;
    o.threads = 2;
    o.cacheDir = dir_.string();

    NetResult cold, warm;
    uint64_t cold_sims;
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        EXPECT_EQ(est.persistentHits(), 0u);
        cold = est.inference(net, Precision::Fp32);
        cold_sims = est.simulations();
        EXPECT_GT(cold_sims, 0u);
        // Every simulated point was persisted as it completed.
        ASSERT_NE(est.resultStore(), nullptr);
        EXPECT_EQ(est.resultStore()->inserts(), cold_sims);
    }

    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        warm = est.inference(net, Precision::Fp32);
        // Warm run: every point served from the store (lookups are
        // lazy, so hits accrue during evaluation), zero new
        // simulations, bit-identical result.
        EXPECT_EQ(est.persistentHits(), cold_sims);
        EXPECT_EQ(est.simulations(), 0u);
        EXPECT_EQ(std::memcmp(&cold, &warm, sizeof cold), 0);
    }

    // A different machine config must miss the store for every point.
    MachineConfig other;
    other.dramGBps *= 2;
    TrainingEstimator est(other, SaveConfig{}, o);
    est.inference(net, Precision::Fp32);
    EXPECT_EQ(est.persistentHits(), 0u);
    EXPECT_GT(est.simulations(), 0u);
}

} // namespace
} // namespace save
