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
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/frame.h"
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

/** The 20 doubles of a NetResult in hex float (%a), one operating
 *  point per line: bit-exact and diffable. */
std::string
hexNetResult(const std::string &label, const NetResult &r)
{
    const std::pair<const char *, const PhaseBreakdown *> points[] = {
        {"baseline2", &r.baseline2}, {"save2", &r.save2},
        {"save1", &r.save1},         {"static", &r.saveStatic},
        {"dynamic", &r.saveDynamic},
    };
    std::string out;
    for (const auto &[name, b] : points) {
        char line[256];
        std::snprintf(line, sizeof line, "%s %s %a %a %a %a\n",
                      label.c_str(), name, b->firstLayer, b->forward,
                      b->bwdInput, b->bwdWeights);
        out += line;
    }
    return out;
}

/** kernelTime() of a ResNet-50 forward and backward-weights kernel on
 *  SAVE with 2 and 1 VPUs, one line per nbs, one %a per bs. The
 *  sparsities sit on the 30% bin edges, between them and above 90%. */
std::string
hexKernelTimes(TrainingEstimator &est, const std::string &label)
{
    const NetworkModel net = resnet50Pruned();
    const double sparsities[] = {0.3, 0.45, 0.6, 0.75, 0.9, 0.95};
    std::string out;
    for (Phase phase : {Phase::Forward, Phase::BwdWeights}) {
        const KernelSpec spec =
            makeConvKernel(net.convLayers[1], phase, net.batch);
        for (Precision prec : {Precision::Fp32, Precision::Bf16})
            for (int vpus : {2, 1})
                for (double nbs : sparsities) {
                    char line[64];
                    std::snprintf(line, sizeof line, "%s kernel %s %s %d "
                                  "nbs=%.2f",
                                  label.c_str(),
                                  phase == Phase::Forward ? "fwd" : "bwd-w",
                                  prec == Precision::Bf16 ? "bf16" : "fp32",
                                  vpus, nbs);
                    out += line;
                    for (double bs : sparsities) {
                        std::snprintf(line, sizeof line, " %a",
                                      est.kernelTime(spec, prec, bs, nbs,
                                                     true, vpus));
                        out += line;
                    }
                    out += '\n';
                }
    }
    return out;
}

/** Three truncated networks, one per estimator path: sparse
 *  gradients, pruned weights, and the LSTM backward's 2x MAC factor. */
std::vector<NetworkModel>
goldenNetworks()
{
    NetworkModel vgg = vgg16Dense();
    vgg.convLayers.resize(4);
    NetworkModel resnet = resnet50Pruned();
    resnet.convLayers.resize(4);
    NetworkModel gnmt = gnmtPruned();
    gnmt.cells.resize(3);
    return {vgg, resnet, gnmt};
}

/** Fail unless `actual` equals the golden file; on a mismatch write it
 *  to `out` for `diff`. */
void
expectGolden(const std::string &actual, const char *golden_path,
             const char *out_path)
{
    std::ifstream golden(golden_path);
    ASSERT_TRUE(golden.is_open()) << golden_path;
    std::ostringstream expected;
    expected << golden.rdbuf();
    if (actual != expected.str()) {
        std::ofstream(out_path) << actual;
        FAIL() << "output differs from the golden; see: diff "
               << golden_path << " " << out_path;
    }
}

TEST(ParallelEstimator, NetResultsMatchGolden)
{
    // Grids 1 (the paper's), 2 (the one grid whose top bin is 80%, so
    // sparsities above it clamp), 3 (the benchmarks'; most sparsities
    // fall between bins, so the weights are fractional) and 9 (the
    // report goldens').
    std::string actual;
    for (int grid : {3, 1, 2, 9}) {
        EstimatorOptions opt = fastOptions(2);
        opt.gridStep = grid;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
        const std::string g = "grid" + std::to_string(grid) + " ";
        for (const NetworkModel &net : goldenNetworks())
            for (Precision prec : {Precision::Fp32, Precision::Bf16}) {
                const std::string label =
                    g + net.name +
                    (prec == Precision::Bf16 ? " bf16" : " fp32");
                actual += hexNetResult(label + " inference",
                                       est.inference(net, prec));
                actual += hexNetResult(label + " training",
                                       est.training(net, prec));
            }
        actual += hexKernelTimes(est, g + "ResNet-50");
    }
    expectGolden(actual, SAVE_NETRESULTS_GOLDEN, SAVE_NETRESULTS_OUT);
}

/** Every record in the store at `dir`, in file order: its shard file
 *  name and its key. */
std::vector<std::pair<std::string, CasKey>>
storedKeys(const std::filesystem::path &dir)
{
    std::vector<std::pair<std::string, CasKey>> keys;
    for (int shard = 0; shard < ResultStore::kShards; ++shard) {
        char name[32];
        std::snprintf(name, sizeof name, "cas-%02x.savecas", shard);
        std::ifstream in(dir / name, std::ios::binary);
        const std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        for (uint64_t off = 0; off < bytes.size();) {
            FrameView rec;
            if (frameParse(bytes.data(), bytes.size(), off, rec, 1u << 20,
                           nullptr) != FrameParse::Ok) {
                ADD_FAILURE() << "unparsable record in " << name;
                break;
            }
            const uint8_t *p = rec.payload, *end = p + rec.len;
            CasKey key;
            key.cfg = frameGetU64(p, end);
            key.wl = frameGetU64(p, end);
            keys.emplace_back(name, key);
        }
    }
    return keys;
}

TEST(ParallelEstimator, FanOutOrderMatchesGolden)
{
    // First-request order fixes the fan-out order and so, with one
    // thread, the order of the records in each shard of a fresh store.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("save-fanout-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    EstimatorOptions opt = fastOptions(1);
    opt.gridStep = 3;
    opt.cacheDir = dir.string();
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
        for (const NetworkModel &net : goldenNetworks())
            for (Precision prec : {Precision::Fp32, Precision::Bf16}) {
                est.training(net, prec);
                est.inference(net, prec);
            }
    }
    std::string actual;
    for (const auto &[name, key] : storedKeys(dir)) {
        char line[64];
        std::snprintf(line, sizeof line, "%s %016llx %016llx\n",
                      name.c_str(), static_cast<unsigned long long>(key.cfg),
                      static_cast<unsigned long long>(key.wl));
        actual += line;
    }
    std::filesystem::remove_all(dir);
    EXPECT_FALSE(actual.empty());
    expectGolden(actual, SAVE_FANOUT_GOLDEN, SAVE_FANOUT_OUT);
}

TEST(ParallelEstimator, SharedFillsMatchSimulateSliceKernel)
{
    // An in-process fan-out fills a slice's data once for the points
    // that differ only in configuration: a SAVE 2-VPU/1-VPU twin, and
    // at bins (0, 0) the baseline as well. Each run simulates its own
    // copy, so every stored result must equal a fresh
    // simulateSliceKernel bit for bit: explicit (forward) and embedded
    // (backward) broadcast, FP32 and BF16, 1 and 2 cores, 1 and 3
    // threads, and runs that retry after an injected slice failure.
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("save-shared-fill-test-" + std::to_string(::getpid()));
    setQuietLogging(true);
    struct Run
    {
        int cores, threads;
        bool faults;
    };
    for (const Run run : {Run{1, 1, false}, Run{1, 3, false},
                          Run{2, 1, false}, Run{2, 3, false},
                          Run{2, 3, true}}) {
        SCOPED_TRACE("cores " + std::to_string(run.cores) + " threads " +
                     std::to_string(run.threads) +
                     (run.faults ? " faults" : ""));
        if (run.faults) {
            FaultPlan plan;
            plan.sliceProb = 1.0; // every point fails its first attempt
            FaultInjector::global().configure(plan);
        }
        std::filesystem::remove_all(dir);
        EstimatorOptions opt = fastOptions(run.threads);
        opt.cores = run.cores;
        opt.maxRetries = 1;
        opt.cacheDir = dir.string();
        {
            TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);
            for (Precision prec : {Precision::Fp32, Precision::Bf16})
                est.prefetch(net, prec, false);
            EXPECT_TRUE(est.failures().empty()) << est.failureReport();
        }
        FaultInjector::global().reset();

        // Every point the walk can name, by its workload digest.
        std::map<uint64_t, SliceKey> points;
        for (const ConvLayer &layer : net.convLayers)
            for (Phase phase :
                 {Phase::Forward, Phase::BwdInput, Phase::BwdWeights})
                for (Precision prec : {Precision::Fp32, Precision::Bf16}) {
                    const GemmConfig g =
                        makeConvKernel(layer, phase, net.batch)
                            .slice(prec, 0.0, 0.0, opt.kSteps, opt.seed);
                    for (int c = 0; c < 3; ++c)
                        for (int w = 0; w < 10; ++w)
                            for (int a = 0; a < 10; ++a) {
                                const SliceKey k{
                                    g.mr, g.nrVecs, g.kSteps,
                                    static_cast<uint8_t>(g.pattern),
                                    static_cast<uint8_t>(prec),
                                    static_cast<uint8_t>(c > 0),
                                    static_cast<uint8_t>(c == 2 ? 1 : 2),
                                    static_cast<uint8_t>(w),
                                    static_cast<uint8_t>(a)};
                                points[casSliceWorkload(k)] = k;
                            }
                }

        // Configurations stored per fill, and the patterns and
        // precisions covered.
        std::map<SliceKey, int> configs;
        std::set<std::pair<int, int>> kinds;
        ResultStore store(ResultStore::Options{dir.string(), 0});
        for (const auto &[name, ck] : storedKeys(dir)) {
            auto it = points.find(ck.wl);
            ASSERT_NE(it, points.end()) << name << " holds an unknown point";
            const SliceKey &k = it->second;
            CasValue got;
            ASSERT_TRUE(store.lookup(ck, &got));
            const CasValue want =
                toCasValue(TrainingEstimator::simulateSliceKernel(
                    MachineConfig{}, SaveConfig{}, k, opt.tiles, opt.cores,
                    opt.seed));
            EXPECT_EQ(std::memcmp(&got.timeNs, &want.timeNs, sizeof(double)),
                      0);
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(std::memcmp(&got.coreGhz, &want.coreGhz,
                                  sizeof(double)),
                      0);
            EXPECT_EQ(got.stats, want.stats);
            SliceKey data = k;
            data.saveOn = data.vpus = 0;
            ++configs[data];
            kinds.emplace(k.pattern, k.precision);
        }
        int twins = 0, triples = 0;
        for (const auto &[data, n] : configs) {
            twins += n == 2;
            triples += n == 3;
        }
        EXPECT_GT(twins, 0);
        EXPECT_GT(triples, 0);
        EXPECT_EQ(kinds.size(), 4u);
    }
    std::filesystem::remove_all(dir);
    setQuietLogging(false);
}

TEST(ParallelEstimator, ConcurrentEvaluationsMatchSerial)
{
    // Two user threads evaluate different networks on one estimator,
    // as a ShardCoordinator's in-process lanes do on their shared
    // session. Their surfaces overlap, so the two walks race for the
    // same single-flight points.
    std::vector<NetworkModel> nets = goldenNetworks();
    nets.resize(2);
    EstimatorOptions opt = fastOptions(1);
    opt.gridStep = 3;
    TrainingEstimator serial(MachineConfig{}, SaveConfig{}, opt);
    NetResult want[2][2];
    for (size_t n = 0; n < 2; ++n) {
        want[n][0] = serial.training(nets[n], Precision::Bf16);
        want[n][1] = serial.inference(nets[n], Precision::Bf16);
    }

    opt.threads = 2;
    TrainingEstimator shared(MachineConfig{}, SaveConfig{}, opt);
    NetResult got[2][2];
    std::vector<std::thread> users;
    for (size_t n = 0; n < 2; ++n)
        users.emplace_back([&, n] {
            got[n][0] = shared.training(nets[n], Precision::Bf16);
            got[n][1] = shared.inference(nets[n], Precision::Bf16);
        });
    for (std::thread &t : users)
        t.join();
    for (size_t n = 0; n < 2; ++n) {
        EXPECT_TRUE(bytesEqual(want[n][0], got[n][0]))
            << nets[n].name << " training";
        EXPECT_TRUE(bytesEqual(want[n][1], got[n][1]))
            << nets[n].name << " inference";
    }
    EXPECT_EQ(shared.simulations(), serial.simulations());
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
