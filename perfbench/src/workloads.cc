#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/fig14_report.h"
#include "mem/memory_image.h"
#include "serve/client.h"
#include "shard/coordinator.h"
#include "sim/multicore.h"
#include "trace.h"

namespace perfbench {

const char *const kWorkloadNames[] = {"fig14-cold", "fig14-warm",
                                      "serve-gemm", "fig14-sharded",
                                      nullptr};

namespace {

/** Requests per serve-gemm round; two closed-loop clients share it. */
constexpr int kRoundRequests = 64;
constexpr int kServeClients = 2;

std::atomic<uint64_t> g_req{0};

uint64_t
nextReq()
{
    return ++g_req;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** The save-serve flags every benchmark daemon shares. */
std::vector<std::string>
daemonArgs(const Env &env, int workers, const std::string &isolation,
           const std::string &store)
{
    return {"--workers=" + std::to_string(workers), "--threads=2",
            "--isolation=" + isolation, "--cache-dir=" + store,
            "--worker-bin=" + env.binDir + "/save-worker"};
}

/** Cold: the full sweep against a fresh empty store every unit. */
class Fig14Cold : public Workload
{
  public:
    explicit Fig14Cold(Env env) : env_(std::move(env)) {}

    int setupReps() const override { return 15; }

    /** A fresh store plus an estimator on it, and one warm-up slice on
     *  each of the 4 host threads the budget allows, so page faults and
     *  allocator growth land before timing. The slowest thread sets the
     *  time, so it does not depend on which vCPU one thread ran on. */
    double
    setup(RunLog &log) override
    {
        const save::Fig14Knobs k = fig14Knobs(env_);
        std::string dir = env_.workDir + "/cold-setup";
        removeTree(dir);
        const int64_t t0 = nowNs();
        makeDirs(dir);
        save::ResultStore store({dir, 0});
        save::EstimatorOptions o;
        o.kSteps = k.kSteps;
        o.tiles = k.tiles;
        o.threads = 2;
        o.isolation = "thread";
        save::TrainingEstimator est(save::MachineConfig{},
                                    save::SaveConfig{}, o, nullptr, &store);
        std::atomic<int> bad{0};
        std::vector<std::thread> warm;
        const save::SliceKey key{7, 3, k.kSteps, 1, 0, 1, 2, 3, 3};
        for (int t = 0; t < 4; ++t)
            warm.emplace_back([&] {
                try {
                    if (!(save::TrainingEstimator::simulateSliceKernel(
                              save::MachineConfig{}, save::SaveConfig{}, key,
                              k.tiles, 1, k.seed)
                              .timeNs > 0))
                        ++bad;
                } catch (const std::exception &) {
                    ++bad;
                }
            });
        for (std::thread &t : warm)
            t.join();
        if (bad)
            log.fail("warm-up slice failed");
        return secondsSince(t0);
    }

    double
    unit(RunLog &log) override
    {
        std::string dir =
            env_.workDir + "/cold-" + std::to_string(++units_);
        makeDirs(dir);
        const int64_t t0 = nowNs();
        std::string report =
            estimatorSweep(fig14Knobs(env_), 2, dir, log, true);
        double s = secondsSince(t0);
        log.reports.push_back(std::move(report));
        removeTree(dir);
        return s;
    }

  private:
    Env env_;
    int units_ = 0;
};

/** Warm: the same sweep against a store filled during set-up, with a
 *  freshly opened store and a fresh estimator every unit. */
class Fig14Warm : public Workload
{
  public:
    explicit Fig14Warm(Env env) : env_(std::move(env)) {}

    int setupReps() const override { return 1; }

    double
    setup(RunLog &log) override
    {
        dir_ = env_.workDir + "/warm-store";
        removeTree(dir_);
        const int64_t t0 = nowNs();
        makeDirs(dir_);
        log.reports.push_back(
            estimatorSweep(fig14Knobs(env_), 4, dir_, log, false));
        return secondsSince(t0);
    }

    double
    unit(RunLog &log) override
    {
        const int64_t t0 = nowNs();
        std::string report =
            estimatorSweep(fig14Knobs(env_), 2, dir_, log, true);
        double s = secondsSince(t0);
        log.reports.push_back(std::move(report));
        return s;
    }

    void
    summary(RunLog &log, Metrics &out) override
    {
        Tail t = tailPercentile(log.unitS);
        out.set("sweep_p" + std::to_string(t.pct) + "_s", t.value, "s");
    }

  private:
    Env env_;
    std::string dir_;
};

/** Sharded: ShardCoordinator over one in-process lane and one
 *  process-isolated daemon, both on one fresh store per unit. */
class Fig14Sharded : public Workload
{
  public:
    explicit Fig14Sharded(Env env) : env_(std::move(env)) {}

    bool setupPerUnit() const override { return true; }
    int setupReps() const override { return 15; }

    /** A fresh store behind a freshly started daemon (first ping). */
    double
    setup(RunLog &) override
    {
        daemon_.stop();
        removeTree(dir_);
        const int64_t t0 = nowNs();
        const std::string n = std::to_string(++setups_);
        dir_ = env_.workDir + "/shard-" + n;
        makeDirs(dir_);
        daemon_.start(env_.binDir + "/save-serve",
                      env_.workDir + "/shard-" + n + ".sock",
                      daemonArgs(env_, 1, "process", dir_),
                      env_.workDir + "/daemon.log");
        return secondsSince(t0);
    }

    double
    unit(RunLog &log) override
    {
        save::ShardCoordinator::Options o;
        o.sockets = {daemon_.socket()};
        o.inprocLanes = 1;
        o.knobs = fig14Knobs(env_);
        o.runtime.threads = 2;
        o.runtime.isolation = "thread";
        o.runtime.cacheDir = dir_;
        o.runtime.workerBin = env_.binDir + "/save-worker";

        const int64_t t0 = nowNs();
        Span span("shard.run", nextReq());
        save::ShardCoordinator coord(std::move(o));
        std::string report = coord.run();
        span.stop();
        const double s = secondsSince(t0);

        const save::ShardCoordinator::Stats &st = coord.stats();
        span.arg("dispatches", static_cast<double>(st.dispatches));
        span.arg("requeues", static_cast<double>(st.requeues));
        span.arg("speculative", static_cast<double>(st.speculative));
        span.arg("backends_excluded",
                 static_cast<double>(st.backendsExcluded));
        log.attempt(static_cast<uint64_t>(save::fig14PointCount()));
        for (const auto &f : st.failures)
            log.fail("sweep point " + f.key + " failed: " + f.reason);
        if (const save::ResultStore *store = coord.resultStore())
            Tracer::get().counter(
                "cache.counters",
                {{"hits", static_cast<double>(store->hits())},
                 {"misses", static_cast<double>(store->misses())},
                 {"bytes", static_cast<double>(store->bytes())}});
        log.reports.push_back(std::move(report));
        return s;
    }

  private:
    Env env_;
    Daemon daemon_;
    std::string dir_;
    int setups_ = 0;
};

/** Served GEMM slices: two closed-loop clients over a seeded stream,
 *  half fresh keys and half repeats of keys sent earlier. */
class ServeGemm : public Workload
{
  public:
    explicit ServeGemm(Env env)
        : env_(std::move(env)), rng_(deriveSeed(env_.seed, 1))
    {
    }

    int setupReps() const override { return 9; }

    /** A fresh store behind a freshly started daemon (first ping), then
     *  one warm-up request outside the stream. */
    double
    setup(RunLog &log) override
    {
        daemon_.stop();
        removeTree(dir_);
        const int64_t t0 = nowNs();
        const std::string n = std::to_string(++setups_);
        dir_ = env_.workDir + "/serve-" + n;
        makeDirs(dir_);
        daemon_.start(env_.binDir + "/save-serve",
                      env_.workDir + "/serve-" + n + ".sock",
                      daemonArgs(env_, 2, "thread", dir_),
                      env_.workDir + "/daemon.log");
        save::ServeRequest req;
        req.kind = save::ServeKind::Gemm;
        req.gemm = pinnedSlice(0, deriveSeed(env_.seed, 2));
        save::ServeClient client(daemon_.socket());
        if (client.call(req, nullptr, 120000).kind !=
            save::ServeClient::Reply::Kind::Ok)
            log.fail("warm-up request failed");
        return secondsSince(t0);
    }

    double
    unit(RunLog &log) override
    {
        const size_t begin = items_.size();
        extendStream(begin + kRoundRequests);
        std::atomic<size_t> next{begin};
        std::vector<size_t> fresh_done;

        auto client_loop = [&] {
            save::ServeClient client(daemon_.socket());
            for (size_t i; (i = next++) < begin + kRoundRequests;) {
                if (request(client, i, log)) {
                    std::lock_guard<std::mutex> lk(log.mu);
                    if (items_[i].fresh)
                        fresh_done.push_back(i);
                }
            }
        };
        const int64_t t0 = nowNs();
        std::vector<std::thread> clients;
        for (int c = 0; c < kServeClients; ++c)
            clients.emplace_back(client_loop);
        for (std::thread &t : clients)
            t.join();
        const double s = secondsSince(t0);

        if (Tracer::get().on()) {
            // Each fresh reply against a direct simulation of the slice.
            std::sort(fresh_done.begin(), fresh_done.end());
            for (size_t i : fresh_done)
                if (!sameSlice(toWire(simulateDirect(items_[i].g, log)),
                               first_.at(keyOf(i))))
                    log.fail("served slice differs from Engine::runGemm");
            recordStatus();
        }
        return s;
    }

    void
    summary(RunLog &log, Metrics &out) override
    {
        double total_s = 0;
        for (double s : log.unitS)
            total_s += s;
        Tail t = tailPercentile(log.reqMs);
        out.set("req_p50_ms", median(log.reqMs), "ms");
        out.set("req_p" + std::to_string(t.pct) + "_ms", t.value, "ms");
        out.set("req_per_s",
                total_s > 0 ? static_cast<double>(log.reqMs.size()) / total_s
                            : 0,
                "1/s");
        const double n = static_cast<double>(log.fresh + log.repeats);
        out.set("repeat_share_pct", n > 0 ? 100.0 * log.repeats / n : 0, "%");
    }

  private:
    struct Item
    {
        save::GemmConfig g;
        bool fresh = true;
    };

    uint64_t keyOf(size_t i) const
    {
        return save::casGemmWorkload(items_[i].g, 1, 2);
    }

    /** Grow the seeded stream: each request is fresh with probability
     *  1/2, else a repeat of a fresh key at least two requests back. */
    void
    extendStream(size_t n)
    {
        while (items_.size() < n) {
            const size_t i = items_.size();
            bool fresh = rng_.below(2) == 0;
            size_t eligible = static_cast<size_t>(
                std::upper_bound(fresh_idx_.begin(), fresh_idx_.end(),
                                 i >= 2 ? i - 2 : 0) -
                fresh_idx_.begin());
            if (i < 2)
                eligible = 0;
            if (!fresh && eligible == 0)
                fresh = true;
            if (fresh) {
                items_.push_back(
                    {pinnedSlice(static_cast<int>(rng_.below(4)),
                                 deriveSeed(env_.seed, 1000 + i)),
                     true});
                fresh_idx_.push_back(i);
            } else {
                Item it = items_[fresh_idx_[rng_.below(eligible)]];
                it.fresh = false;
                items_.push_back(it);
            }
        }
    }

    /** One request; true when it was answered. */
    bool
    request(save::ServeClient &client, size_t i, RunLog &log)
    {
        const Item &it = items_[i];
        save::ServeRequest req;
        req.kind = save::ServeKind::Gemm;
        req.gemm = it.g;
        log.attempt();
        save::ServeClient::Reply rep;
        const int64_t t0 = nowNs();
        try {
            Span span("serve.gemm", nextReq());
            span.arg("fresh", it.fresh ? 1 : 0);
            rep = client.call(req, nullptr, 120000);
        } catch (const std::exception &e) {
            log.fail(std::string("request failed: ") + e.what());
            return false;
        }
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
        if (rep.kind == save::ServeClient::Reply::Kind::Busy) {
            log.fail("request shed: " + rep.busy.reason);
            return false;
        }
        if (rep.kind == save::ServeClient::Reply::Kind::Error) {
            log.fail("request error: " + rep.error.what);
            return false;
        }
        // A repeat can overtake its key's first request when the other
        // client is still waiting on it, so the reply that lands first
        // is the reference.
        bool same = true;
        {
            std::lock_guard<std::mutex> lk(log.mu);
            log.reqMs.push_back(ms);
            ++(it.fresh ? log.fresh : log.repeats);
            auto [f, inserted] = first_.emplace(keyOf(i), rep.gemm);
            same = inserted || sameSlice(f->second, rep.gemm);
        }
        if (!same)
            log.fail("repeat reply differs from the first reply for its key");
        return true;
    }

    void
    recordStatus()
    {
        save::ServeRequest req;
        req.kind = save::ServeKind::Status;
        save::ServeClient client(daemon_.socket());
        save::ServeStatus st = client.call(req, nullptr, 10000).status;
        Tracer::get().counter(
            "serve.status",
            {{"shed", static_cast<double>(st.shed)},
             {"errors", static_cast<double>(st.errors)},
             {"cas_hits", static_cast<double>(st.casHits)},
             {"cas_misses", static_cast<double>(st.casMisses)}});
        Tracer::get().counter(
            "cache.counters",
            {{"hits", static_cast<double>(st.casHits)},
             {"misses", static_cast<double>(st.casMisses)},
             {"bytes", static_cast<double>(dirBytes(dir_))}});
    }

    Env env_;
    Rng rng_;
    Daemon daemon_;
    std::string dir_;
    int setups_ = 0;
    std::vector<Item> items_;
    std::vector<size_t> fresh_idx_;
    /** First reply per key; guarded by the RunLog mutex. */
    std::map<uint64_t, save::WireSliceResult> first_;
};

} // namespace

void
RunLog::attempt(uint64_t n)
{
    std::lock_guard<std::mutex> lk(mu);
    attempted += n;
}

void
RunLog::fail(const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu);
    ++failed;
    problems.push_back(why);
}

std::unique_ptr<Workload>
makeWorkload(const Env &env)
{
    if (env.workload == "fig14-cold")
        return std::make_unique<Fig14Cold>(env);
    if (env.workload == "fig14-warm")
        return std::make_unique<Fig14Warm>(env);
    if (env.workload == "serve-gemm")
        return std::make_unique<ServeGemm>(env);
    if (env.workload == "fig14-sharded")
        return std::make_unique<Fig14Sharded>(env);
    return nullptr;
}

save::Fig14Knobs
fig14Knobs(const Env &env)
{
    save::Fig14Knobs k;
    if (env.tiny) {
        k.gridStep = 9;
        k.kSteps = 8;
        k.tiles = 1;
    }
    k.seed = env.seed;
    return k;
}

std::string
estimatorSweep(const save::Fig14Knobs &k, int threads,
               const std::string &store_dir, RunLog &log, bool counters)
{
    std::unique_ptr<save::ResultStore> store;
    {
        Span span("cache.open");
        store = std::make_unique<save::ResultStore>(
            save::ResultStore::Options{store_dir, 0});
    }
    save::EstimatorOptions o;
    o.gridStep = k.gridStep;
    o.kSteps = k.kSteps;
    o.tiles = k.tiles;
    o.cores = k.cores;
    o.seed = k.seed;
    o.threads = threads;
    o.isolation = "thread";
    save::TrainingEstimator est(save::MachineConfig{}, save::SaveConfig{},
                                o, nullptr, store.get());

    save::Fig14Eval eval = [&](const std::string &key,
                               const save::Fig14Entry &e, bool training) {
        log.attempt();
        Span point("dnn.point", nextReq());
        {
            Span span("dnn.prefetch");
            est.prefetch(e.net, e.prec, !training);
        }
        save::NetResult r;
        {
            Span span("dnn.accumulate");
            r = training ? est.training(e.net, e.prec)
                         : est.inference(e.net, e.prec);
        }
        if (save::sweepResultPoisoned(r))
            log.fail("sweep point " + key + " failed permanently");
        return r;
    };
    std::string report;
    {
        Span span("dnn.fig14_report");
        report = save::fig14Report(eval);
    }
    Tracer::get().counter(
        "dnn.counters",
        {{"simulations", static_cast<double>(est.simulations())}});
    if (counters)
        Tracer::get().counter(
            "cache.counters",
            {{"hits", static_cast<double>(store->hits())},
             {"misses", static_cast<double>(store->misses())},
             {"bytes", static_cast<double>(store->bytes())}});
    return report;
}

save::WireSliceResult
toWire(const save::KernelResult &r)
{
    save::WireSliceResult w;
    w.timeNs = r.timeNs;
    w.cycles = r.cycles;
    w.coreGhz = r.coreGhz;
    for (const auto &[name, value] : r.stats.all())
        w.stats.emplace_back(name, value);
    return w;
}

bool
sameSlice(const save::WireSliceResult &a, const save::WireSliceResult &b)
{
    if (!sameBits(a.timeNs, b.timeNs) || a.cycles != b.cycles ||
        !sameBits(a.coreGhz, b.coreGhz) || a.stats.size() != b.stats.size())
        return false;
    for (size_t i = 0; i < a.stats.size(); ++i)
        if (a.stats[i].first != b.stats[i].first ||
            !sameBits(a.stats[i].second, b.stats[i].second))
            return false;
    return true;
}

save::GemmConfig
pinnedSlice(int shape, uint64_t data_seed)
{
    save::GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 192;
    g.tiles = 6;
    g.pattern = save::BroadcastPattern::Embedded;
    g.precision = (shape & 1) ? save::Precision::Bf16 : save::Precision::Fp32;
    g.bsSparsity = g.nbsSparsity = (shape & 2) ? 0.8 : 0.0;
    g.seed = data_seed;
    return g;
}

save::KernelResult
simulateDirect(const save::GemmConfig &g, RunLog &log)
{
    // Engine::runGemm's machine for cores = 1: one core's share of the
    // default machine's DRAM bandwidth.
    const save::MachineConfig full;
    save::MachineConfig mc = full;
    mc.dramGBps = full.dramGBps / full.cores;
    mc.cores = 1;
    const save::SaveConfig scfg;
    const int vpus = 2;

    int64_t t0 = nowNs();
    save::MemoryImage image;
    std::vector<save::GemmWorkload> work;
    {
        Span span("kernels.build_sharded_gemm");
        work = save::buildShardedGemm(g, image, 1);
    }
    const int64_t build_ns = nowNs() - t0;

    save::Multicore machine(mc, scfg, vpus, &image);
    work[0].warmup(machine.hierarchy());
    save::VectorTrace trace(work[0].trace);
    machine.bindTraces({&trace});
    uint64_t cycles = 0;
    int64_t run_ns = 0;
    {
        Span span("sim.multicore_run");
        t0 = nowNs();
        cycles = machine.run();
        run_ns = nowNs() - t0;
        span.stop();
        span.arg("cycles", static_cast<double>(cycles));
        span.arg("uops", machine.aggregateStats().get("uops"));
        span.arg("ff_cycles_skipped",
                 static_cast<double>(machine.core(0).ffCyclesSkipped()));
    }

    save::KernelResult kr;
    {
        Span span("engine.run_gemm");
        t0 = nowNs();
        kr = save::Engine(full, scfg).runGemm(g, 1, vpus);
        const int64_t engine_ns = nowNs() - t0;
        span.stop();
        span.arg("overhead_ms",
                 static_cast<double>(engine_ns - build_ns - run_ns) * 1e-6);
    }
    if (kr.cycles != cycles)
        log.fail("Engine::runGemm cycles differ from Multicore::run");
    return kr;
}

double
paperErrPct(const std::string &report, const std::string &data_dir)
{
    std::map<std::string, double> measured;
    std::istringstream in(report);
    std::string prefix, label;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("=== Fig. 14", 0) == 0) {
            // "=== Fig. 14a: CNN inference ===": a/b infer, c/d train.
            char part = line.size() > 11 ? line[11] : '?';
            prefix = (part == 'a' || part == 'b') ? "infer/" : "train/";
        } else if (size_t p = line.find("  (baseline:");
                   p != std::string::npos && line[0] != ' ') {
            label = line.substr(0, p);
        } else if (line.rfind("  dynamic", 0) == 0) {
            double v = 0;
            if (std::sscanf(line.c_str(), "  dynamic %lfx", &v) == 1)
                measured[prefix + label] = v;
        }
    }

    std::istringstream data(readFile(data_dir + "/data/paper_fig14_mp.tsv"));
    double err = 0;
    int n = 0;
    for (std::string line; std::getline(data, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t tab = line.find('\t');
        std::string key = line.substr(0, tab);
        double paper = std::stod(line.substr(tab + 1));
        auto it = measured.find(key);
        if (it == measured.end())
            throw std::runtime_error("report has no dynamic row for " + key);
        err += std::fabs(it->second - paper) / paper;
        ++n;
    }
    if (n == 0)
        throw std::runtime_error("no paper speedups in the data file");
    return 100.0 * err / n;
}

} // namespace perfbench
