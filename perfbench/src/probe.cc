/**
 * @file
 * The layer probe: every layer driven directly on a small seeded
 * input, inside a traced run. See workloads.h.
 */

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "proc/worker_pool.h"
#include "serve/client.h"
#include "shard/coordinator.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kProbeSlices = 4;

/** ResultStore open/insert/lookup on the probe slices' results. */
void
probeCache(const Env &env,
           const std::vector<std::pair<save::GemmConfig, save::KernelResult>>
               &slices,
           RunLog &log)
{
    const std::string dir = env.workDir + "/probe-cache";
    makeDirs(dir);
    const uint64_t cfg =
        save::casHashConfig(save::MachineConfig{}, save::SaveConfig{}, 0);
    std::unique_ptr<save::ResultStore> store;
    {
        Span span("cache.open");
        store = std::make_unique<save::ResultStore>(
            save::ResultStore::Options{dir, 0});
    }
    for (const auto &[g, kr] : slices) {
        save::CasValue v;
        v.timeNs = kr.timeNs;
        v.cycles = kr.cycles;
        v.coreGhz = kr.coreGhz;
        for (const auto &[name, value] : kr.stats.all())
            v.stats.emplace_back(name, value);
        const save::CasKey key{cfg, save::casGemmWorkload(g, 1, 2)};
        log.attempt();
        Span span("cache.insert");
        if (!store->insert(key, v))
            log.fail("ResultStore::insert refused a finite result");
    }
    for (const auto &[g, kr] : slices) {
        const uint64_t wl = save::casGemmWorkload(g, 1, 2);
        for (uint64_t salt : {0ull, 1ull}) {
            save::CasValue v;
            bool hit = false;
            log.attempt();
            {
                Span span("cache.lookup");
                hit = store->lookup({cfg, wl + salt}, &v);
            }
            if (hit != (salt == 0) || (hit && v.cycles != kr.cycles))
                log.fail("ResultStore::lookup returned a wrong answer");
        }
    }
    Tracer::get().counter(
        "cache.counters",
        {{"hits", static_cast<double>(store->hits())},
         {"misses", static_cast<double>(store->misses())},
         {"bytes", static_cast<double>(store->bytes())}});
    store.reset();
    Span span("cache.open");
    save::ResultStore reopened({dir, 0});
    if (reopened.records() != slices.size())
        log.fail("reopened store lost records");
}

/** WorkerPool::runSlice against TrainingEstimator::simulateSliceKernel
 *  on one seeded sample of slice keys. */
void
probeProc(const Env &env, uint64_t seed, RunLog &log)
{
    const save::Fig14Knobs k = fig14Knobs(env);
    save::WireSessionInit init;
    init.tiles = k.tiles;
    init.cores = 1;
    init.seed = k.seed;
    save::ProcOptions p;
    p.workers = 1;
    p.workerBin = env.binDir + "/save-worker";
    save::WorkerPool pool(p, init);

    Rng rng(seed);
    std::vector<save::SliceKey> keys;
    for (int i = 0; i < 2 * kProbeSlices; ++i) {
        const bool wide = rng.below(2);
        keys.push_back({wide ? 4 : 7, wide ? 6 : 3, k.kSteps, 1,
                        static_cast<uint8_t>(i & 1), 1, 2,
                        static_cast<uint8_t>(rng.below(10)),
                        static_cast<uint8_t>(rng.below(10))});
    }
    pool.runSlice(keys[0], 0, 0); // spawn the worker before timing
    // Paired per key: the worker's time minus the same slice in-process.
    std::vector<double> ipc_ms;
    for (size_t i = 0; i < keys.size(); ++i) {
        save::KernelResult in;
        save::WireSliceResult out;
        log.attempt();
        int64_t t0 = nowNs();
        {
            Span span("proc.inproc_slice", i + 1);
            in = save::TrainingEstimator::simulateSliceKernel(
                init.mcfg, init.scfg, keys[i], init.tiles, init.cores,
                init.seed);
        }
        const int64_t in_ns = nowNs() - t0;
        t0 = nowNs();
        {
            Span span("proc.run_slice", i + 1);
            out = pool.runSlice(keys[i], i + 1, 0);
        }
        ipc_ms.push_back(static_cast<double>(nowNs() - t0 - in_ns) * 1e-6);
        if (!sameSlice(toWire(in), out))
            log.fail("worker slice differs from the in-process slice");
    }
    Tracer::get().counter(
        "proc.pool", {{"respawns", static_cast<double>(pool.respawns())},
                      {"crashes", static_cast<double>(pool.crashes())},
                      {"ipc_overhead_ms", median(ipc_ms)}});
    pool.shutdown();
}

/** Ping, fresh and repeated GEMM requests, and a tiny sharded sweep,
 *  against a one-worker daemon. */
void
probeServeShard(const Env &env,
                const std::vector<std::pair<save::GemmConfig,
                                            save::KernelResult>> &slices,
                const std::string &tiny_report, RunLog &log)
{
    const std::string dir = env.workDir + "/probe-serve";
    makeDirs(dir);
    Daemon daemon;
    daemon.start(env.binDir + "/save-serve", env.workDir + "/probe.sock",
                 {"--workers=1", "--threads=2", "--isolation=thread",
                  "--cache-dir=" + dir},
                 env.workDir + "/daemon.log");
    save::ServeClient client(daemon.socket());

    save::ServeRequest ping;
    ping.kind = save::ServeKind::Ping;
    for (int i = 0; i < 20; ++i) {
        Span span("serve.ping");
        client.call(ping, nullptr, 10000);
    }
    for (int fresh = 1; fresh >= 0; --fresh) {
        for (const auto &[g, kr] : slices) {
            save::ServeRequest req;
            req.kind = save::ServeKind::Gemm;
            req.gemm = g;
            save::ServeClient::Reply rep;
            log.attempt();
            {
                Span span("serve.gemm");
                span.arg("fresh", fresh);
                rep = client.call(req, nullptr, 120000);
            }
            if (rep.kind != save::ServeClient::Reply::Kind::Ok ||
                !sameSlice(toWire(kr), rep.gemm))
                log.fail("served slice differs from Engine::runGemm");
        }
    }
    save::ServeRequest status;
    status.kind = save::ServeKind::Status;
    save::ServeStatus st = client.call(status, nullptr, 10000).status;
    Tracer::get().counter(
        "serve.status", {{"shed", static_cast<double>(st.shed)},
                         {"errors", static_cast<double>(st.errors)},
                         {"cas_hits", static_cast<double>(st.casHits)},
                         {"cas_misses", static_cast<double>(st.casMisses)}});

    save::ShardCoordinator::Options o;
    o.sockets = {daemon.socket()};
    o.inprocLanes = 1;
    o.knobs = fig14Knobs(env);
    o.knobs.gridStep = 9;
    o.knobs.kSteps = 8;
    o.knobs.tiles = 1;
    o.runtime.threads = 2;
    o.runtime.isolation = "thread";
    o.runtime.cacheDir = dir;
    log.attempt(static_cast<uint64_t>(save::fig14PointCount()));
    Span span("shard.run");
    save::ShardCoordinator coord(std::move(o));
    std::string report = coord.run();
    span.stop();
    const save::ShardCoordinator::Stats &s = coord.stats();
    span.arg("dispatches", static_cast<double>(s.dispatches));
    span.arg("requeues", static_cast<double>(s.requeues));
    span.arg("speculative", static_cast<double>(s.speculative));
    span.arg("backends_excluded", static_cast<double>(s.backendsExcluded));
    for (const auto &f : s.failures)
        log.fail("probe sweep point " + f.key + " failed: " + f.reason);
    if (report != tiny_report)
        log.fail("sharded probe sweep differs from the in-process one");
}

} // namespace

void
runProbe(const Env &env, RunLog &log)
{
    Tracer::get().setProbe(true);
    const uint64_t seed = deriveSeed(env.seed, 77);

    std::vector<std::pair<save::GemmConfig, save::KernelResult>> slices;
    for (int s = 0; s < kProbeSlices; ++s) {
        save::GemmConfig g = pinnedSlice(s, deriveSeed(seed, s));
        log.attempt();
        slices.emplace_back(g, simulateDirect(g, log));
    }

    save::Fig14Knobs tiny = fig14Knobs(env);
    tiny.gridStep = 9;
    tiny.kSteps = 8;
    tiny.tiles = 1;
    const std::string dnn_dir = env.workDir + "/probe-dnn";
    makeDirs(dnn_dir);
    const std::string tiny_report =
        estimatorSweep(tiny, 2, dnn_dir, log, false);

    probeCache(env, slices, log);
    probeProc(env, seed, log);
    probeServeShard(env, slices, tiny_report, log);
    Tracer::get().setProbe(false);
}

} // namespace perfbench
