/**
 * @file
 * save-perfbench: the repository benchmark program. perfbench/run.py
 * builds it and runs it from the checkout root:
 *
 *   save-perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--knobs paper|tiny] --data perfbench
 *                  --state DIR --bin DIR
 *
 * Untraced (--trace 0): times the workload's set-up several times,
 * then repeats its unit for S seconds and prints the end-to-end
 * metrics. Traced (--trace 1): one untraced and one traced unit, then
 * the layer probe; prints the per-layer metrics, self time per layer,
 * and writes the spans as Chrome-trace JSON under DIR/traces.
 *
 * Every output is checked (see perfbench/README.md). The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. A wrong output makes the exit code 1.
 */

#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Per-layer metrics from the traced run's spans and counters. */
Metrics
layerMetrics(double overhead_pct)
{
    const Tracer &t = Tracer::get();
    auto durations = [&](const char *name) {
        std::vector<double> v;
        for (const SpanRec &s : t.pick(name))
            v.push_back(s.ms());
        return v;
    };
    auto sumMs = [&](const char *name) {
        double total = 0;
        for (double ms : durations(name))
            total += ms;
        return total;
    };
    auto argSum = [&](const char *name, const char *key) {
        double total = 0;
        for (const SpanRec &s : t.pick(name)) {
            auto it = s.args.find(key);
            total += it == s.args.end() ? 0 : it->second;
        }
        return total;
    };
    auto last = [&](const char *name, const char *key) {
        std::vector<SpanRec> v = t.pick(name);
        if (v.empty())
            return 0.0;
        auto it = v.back().args.find(key);
        return it == v.back().args.end() ? 0.0 : it->second;
    };

    Metrics m;
    const double uops = argSum("sim.multicore_run", "uops");
    m.set("sim.run_ms", median(durations("sim.multicore_run")), "ms");
    m.set("sim.ns_per_uop",
          uops > 0 ? sumMs("sim.multicore_run") * 1e6 / uops : 0, "ns");
    m.set("sim.uops", uops, "count");
    m.set("sim.cycles", argSum("sim.multicore_run", "cycles"), "count");
    m.set("sim.ff_cycles_skipped",
          argSum("sim.multicore_run", "ff_cycles_skipped"), "count");
    m.set("kernels.build_ms", median(durations("kernels.build_sharded_gemm")),
          "ms");
    m.set("engine.run_gemm_ms", median(durations("engine.run_gemm")), "ms");
    {
        std::vector<double> v;
        for (const SpanRec &s : t.pick("engine.run_gemm"))
            v.push_back(s.args.at("overhead_ms"));
        m.set("engine.overhead_ms", median(v), "ms");
    }

    const double prefetch_s = sumMs("dnn.prefetch") * 1e-3;
    const double sims = last("dnn.counters", "simulations");
    m.set("dnn.prefetch_s", prefetch_s, "s");
    m.set("dnn.accumulate_ms", sumMs("dnn.accumulate"), "ms");
    m.set("dnn.simulations", sims, "count");
    m.set("dnn.slices_per_s", prefetch_s > 0 ? sims / prefetch_s : 0, "1/s");

    const double hits = last("cache.counters", "hits");
    const double misses = last("cache.counters", "misses");
    m.set("cache.open_ms", median(durations("cache.open")), "ms");
    m.set("cache.lookup_us", median(durations("cache.lookup")) * 1e3, "us");
    m.set("cache.insert_us", median(durations("cache.insert")) * 1e3, "us");
    m.set("cache.hits", hits, "count");
    m.set("cache.misses", misses, "count");
    m.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");
    m.set("cache.bytes", last("cache.counters", "bytes"), "bytes");

    m.set("proc.run_slice_ms", median(durations("proc.run_slice")), "ms");
    m.set("proc.inproc_slice_ms", median(durations("proc.inproc_slice")),
          "ms");
    m.set("proc.ipc_overhead_ms", last("proc.pool", "ipc_overhead_ms"), "ms");
    m.set("proc.respawns", last("proc.pool", "respawns"), "count");
    m.set("proc.crashes", last("proc.pool", "crashes"), "count");

    std::vector<double> fresh, repeat;
    for (const SpanRec &s : t.pick("serve.gemm"))
        (s.args.at("fresh") != 0 ? fresh : repeat).push_back(s.ms());
    m.set("serve.ping_us", median(durations("serve.ping")) * 1e3, "us");
    m.set("serve.fresh_ms", median(fresh), "ms");
    m.set("serve.repeat_ms", median(repeat), "ms");
    m.set("serve.shed", last("serve.status", "shed"), "count");
    m.set("serve.errors", last("serve.status", "errors"), "count");
    m.set("serve.cas_hits", last("serve.status", "cas_hits"), "count");
    m.set("serve.cas_misses", last("serve.status", "cas_misses"), "count");

    m.set("shard.run_s", median(durations("shard.run")) * 1e-3, "s");
    m.set("shard.dispatches", last("shard.run", "dispatches"), "count");
    m.set("shard.requeues", last("shard.run", "requeues"), "count");
    m.set("shard.speculative", last("shard.run", "speculative"), "count");
    m.set("shard.backends_excluded", last("shard.run", "backends_excluded"),
          "count");

    m.set("trace.overhead_pct", overhead_pct, "%");
    return m;
}

/**
 * Every Fig. 14 report of the run must match the first; the first must
 * match the committed golden (default knobs and seed), and the report
 * any earlier run of this checkout produced for the same knobs and
 * seed, whichever workload ran it.
 */
void
checkReports(const Env &env, RunLog &log)
{
    if (log.reports.empty())
        return;
    const std::string &first = log.reports.front();
    for (const std::string &r : log.reports)
        if (r != first)
            log.fail("Fig. 14 report differs between units of one run");
    if (!env.tiny && env.seed == 7 &&
        first != readFile(env.dataDir + "/golden/fig14_seed7.txt"))
        log.fail("Fig. 14 report differs from the committed golden");

    const save::Fig14Knobs k = fig14Knobs(env);
    const std::string dir = env.stateDir + "/reports";
    makeDirs(dir);
    const std::string path =
        dir + "/fig14-grid" + std::to_string(k.gridStep) + "-k" +
        std::to_string(k.kSteps) + "-t" + std::to_string(k.tiles) +
        "-seed" + std::to_string(env.seed) + ".txt";
    if (access(path.c_str(), R_OK) == 0) {
        if (readFile(path) != first)
            log.fail("Fig. 14 report differs from another run of this "
                     "seed (" + path + ")");
    } else {
        writeFileAtomic(path, first);
    }
}

void
printMetric(const Metric &m, const char *note = "")
{
    std::printf("metric %-24s %14.6g %-6s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note);
}

std::string
resultJson(bool correct, const RunLog &log, const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(log.attempted);
    out += ", \"failed\": " + std::to_string(log.failed);
    out += ", \"metrics\": {";
    char buf[256];
    bool first = true;
    for (const Metric &m : metrics.all()) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0,
                      m.unit.c_str());
        out += buf;
        first = false;
    }
    return out + "}}";
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "[--knobs paper|tiny] --data DIR --state DIR --bin DIR\n"
                 "workloads:",
                 argv0);
    for (const char *const *w = kWorkloadNames; *w; ++w)
        std::fprintf(stderr, " %s", *w);
    std::fprintf(stderr, "\n");
    return 2;
}

int
run(Env &env)
{
    std::unique_ptr<Workload> wl = makeWorkload(env);
    if (!wl)
        return -1;
    RunLog log;
    std::vector<double> setups;
    double untraced = 0, traced = 0;

    auto timedSetup = [&] { setups.push_back(wl->setup(log)); };

    if (!wl->setupPerUnit())
        for (int i = 0; i < (env.trace ? 1 : wl->setupReps()); ++i)
            timedSetup();
    if (!env.trace) {
        const int64_t t0 = nowNs();
        while (log.unitS.empty() || secondsSince(t0) < env.seconds) {
            if (wl->setupPerUnit())
                timedSetup();
            log.unitS.push_back(wl->unit(log));
        }
        while (wl->setupPerUnit() &&
               setups.size() < static_cast<size_t>(wl->setupReps()))
            timedSetup();
    } else {
        if (wl->setupPerUnit())
            timedSetup();
        untraced = wl->unit(log);
        if (wl->setupPerUnit())
            timedSetup();
        Tracer::get().enable(true);
        traced = wl->unit(log);
        log.unitS = {untraced, traced};
    }
    Metrics lines;
    wl->summary(log, lines);
    wl.reset(); // stop daemons before reading their peak RSS
    if (env.trace)
        runProbe(env, log);
    checkReports(env, log);

    Metrics out;
    if (!env.trace) {
        out.set("setup_s", median(setups), "s");
        out.set("sweep_s", median(log.unitS), "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        out = layerMetrics(100.0 * (traced - untraced) / untraced);
    }
    if (!log.reports.empty() && !env.tiny)
        lines.set("paper_err_pct",
                  paperErrPct(log.reports.front(), env.dataDir), "%");
    lines.set("failed_frac",
              log.attempted ? static_cast<double>(log.failed) /
                                  static_cast<double>(log.attempted)
                            : 0,
              "ratio");

    std::printf("fingerprint: %s\n", hostFingerprint().c_str());
    std::printf("workload: %s seed=%llu knobs=%s units=%zu setups=%zu\n",
                env.workload.c_str(),
                static_cast<unsigned long long>(env.seed),
                env.tiny ? "tiny" : "paper", log.unitS.size(),
                setups.size());
    std::printf("units_s:");
    for (double s : log.unitS)
        std::printf(" %.4f", s);
    std::printf("\nsetups_s:");
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");
    for (const Metric &m : out.all())
        printMetric(m);
    for (const Metric &m : lines.all())
        printMetric(m, "  (printed only)");
    if (env.trace) {
        std::printf("traced unit %.4f s, untraced unit %.4f s\n", traced,
                    untraced);
        for (bool probe : {false, true})
            for (const auto &[layer, ms] : Tracer::get().selfTimeMs(probe))
                std::printf("self %-7s %-8s %12.3f ms\n",
                            probe ? "probe" : "workload", layer.c_str(), ms);
        const std::string dir = env.stateDir + "/traces";
        makeDirs(dir);
        const std::string path = dir + "/" + env.workload + "-seed" +
                                 std::to_string(env.seed) + ".json";
        Tracer::get().writeChromeTrace(
            path, "{\"fingerprint\":\"" + jsonEscape(hostFingerprint()) +
                      "\",\"workload\":\"" + env.workload + "\"}");
        std::printf("trace: %s\n", path.c_str());
    }
    for (size_t i = 0; i < log.problems.size() && i < 10; ++i)
        std::printf("FAILED: %s\n", log.problems[i].c_str());

    const bool correct = log.failed == 0;
    std::printf("%s\n", resultJson(correct, log, out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    signal(SIGPIPE, SIG_IGN);
    Env env;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload") {
            env.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            env.seed = std::stoull(val);
        } else if (flag == "--seconds") {
            env.seconds = std::stod(val);
        } else if (flag == "--trace") {
            env.trace = val == "1";
        } else if (flag == "--knobs") {
            env.tiny = val == "tiny";
        } else if (flag == "--data") {
            env.dataDir = val;
        } else if (flag == "--state") {
            env.stateDir = val;
        } else if (flag == "--bin") {
            env.binDir = val;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_workload || env.dataDir.empty() || env.stateDir.empty() ||
        env.binDir.empty() || argc % 2 == 0)
        return usage(argv[0]);

    env.workDir = env.stateDir + "/work-" + std::to_string(getpid());
    removeTree(env.workDir);
    makeDirs(env.workDir);
    int rc = 0;
    try {
        rc = run(env);
        if (rc < 0)
            rc = usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "save-perfbench: %s\n", e.what());
        rc = 1;
    }
    removeTree(env.workDir);
    return rc;
}
