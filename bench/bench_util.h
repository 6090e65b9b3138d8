/**
 * @file
 * Shared helpers for the per-figure/table reproduction harnesses:
 * trivial flag parsing and the standard slice configuration used
 * across figures.
 *
 * Common flags:
 *   --grid=N        sparsity-grid stride for estimator-driven figures
 *   --ksteps=N      slice K length
 *   --tiles=N       register tiles per slice
 *   --cores=N       active cores per slice simulation
 *   --seed=N        estimator workload seed (default 7)
 *   --threads=N     host threads for the simulation fan-out
 *                   (0 = SAVE_THREADS env or hardware concurrency)
 *   --cache-dir=D   persistent result store ("none" disables; default
 *                   is the SAVE_CACHE_DIR environment variable)
 *   --cache-max-mb=N result-store size cap; LRU eviction past it
 *                   (0 = SAVE_CACHE_MAX_MB env, unlimited by default)
 *   --cache-stats   print store counters (hits/misses/inserts/
 *                   evictions/bytes) to stderr after the run
 *   --max-retries=N retries for a failed sweep point / slice (default 2)
 *   --fail-fast     abort the sweep on the first permanent failure
 *   --max-failures=N tolerated permanent failures before a nonzero
 *                   exit (default 0: any failure fails the run, but
 *                   only after the whole sweep completes)
 *   --trace-events=F write a Perfetto/Chrome pipeline event trace of
 *                   every machine the bench runs (sets
 *                   SAVE_TRACE_EVENTS; see src/trace/event_trace.h)
 *
 * Isolation flags (sandboxed slice workers, src/proc; results are
 * bit-identical across modes):
 *   --isolation=M   none | thread (default) | process; default is the
 *                   SAVE_ISOLATION environment variable
 *   --workers=N     worker processes (0 = match --threads)
 *   --worker-timeout-ms=N  per-slice wall-clock deadline (SIGKILL on
 *                   expiry; default 30000)
 *   --max-worker-crashes=N  pool-wide crash budget before degrading
 *                   to in-process execution (default 8)
 *   --worker-max-slices=N  recycle each worker after N slices (0 =
 *                   never)
 *   --worker-rss-mb=N  RLIMIT_AS cap per worker (0 = none)
 *   --worker-bin=P  explicit save-worker binary (default: sibling of
 *                   the bench, or SAVE_WORKER_BIN)
 *
 * Resuming: every sweep persists its slices in the result store as
 * they complete, so an interrupted run resumes by rerunning the same
 * command with the same --cache-dir; stored slices are not simulated
 * again.
 */

#ifndef SAVE_BENCH_BENCH_UTIL_H
#define SAVE_BENCH_BENCH_UTIL_H

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "engine/engine.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace save {

/** Tiny --key=value flag reader. Malformed values throw ConfigError
 *  (caught by benchMain, which prints usage and exits cleanly). */
class Flags
{
  public:
    Flags(int argc, char **argv) : argc_(argc), argv_(argv) {}

    int
    getInt(const char *name, int def) const
    {
        std::string prefix = std::string("--") + name + "=";
        for (int i = 1; i < argc_; ++i) {
            if (std::strncmp(argv_[i], prefix.c_str(),
                             prefix.size()) != 0)
                continue;
            const char *text = argv_[i] + prefix.size();
            char *end = nullptr;
            errno = 0;
            long v = std::strtol(text, &end, 10);
            if (*text == '\0' || end == nullptr || *end != '\0' ||
                errno == ERANGE || v < std::numeric_limits<int>::min() ||
                v > std::numeric_limits<int>::max())
                throw ConfigError(std::string("--") + name +
                                  " expects an integer (got '" + text +
                                  "')");
            return static_cast<int>(v);
        }
        return def;
    }

    std::string
    getStr(const char *name, const char *def) const
    {
        std::string prefix = std::string("--") + name + "=";
        for (int i = 1; i < argc_; ++i)
            if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) ==
                0)
                return argv_[i] + prefix.size();
        return def;
    }

    bool
    has(const char *name) const
    {
        std::string flag = std::string("--") + name;
        for (int i = 1; i < argc_; ++i)
            if (flag == argv_[i])
                return true;
        return false;
    }

  private:
    int argc_;
    char **argv_;
};

/** Estimator options from flags (grid=3 keeps default runs quick;
 *  --grid=1 reproduces the paper's full 10% sampling). */
inline EstimatorOptions
estimatorOptions(const Flags &flags)
{
    EstimatorOptions o;
    o.gridStep = flags.getInt("grid", 3);
    o.kSteps = flags.getInt("ksteps", o.kSteps);
    o.tiles = flags.getInt("tiles", o.tiles);
    o.cores = flags.getInt("cores", o.cores);
    o.seed = static_cast<uint64_t>(
        flags.getInt("seed", static_cast<int>(o.seed)));
    o.threads = flags.getInt("threads", 0);
    o.cacheDir = flags.getStr("cache-dir", "");
    o.cacheMaxMb = flags.getInt("cache-max-mb", 0);
    o.maxRetries = flags.getInt("max-retries", o.maxRetries);
    o.failFast = flags.has("fail-fast");
    o.isolation = flags.getStr("isolation", "");
    o.proc.workers = flags.getInt("workers", o.proc.workers);
    o.proc.sliceTimeoutMs =
        flags.getInt("worker-timeout-ms", o.proc.sliceTimeoutMs);
    o.proc.maxWorkerCrashes =
        flags.getInt("max-worker-crashes", o.proc.maxWorkerCrashes);
    o.proc.maxSlicesPerWorker =
        flags.getInt("worker-max-slices", o.proc.maxSlicesPerWorker);
    o.proc.rssCapMb = flags.getInt("worker-rss-mb", o.proc.rssCapMb);
    o.proc.workerBin = flags.getStr("worker-bin", "");
    o.validate();
    return o;
}

/**
 * Persistent memoization of Engine::runGemm for the figure/table
 * benches that drive the simulator directly (no estimator): a repeat
 * slice — same machine, feature set, and GEMM workload — is served
 * from the content-addressed result store instead of re-simulating.
 * Shares --cache-dir/--cache-max-mb (and the SAVE_CACHE_DIR /
 * SAVE_CACHE_MAX_MB environment) with the estimator-driven benches,
 * and the same store directory: the key space is partitioned by the
 * config/workload digests, so estimator slices and bench slices
 * coexist in one store.
 */
class BenchResultCache
{
  public:
    explicit BenchResultCache(const Flags &flags)
    {
        ResultStore::Options o;
        o.dir = ResultStore::resolveDir(flags.getStr("cache-dir", ""));
        o.maxBytes =
            ResultStore::resolveMaxBytes(flags.getInt("cache-max-mb", 0));
        store_ = std::make_unique<ResultStore>(o);
    }

    /** eng.runGemm(g, cores, vpus), served from the store when it has
     *  this exact (machine, features, workload) before. Simulated
     *  results are persisted as they complete; a cached result is
     *  bit-identical to the simulation it replaces (the store
     *  round-trips every stat verbatim). */
    KernelResult
    run(const Engine &eng, const GemmConfig &g, int cores, int vpus)
    {
        const CasKey key{casHashConfig(eng.machine(), eng.save(), 0),
                         casGemmWorkload(g, cores, vpus)};
        CasValue v;
        if (store_->lookup(key, &v)) {
            KernelResult kr;
            kr.timeNs = v.timeNs;
            kr.cycles = v.cycles;
            kr.coreGhz = v.coreGhz;
            for (const auto &[name, value] : v.stats)
                kr.stats.set(name, value);
            return kr;
        }
        KernelResult kr = eng.runGemm(g, cores, vpus);
        if (std::isfinite(kr.timeNs)) {
            v = CasValue{};
            v.timeNs = kr.timeNs;
            v.cycles = kr.cycles;
            v.coreGhz = kr.coreGhz;
            for (const auto &[name, value] : kr.stats.all())
                v.stats.emplace_back(name, value);
            store_->insert(key, v);
        }
        return kr;
    }

    const ResultStore *store() const { return store_.get(); }

  private:
    std::unique_ptr<ResultStore> store_;
};

/** --cache-stats: one stderr line of store counters after the run.
 *  Accepts a null store (estimator without one) as a no-op. */
inline void
maybePrintCacheStats(const Flags &flags, const ResultStore *store)
{
    if (!flags.has("cache-stats") || store == nullptr)
        return;
    std::fprintf(stderr, "cache %s: %s\n",
                 store->enabled() ? store->dir().c_str() : "(disabled)",
                 store->statsSnapshot().toJson().c_str());
}

/** Sweep robustness knobs shared by the bench harnesses. */
struct SweepOptions
{
    int maxRetries = 2;
    bool failFast = false;
    /** Permanent failures tolerated before finish() returns nonzero. */
    int maxFailures = 0;
};

inline SweepOptions
sweepOptions(const Flags &flags)
{
    SweepOptions o;
    o.maxRetries = flags.getInt("max-retries", o.maxRetries);
    o.failFast = flags.has("fail-fast");
    o.maxFailures = flags.getInt("max-failures", o.maxFailures);
    if (o.maxRetries < 0)
        throw ConfigError("--max-retries must be >= 0 (got " +
                          std::to_string(o.maxRetries) + ")");
    if (o.maxFailures < 0)
        throw ConfigError("--max-failures must be >= 0 (got " +
                          std::to_string(o.maxFailures) + ")");
    return o;
}

/**
 * Fault-isolated sweep driver.
 *
 * point() runs one sweep point with the retry policy and — when
 * retries are exhausted without --fail-fast — records a failure and
 * yields a NaN (floating-point T) or value-initialized result so the
 * rest of the sweep still completes. finish() prints the failure
 * report and maps it to the process exit code.
 *
 * Thread-safe: point() may be called concurrently from parallelSweep
 * workers.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opt) : opt_(std::move(opt)) {}

    template <typename T, typename Fn>
    T
    point(const std::string &key, Fn fn)
    {
        const int attempts = 1 + opt_.maxRetries;
        for (int a = 1;; ++a) {
            try {
                return fn();
            } catch (const std::exception &e) {
                if (a < attempts) {
                    SAVE_WARN("sweep point '", key, "' attempt ", a,
                              "/", attempts, " failed: ", e.what(),
                              "; retrying");
                    continue;
                }
                if (opt_.failFast)
                    throw;
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    failures_.push_back(
                        {key, e.what(), attempts});
                }
                SAVE_WARN("sweep point '", key,
                          "' failed permanently after ", attempts,
                          " attempt(s): ", e.what());
                return failedValue<T>();
            }
        }
    }

    /**
     * Print the failure report (stderr), then return the process exit
     * code: 0 when total failures (sweep + `extra`, e.g. estimator
     * slice failures) stay within --max-failures, 1 otherwise.
     */
    int
    finish(size_t extra_failures = 0,
           const std::string &extra_report = "")
    {
        std::lock_guard<std::mutex> lk(mu_);
        size_t total = failures_.size() + extra_failures;
        if (!failures_.empty()) {
            std::fprintf(stderr,
                         "%zu sweep point(s) failed permanently:\n",
                         failures_.size());
            for (const Failure &f : failures_)
                std::fprintf(stderr, "  %s: %s (%d attempts)\n",
                             f.key.c_str(), f.reason.c_str(),
                             f.attempts);
        }
        if (!extra_report.empty())
            std::fprintf(stderr, "%s", extra_report.c_str());
        if (total == 0)
            return 0;
        if (total <= static_cast<size_t>(opt_.maxFailures)) {
            std::fprintf(stderr,
                         "%zu failure(s) within --max-failures=%d; "
                         "exiting 0\n",
                         total, opt_.maxFailures);
            return 0;
        }
        return 1;
    }

  private:
    struct Failure
    {
        std::string key;
        std::string reason;
        int attempts;
    };

    template <typename T>
    static T
    failedValue()
    {
        if constexpr (std::is_floating_point_v<T>)
            return std::numeric_limits<T>::quiet_NaN();
        else
            return T{};
    }

    SweepOptions opt_;
    std::mutex mu_;
    std::vector<Failure> failures_;
};

/** Print the shared flag reference (stderr). */
inline void
printBenchUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--flag=value ...]\n"
        "  --grid=N         sparsity-grid stride (1 = paper's full "
        "sampling)\n"
        "  --ksteps=N       slice K length\n"
        "  --tiles=N        register tiles per slice\n"
        "  --cores=N        active cores per slice simulation\n"
        "  --seed=N         estimator workload seed (default 7)\n"
        "  --threads=N      host threads (0 = SAVE_THREADS env or "
        "hardware)\n"
        "  --cache-dir=D    persistent result store ('none' "
        "disables)\n"
        "  --cache-max-mb=N result-store size cap, LRU-evicted "
        "(0 = env)\n"
        "  --cache-stats    print store counters to stderr after the "
        "run\n"
        "  --max-retries=N  retries per failed sweep point (default "
        "2)\n"
        "  --fail-fast      abort on the first permanent failure\n"
        "  --max-failures=N tolerated failures before exit 1\n"
        "  --trace-events=F write a Perfetto/Chrome pipeline event "
        "trace\n"
        "                   (same as SAVE_TRACE_EVENTS=F)\n"
        "  --isolation=M    slice execution: none | thread | process\n"
        "                   (default: SAVE_ISOLATION env, then "
        "thread)\n"
        "  --workers=N      worker processes (0 = match --threads)\n"
        "  --worker-timeout-ms=N  per-slice deadline before the "
        "worker\n"
        "                   is SIGKILLed (default 30000)\n"
        "  --max-worker-crashes=N  crash budget before degrading to\n"
        "                   in-process execution (default 8)\n"
        "  --worker-max-slices=N  recycle workers after N slices "
        "(0 = never)\n"
        "  --worker-rss-mb=N  per-worker RLIMIT_AS cap (0 = none)\n"
        "  --worker-bin=P   explicit save-worker binary path\n",
        argv0);
}

/**
 * Run a bench body with the shared error policy: ConfigError prints
 * the message plus the flag reference and exits 2 (usage error);
 * any other SimError (deadlock, cache corruption under --fail-fast)
 * prints what it knows — including the pipeline snapshot for
 * deadlocks — and exits 1. Returns the body's own exit code
 * otherwise.
 */
template <typename Fn>
int
benchMain(int argc, char **argv, Fn body)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            printBenchUsage(argv[0]);
            return 0;
        }
        // --trace-events=PATH maps onto SAVE_TRACE_EVENTS so every
        // machine the bench builds auto-attaches a pipeline event
        // trace (see src/trace/event_trace.h).
        constexpr const char *kTraceEvents = "--trace-events=";
        if (std::strncmp(argv[i], kTraceEvents,
                         std::strlen(kTraceEvents)) == 0)
            setenv("SAVE_TRACE_EVENTS",
                   argv[i] + std::strlen(kTraceEvents), 1);
    }
    try {
        return body();
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n\n", e.what());
        printBenchUsage(argc > 0 ? argv[0] : "bench");
        return 2;
    } catch (const DeadlockError &e) {
        std::fprintf(stderr, "error: %s\n%s", e.what(),
                     e.snapshot().c_str());
        return 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

/**
 * Evaluate fn(0..n-1) across the global thread pool and return the
 * results in index order. Each point must be independent (every
 * simulation here is seeded), so the output is identical to a serial
 * loop — only wall-clock changes.
 */
template <typename Fn>
auto
parallelSweep(int n, Fn fn) -> std::vector<decltype(fn(0))>
{
    std::vector<decltype(fn(0))> out(static_cast<size_t>(n));
    ThreadPool::global().parallelFor(
        n, [&](int64_t i) { out[static_cast<size_t>(i)] =
                                fn(static_cast<int>(i)); });
    return out;
}

/** Slice config for a one-off kernel sweep. */
inline GemmConfig
sliceFor(const KernelSpec &spec, Precision prec, double bs, double nbs,
         const Flags &flags, uint64_t seed = 7)
{
    GemmConfig g = spec.slice(prec, bs, nbs,
                              flags.getInt("ksteps", 192), seed);
    g.tiles = flags.getInt("tiles", 6);
    return g;
}

inline const char *
fmtPct(double s)
{
    static char buf[16];
    std::snprintf(buf, sizeof(buf), "%.0f%%", 100 * s);
    return buf;
}

} // namespace save

#endif // SAVE_BENCH_BENCH_UTIL_H
