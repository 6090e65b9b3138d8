/**
 * @file
 * Shared flag handling of the reproduction harnesses: the --key=value
 * reader, the sweep knob reader, the flag reference (printBenchUsage,
 * which `--help` prints), benchMain's error policy, and sweepMain,
 * the whole program of every `bench_<name>` but bench_simspeed
 * (sweep/sweep.h).
 *
 * Resuming: every sweep persists its slices in the result store as
 * they complete, so an interrupted run resumes by rerunning the same
 * command with the same --cache-dir; stored slices are not simulated
 * again.
 */

#ifndef SAVE_BENCH_BENCH_UTIL_H
#define SAVE_BENCH_BENCH_UTIL_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "shard/coordinator.h"
#include "util/error.h"
#include "util/runtime_options.h"

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

/**
 * The environment snapshot with --threads, --isolation, --cache-dir,
 * --cache-max-mb and --worker-bin applied over it, for the tools that
 * hand one RuntimeOptions to a session (save-serve, the sweep
 * benches). A bad isolation mode fails here, not at the first slice.
 */
inline RuntimeOptions
runtimeOptions(const Flags &flags)
{
    RuntimeOptions rt = RuntimeOptions::fromEnv();
    int threads = flags.getInt("threads", 0);
    if (threads < 0)
        throw ConfigError("--threads must be >= 0 (got " +
                          std::to_string(threads) + ")");
    if (threads != 0)
        rt.threads = threads;
    std::string iso = flags.getStr("isolation", "");
    if (!iso.empty())
        rt.isolation = iso;
    std::string cache_dir = flags.getStr("cache-dir", "");
    if (!cache_dir.empty())
        rt.cacheDir = cache_dir;
    int cache_mb = flags.getInt("cache-max-mb", 0);
    if (cache_mb != 0)
        rt.cacheMaxMb = cache_mb;
    std::string worker_bin = flags.getStr("worker-bin", "");
    if (!worker_bin.empty())
        rt.workerBin = worker_bin;
    rt.resolveIsolation();
    return rt;
}

/** The knobs of a run of `spec`: its defaults, with --grid, --ksteps,
 *  --tiles, --cores and --seed applied over them. */
inline SweepKnobs
sweepKnobs(const Flags &flags, const SweepSpec &spec)
{
    SweepKnobs k = spec.defaults;
    k.gridStep = flags.getInt("grid", k.gridStep);
    k.kSteps = flags.getInt("ksteps", k.kSteps);
    k.tiles = flags.getInt("tiles", k.tiles);
    k.cores = flags.getInt("cores", k.cores);
    k.seed = static_cast<uint64_t>(
        flags.getInt("seed", static_cast<int>(k.seed)));
    return k;
}

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
        "  --seed=N         estimator workload seed\n"
        "                   (these five default to the sweep's own)\n"
        "  --threads=N      host threads (0 = SAVE_THREADS env or "
        "hardware)\n"
        "  --cache-dir=D    persistent result store ('none' "
        "disables)\n"
        "  --cache-max-mb=N result-store size cap, LRU-evicted "
        "(0 = env)\n"
        "  --cache-stats    print store counters to stderr after the "
        "run\n"
        "  --max-retries=N  retries per failed sweep point and slice "
        "(default 2)\n"
        "  --fail-fast      end on the first permanent failure\n"
        "  --max-failures=N tolerated failures before exit 1\n"
        "  --sockets=A,B    save-serve daemons to send sweep points "
        "to as well\n"
        "  --inproc=N       in-process lanes (default: the fan-out "
        "threads;\n"
        "                   0 = daemons only)\n"
        "  --straggler-ms=N re-dispatch a point in flight longer than "
        "this\n"
        "                   (default 0: never)\n"
        "  --rpc-timeout-ms=N  per-frame daemon read deadline "
        "(default 120000)\n"
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
 * The whole program of `bench_<name>`: run sweep `name` through a
 * ShardCoordinator built from the flags — in-process lanes, plus the
 * --sockets daemons — and print its report on stdout. Run-dependent
 * counters go to stderr only: stdout must be byte-identical across
 * thread counts, cache states, isolation modes and backend mixes.
 * Exits 1 when more points failed for good than --max-failures
 * allows.
 */
inline int
sweepMain(int argc, char **argv, const char *name)
{
    return benchMain(argc, argv, [&] {
        Flags flags(argc, argv);
        const SweepSpec &spec = findSweep(name);
        ShardCoordinator::Options o;
        o.sweep = name;
        o.runtime = runtimeOptions(flags);
        const int fanout = o.runtime.resolveIsolation() == "none"
                               ? 1
                               : o.runtime.resolveThreads();
        o.sockets = shardParseSockets(flags.getStr("sockets", ""));
        o.inprocLanes = flags.getInt("inproc", fanout);
        o.stragglerMs = flags.getInt("straggler-ms", o.stragglerMs);
        o.rpcTimeoutMs = flags.getInt("rpc-timeout-ms", o.rpcTimeoutMs);
        o.maxRetries = flags.getInt("max-retries", o.maxRetries);
        o.failFast = flags.has("fail-fast");
        o.knobs = sweepKnobs(flags, spec);
        o.proc.workers = flags.getInt("workers", o.proc.workers);
        o.proc.sliceTimeoutMs =
            flags.getInt("worker-timeout-ms", o.proc.sliceTimeoutMs);
        o.proc.maxWorkerCrashes =
            flags.getInt("max-worker-crashes", o.proc.maxWorkerCrashes);
        o.proc.maxSlicesPerWorker =
            flags.getInt("worker-max-slices", o.proc.maxSlicesPerWorker);
        o.proc.rssCapMb = flags.getInt("worker-rss-mb", o.proc.rssCapMb);
        o.proc.validate();
        const int max_failures = flags.getInt("max-failures", 0);
        if (max_failures < 0)
            throw ConfigError("--max-failures must be >= 0 (got " +
                              std::to_string(max_failures) + ")");

        ShardCoordinator coord(std::move(o));
        std::fprintf(stderr, "simulation fan-out: %d thread(s)\n", fanout);
        const std::string report = coord.run();
        std::fputs(report.c_str(), stdout);

        const SimSession *session = coord.session();
        if (session != nullptr)
            std::fprintf(
                stderr, "slice simulations: %lu, persistent hits: %lu\n",
                static_cast<unsigned long>(session->simulations()),
                static_cast<unsigned long>(
                    session->resultStore()->hits()));
        const ShardCoordinator::Stats &st = coord.stats();
        if (!st.failures.empty()) {
            std::fprintf(stderr,
                         "%zu sweep point(s) failed permanently:\n",
                         st.failures.size());
            for (const ShardCoordinator::PermanentFailure &f :
                 st.failures)
                std::fprintf(stderr, "  %s: %s (%d attempts)\n",
                             f.key.c_str(), f.reason.c_str(),
                             f.attempts);
        }
        if (session != nullptr)
            std::fputs(session->failureReport().c_str(), stderr);
        if (st.requeues > 0 || st.speculative > 0 ||
            st.backendsExcluded > 0)
            std::fprintf(stderr,
                         "shard: %zu requeue(s), %zu speculative "
                         "re-dispatch(es), %zu backend(s) excluded\n",
                         st.requeues, st.speculative,
                         st.backendsExcluded);
        const ResultStore *store = coord.resultStore();
        if (flags.has("cache-stats") && store != nullptr)
            std::fprintf(stderr, "cache %s: %s\n",
                         store->enabled() ? store->dir().c_str()
                                          : "(disabled)",
                         store->statsSnapshot().toJson().c_str());

        if (st.failures.empty())
            return 0;
        if (st.failures.size() <= static_cast<size_t>(max_failures)) {
            std::fprintf(stderr,
                         "%zu failure(s) within --max-failures=%d; "
                         "exiting 0\n",
                         st.failures.size(), max_failures);
            return 0;
        }
        return 1;
    });
}

} // namespace save

#endif // SAVE_BENCH_BENCH_UTIL_H
