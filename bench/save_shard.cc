/**
 * @file
 * save-shard: distributed Fig. 14 sweep coordinator (src/shard,
 * DESIGN.md §15). Splits the sweep into points and dispatches them
 * across in-process lanes and remote save-serve daemons (one
 * one-point Fig14 request each), then merges the results by index
 * through the shared fig14 renderer.
 *
 * The merged stdout is byte-identical to `bench_fig14` for the same
 * knobs — for any backend mix, shard count, or fault schedule (CI
 * diffs it). Run-dependent counters go to stderr only.
 *
 * Every backend persists its slices in the result store as they
 * complete, so a coordinator killed mid-sweep resumes by rerunning
 * the same command with the same --cache-dir (and the same daemons'
 * store): stored slices are not simulated again.
 */

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "shard/coordinator.h"

using namespace save;

static void
printUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --sockets=A,B,..  save-serve daemon sockets to dispatch "
        "sweep points\n"
        "                    to, one point per request (a daemon of "
        "another\n"
        "                    protocol version, or one that cannot be "
        "reached,\n"
        "                    is excluded with a warning)\n"
        "  --inproc=N        in-process lanes over one shared session "
        "(default 1;\n"
        "                    0 relies entirely on the daemons)\n"
        "  --max-attempts=N  per-point dispatch budget before a "
        "permanent\n"
        "                    failure (default 3)\n"
        "  --straggler-ms=N  speculatively re-dispatch points in "
        "flight longer\n"
        "                    than this (default 0: disabled)\n"
        "  --rpc-timeout-ms=N  per-frame RPC deadline, reset at each "
        "ack\n"
        "                    (default 120000)\n"
        "  --max-failures=N  tolerated permanent point failures before "
        "exit 1\n"
        "  --grid/--ksteps/--tiles/--cores/--seed  estimator knobs "
        "(must match\n"
        "                    the daemons' build; defaults match "
        "bench_fig14)\n"
        "  --threads=N       in-process fan-out threads (0 = env/"
        "hardware)\n"
        "  --isolation=M     in-process slice isolation: none | thread "
        "| process\n"
        "  --cache-dir=D     in-process content-addressed store "
        "('none' disables);\n"
        "                    rerun with the same store to resume a "
        "killed sweep\n"
        "  --cache-max-mb=N  store size cap (0 = env)\n"
        "  --cache-stats     print in-process store counters to "
        "stderr\n",
        argv0);
}

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);

    ShardCoordinator::Options o;
    o.sockets = shardParseSockets(flags.getStr("sockets", ""));
    o.inprocLanes = flags.getInt("inproc", 1);
    o.maxAttempts = flags.getInt("max-attempts", 3);
    o.stragglerMs = flags.getInt("straggler-ms", 0);
    o.rpcTimeoutMs = flags.getInt("rpc-timeout-ms", 120000);

    // The same knob plumbing as save-serve: snapshot the environment
    // once, then let flags override it.
    o.runtime = runtimeOptions(flags);

    o.knobs.gridStep = flags.getInt("grid", 3);
    o.knobs.kSteps = flags.getInt("ksteps", o.knobs.kSteps);
    o.knobs.tiles = flags.getInt("tiles", o.knobs.tiles);
    o.knobs.cores = flags.getInt("cores", o.knobs.cores);
    o.knobs.seed = static_cast<uint64_t>(
        flags.getInt("seed", static_cast<int>(o.knobs.seed)));

    SweepOptions sw = sweepOptions(flags);

    ShardCoordinator coord(std::move(o));
    std::string report = coord.run();
    std::fputs(report.c_str(), stdout);

    const ShardCoordinator::Stats &st = coord.stats();
    if (!coord.stats().failures.empty() || st.requeues > 0 ||
        st.speculative > 0 || st.backendsExcluded > 0)
        std::fprintf(stderr,
                     "shard: %zu requeue(s), %zu speculative "
                     "re-dispatch(es), %zu backend(s) excluded\n",
                     st.requeues, st.speculative,
                     st.backendsExcluded);
    // The same failure report and exit contract as
    // SweepRunner::finish, so humans read one format.
    printSweepFailures(st.failures);
    maybePrintCacheStats(flags, coord.resultStore());
    return sweepExitCode(st.failures.size(), sw.maxFailures);
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            printUsage(argv[0]);
            return 0;
        }
    }
    try {
        return run(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n\n", e.what());
        printUsage(argv[0]);
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
