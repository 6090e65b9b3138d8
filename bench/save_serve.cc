/**
 * @file
 * save-serve: the simulation-as-a-service daemon (src/serve,
 * DESIGN.md §14). Binds a Unix-domain socket and serves gemm and
 * sweep point requests (any sweep of sweep/sweep.h, by name) from
 * save-ctl, a `bench_<sweep> --sockets=...` coordinator or any
 * ServeClient until drained by SIGTERM/SIGINT or a `save-ctl drain`
 * request; SIGHUP re-reads --config.
 *
 * Every SAVE_* environment knob is snapshotted once at startup into
 * a RuntimeOptions and then overridden by flags; the daemon never
 * consults the environment again, so concurrent sessions can never
 * race a setenv.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "serve/server.h"

using namespace save;

static void
printUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket=PATH [options]\n"
        "  --socket=PATH     Unix-domain socket to listen on "
        "(required)\n"
        "  --workers=N       serve worker threads, each its own "
        "session (default 2)\n"
        "  --queue-cap=N     admission-queue bound; past it requests "
        "are shed\n"
        "                    with a typed BUSY reply (default 8)\n"
        "  --threads=N       simulation fan-out threads shared by all "
        "sessions\n"
        "                    (default: SAVE_THREADS env or hardware)\n"
        "  --isolation=M     slice isolation for every request: none | "
        "thread | process\n"
        "                    (default: SAVE_ISOLATION env, then "
        "thread)\n"
        "  --cache-dir=D     shared content-addressed result store "
        "('none'\n"
        "                    disables; default: SAVE_CACHE_DIR env)\n"
        "  --cache-max-mb=N  store size cap, LRU-evicted (0 = env)\n"
        "  --worker-bin=P    explicit save-worker binary for "
        "--isolation=process\n"
        "  --config=FILE     key=value file re-read on SIGHUP "
        "(queue_cap=N)\n"
        "\n"
        "Drains gracefully on SIGTERM/SIGINT (finishes queued and\n"
        "in-flight work, exits 0). `save-ctl drain` does the same "
        "remotely.\n",
        argv0);
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
        Flags flags(argc, argv);
        ServeServer::Options o;
        o.socketPath = flags.getStr("socket", "");
        o.workers = flags.getInt("workers", 2);
        o.queueCap = flags.getInt("queue-cap", 8);
        o.configPath = flags.getStr("config", "");
        // Straggler-injection hook for the shard fault tests: sleep
        // this long before each sweep point.
        if (const char *d = std::getenv("SAVE_SERVE_TEST_POINT_DELAY_MS"))
            o.testPointDelayMs = std::atoi(d);
        o.runtime = runtimeOptions(flags);
        ServeServer server(std::move(o));
        return server.run();
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n\n", e.what());
        printUsage(argv[0]);
        return 2;
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
