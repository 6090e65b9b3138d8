/**
 * @file
 * save-ctl: command-line client for the save-serve daemon.
 *
 *   save-ctl ping   --socket=PATH            liveness probe
 *   save-ctl status --socket=PATH [--json]   daemon counters
 *   save-ctl drain  --socket=PATH            graceful shutdown
 *   save-ctl gemm   --socket=PATH [workload] one GEMM slice
 *   save-ctl <sweep> --socket=PATH [knobs]   a whole sweep: table1 ...
 *                                            directconv (sweep/sweep.h)
 *
 * A sweep command sends one request listing every point of the
 * sweep, collects the daemon's per-point acks, and renders them
 * through the sweep's one renderer, so stdout is byte-identical to
 * `bench_<sweep>` run in-process with the same knobs (progress lines
 * go to stderr). Exit codes: 0 ok, 1 error (daemon-side, a point that
 * failed, or a point not acked exactly once with the sweep's width of
 * values), 2 usage, 3 shed by admission control (BUSY — retry
 * later).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "serve/client.h"

using namespace save;

namespace {

void
printUsage(const char *argv0)
{
    std::string sweeps;
    size_t n = 0;
    for (const SweepSpec *s : allSweeps())
        sweeps += std::string(n++ % 6 ? " " : "\n    ") + s->name;
    std::fprintf(
        stderr,
        "usage: %s <ping|status|drain|gemm|SWEEP> --socket=PATH "
        "[options]\n"
        "  SWEEP is a sweep name:%s\n"
        "common options:\n"
        "  --socket=PATH     daemon socket (required)\n"
        "  --json            machine-readable output\n"
        "  --priority=P      admission class: high | normal | low\n"
        "  --deadline-ms=N   daemon-side wall-clock budget (0 = "
        "none)\n"
        "  --timeout-ms=N    client-side per-frame read timeout "
        "(-1 = wait)\n"
        "gemm workload (defaults in parentheses):\n"
        "  --mr=N (4)  --nr=N (6)  --ksteps=N (128)  --tiles=N (1)\n"
        "  --bs-pct=N (0)  --nbs-pct=N (0)  --seed=N (1)\n"
        "  --precision=fp32|bf16 (fp32)  --cores=N (1)  --vpus=N (2)\n"
        "sweep knobs (defaults: the sweep's own, as bench_<sweep>):\n"
        "  --grid=N  --ksteps=N  --tiles=N  --cores=N  --seed=N\n"
        "exit codes: 0 ok, 1 error, 2 usage, 3 busy (shed; retry)\n",
        argv0, sweeps.c_str());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

ServePriority
parsePriority(const std::string &p)
{
    if (p == "high")
        return ServePriority::High;
    if (p == "normal" || p.empty())
        return ServePriority::Normal;
    if (p == "low")
        return ServePriority::Low;
    throw ConfigError("--priority expects high, normal, or low (got '" +
                      p + "')");
}

int
runCommand(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    Flags flags(argc, argv);
    const std::string socket_path = flags.getStr("socket", "");
    if (socket_path.empty())
        throw ConfigError("--socket=PATH is required");
    const bool json = flags.has("json");
    const int timeout_ms = flags.getInt("timeout-ms", -1);

    ServeRequest req;
    const SweepSpec *spec = nullptr;
    std::vector<std::string> keys;
    req.priority = parsePriority(flags.getStr("priority", "normal"));
    req.deadlineMs =
        static_cast<uint32_t>(flags.getInt("deadline-ms", 0));

    if (cmd == "ping") {
        req.kind = ServeKind::Ping;
    } else if (cmd == "status") {
        req.kind = ServeKind::Status;
    } else if (cmd == "drain") {
        req.kind = ServeKind::Drain;
    } else if (cmd == "gemm") {
        req.kind = ServeKind::Gemm;
        req.gemm.mr = flags.getInt("mr", 4);
        req.gemm.nrVecs = flags.getInt("nr", 6);
        req.gemm.kSteps = flags.getInt("ksteps", 128);
        req.gemm.tiles = flags.getInt("tiles", 1);
        req.gemm.bsSparsity = flags.getInt("bs-pct", 0) / 100.0;
        req.gemm.nbsSparsity = flags.getInt("nbs-pct", 0) / 100.0;
        req.gemm.seed =
            static_cast<uint64_t>(flags.getInt("seed", 1));
        std::string prec = flags.getStr("precision", "fp32");
        if (prec == "bf16")
            req.gemm.precision = Precision::Bf16;
        else if (prec != "fp32")
            throw ConfigError("--precision expects fp32 or bf16 "
                              "(got '" +
                              prec + "')");
        req.cores = flags.getInt("cores", 1);
        req.vpus = flags.getInt("vpus", 2);
    } else {
        // Anything else names a sweep; an unknown name is a usage
        // error listing the known ones.
        spec = &findSweep(cmd);
        req.kind = ServeKind::Sweep;
        req.sweep = cmd;
        req.knobs = sweepKnobs(flags, *spec);
        req.knobs.validate();
        keys = sweepKeys(*spec, req.knobs);
        for (size_t i = 0; i < keys.size(); ++i)
            req.points.push_back(static_cast<uint32_t>(i));
    }

    // Sweep acks, by point index. Each ack comes off the wire, so its
    // index and width are checked before it is used.
    SweepResults results(req.points.size());
    std::vector<int> acks(req.points.size(), 0);
    size_t done = 0;
    ServeClient client(socket_path);
    ServeClient::Reply reply = client.call(
        req,
        [&](const ServePointAck &a) {
            if (a.index >= acks.size())
                throw TraceError(cmd + ": ack for point " +
                                 std::to_string(a.index) +
                                 " outside the sweep");
            if (a.values.size() != spec->width)
                throw TraceError(cmd + ": point '" + keys[a.index] +
                                 "' acked " +
                                 std::to_string(a.values.size()) +
                                 " value(s), expected " +
                                 std::to_string(spec->width));
            ++acks[a.index];
            results[a.index] = a.values;
            std::fprintf(stderr, "progress %zu/%zu %s\n", ++done,
                         acks.size(), a.key.c_str());
        },
        timeout_ms);

    if (reply.kind == ServeClient::Reply::Kind::Busy) {
        if (json)
            std::printf("{\"busy\":true,\"reason\":\"%s\",\"queued\":"
                        "%u,\"queueCap\":%u}\n",
                        jsonEscape(reply.busy.reason).c_str(),
                        reply.busy.queued, reply.busy.queueCap);
        else
            std::fprintf(stderr, "busy: %s\n",
                         reply.busy.reason.c_str());
        return 3;
    }
    if (reply.kind == ServeClient::Reply::Kind::Error) {
        if (json)
            std::printf("{\"error\":\"%s\"}\n",
                        jsonEscape(reply.error.what).c_str());
        else
            std::fprintf(stderr, "daemon error: %s\n",
                         reply.error.what.c_str());
        return 1;
    }

    switch (req.kind) {
    case ServeKind::Ping:
        if (json)
            std::printf("{\"ok\":true}\n");
        else
            std::printf("pong\n");
        break;
    case ServeKind::Drain:
        if (json)
            std::printf("{\"draining\":true}\n");
        else
            std::printf("drain acknowledged\n");
        break;
    case ServeKind::Status: {
        const ServeStatus &s = reply.status;
        if (json) {
            std::printf(
                "{\"version\":%u,\"workers\":%u,\"queueCap\":%u,"
                "\"queued\":%u,\"active\":%u,\"draining\":%u,"
                "\"reloads\":%u,\"accepted\":%llu,\"completed\":%llu,"
                "\"shed\":%llu,\"errors\":%llu,\"casHits\":%llu,"
                "\"casMisses\":%llu,\"casInserts\":%llu}\n",
                s.version, s.workers, s.queueCap, s.queued, s.active,
                s.draining, s.reloads,
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.casHits),
                static_cast<unsigned long long>(s.casMisses),
                static_cast<unsigned long long>(s.casInserts));
        } else {
            std::printf("save-serve v%u: %u worker(s), queue %u/%u, "
                        "%u active%s, %u reload(s)\n",
                        s.version, s.workers, s.queued, s.queueCap,
                        s.active, s.draining ? ", draining" : "",
                        s.reloads);
            std::printf("requests: %llu accepted, %llu completed, "
                        "%llu shed, %llu error(s)\n",
                        static_cast<unsigned long long>(s.accepted),
                        static_cast<unsigned long long>(s.completed),
                        static_cast<unsigned long long>(s.shed),
                        static_cast<unsigned long long>(s.errors));
            std::printf("cas: %llu hit(s), %llu miss(es), %llu "
                        "insert(s)\n",
                        static_cast<unsigned long long>(s.casHits),
                        static_cast<unsigned long long>(s.casMisses),
                        static_cast<unsigned long long>(s.casInserts));
        }
        break;
    }
    case ServeKind::Gemm:
        if (json)
            std::printf("{\"timeNs\":%.17g,\"cycles\":%llu,"
                        "\"coreGhz\":%.17g}\n",
                        reply.gemm.timeNs,
                        static_cast<unsigned long long>(
                            reply.gemm.cycles),
                        reply.gemm.coreGhz);
        else
            std::printf("time %.3f us, %llu cycles @ %.2f GHz\n",
                        reply.gemm.timeNs / 1e3,
                        static_cast<unsigned long long>(
                            reply.gemm.cycles),
                        reply.gemm.coreGhz);
        break;
    case ServeKind::Sweep: {
        for (size_t i = 0; i < acks.size(); ++i)
            if (acks[i] != 1)
                throw SimError(cmd + ": point '" + keys[i] +
                               "' was acked " + std::to_string(acks[i]) +
                               " time(s), expected once");
        // Verbatim: stdout must diff clean against bench_<sweep>.
        const std::string report = spec->render(req.knobs, results);
        if (json)
            std::printf("{\"report\":\"%s\"}\n",
                        jsonEscape(report).c_str());
        else
            std::fputs(report.c_str(), stdout);
        break;
    }
    }
    return 0;
}

} // namespace

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
        return runCommand(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n\n", e.what());
        printUsage(argv[0]);
        return 2;
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
