/**
 * @file
 * save-worker: the sandboxed slice-simulation child process.
 *
 * Not a user-facing tool — the sweep parent (src/proc/worker_pool)
 * fork/execs this binary with the wire protocol (src/proc/wire_codec,
 * DESIGN.md §12) on stdin/stdout: HELO configures the session, then
 * each REQ frame simulates one surface slice and answers RES (time,
 * cycles, frequency, full stat map) or ERR (a SimError-taxonomy kind
 * the parent rethrows). Logs go to stderr; stdout carries frames only.
 *
 * The worker is where process-level fault injection lands: it inherits
 * SAVE_FAULT_INJECT across exec and applies crash/abort/hang/oom modes
 * via maybeCrashSlice before simulating, using the attempt number the
 * parent sends in the REQ arg. A bad_alloc during a slice (injected or
 * a real RLIMIT_AS hit) is answered with ERR Oom and the worker lives
 * on; one during framing exits with kWorkerExitOom so the parent's
 * triage still classifies it.
 */

#include <cmath>
#include <exception>
#include <memory>
#include <new>

#include <sys/resource.h>
#include <unistd.h>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "proc/wire_codec.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace {

using namespace save;

void
sendError(WireErrorKind kind, const std::string &what)
{
    WireErrorInfo info;
    info.kind = kind;
    info.what = what;
    wireWrite(STDOUT_FILENO, kWireError, 0, wireEncodeError(info));
}

void
applyRssCap(int cap_mb)
{
    if (cap_mb <= 0)
        return;
    struct rlimit lim;
    lim.rlim_cur = lim.rlim_max =
        static_cast<rlim_t>(cap_mb) * 1024 * 1024;
    if (::setrlimit(RLIMIT_AS, &lim) != 0)
        SAVE_WARN("save-worker: setrlimit(RLIMIT_AS, ", cap_mb,
                  " MB) failed; running uncapped");
}

int
serve()
{
    // Session setup: the first frame must be HELO.
    WireFrame frame;
    if (wireRead(STDIN_FILENO, frame, -1) != WireRead::Ok ||
        frame.fourcc != kWireHello) {
        sendError(WireErrorKind::Config,
                  "save-worker expects a HELO frame first (this binary "
                  "is launched by the sweep parent, not by hand)");
        return kWorkerExitConfig;
    }
    WireSessionInit init;
    try {
        init = wireDecodeSessionInit(frame.payload);
        init.mcfg.validate();
        init.scfg.validate();
    } catch (const SimError &e) {
        sendError(WireErrorKind::Config, e.what());
        return kWorkerExitConfig;
    }
    applyRssCap(init.rssCapMb);

    // The worker opens its own handle on the shared result store and
    // persists every slice it simulates *before* replying, so a result
    // lands on disk exactly once: the parent marks worker-run slices
    // as already persisted. A cache hit here answers the REQ without
    // simulating at all (e.g. a retry of a slice whose first attempt
    // crashed after the insert).
    std::unique_ptr<ResultStore> store;
    if (!init.cacheDir.empty()) {
        ResultStore::Options sopt;
        sopt.dir = init.cacheDir;
        sopt.maxBytes = init.cacheMaxBytes;
        store = std::make_unique<ResultStore>(sopt);
    }

    if (!wireWrite(STDOUT_FILENO, kWireHelloAck, kWireVersion, {}))
        return 1;

    // Slice loop: the parent enforces deadlines, so reads block
    // forever; a closed stdin is the normal shutdown signal.
    for (;;) {
        if (wireRead(STDIN_FILENO, frame, -1) != WireRead::Ok)
            return kWorkerExitOk; // EOF: parent is gone
        if (frame.fourcc == kWireBye)
            return kWorkerExitOk;
        if (frame.fourcc != kWireRequest) {
            sendError(WireErrorKind::Trace,
                      "save-worker: unexpected frame kind");
            continue;
        }
        WireSliceRequest req = wireDecodeSliceRequest(frame.payload);
        int attempt = static_cast<int>(frame.arg);
        try {
            FaultInjector::global().maybeCrashSlice(req.keyHash,
                                                    attempt);
            const CasKey ck{init.configHash,
                            casSliceWorkload(req.key)};
            WireSliceResult res;
            CasValue hit;
            if (store && store->lookup(ck, &hit)) {
                res.timeNs = hit.timeNs;
                res.cycles = hit.cycles;
                res.coreGhz = hit.coreGhz;
                res.stats = hit.stats;
            } else {
                KernelResult kr =
                    TrainingEstimator::simulateSliceKernel(
                        init.mcfg, init.scfg, req.key, init.tiles,
                        init.cores, init.seed);
                res.timeNs = kr.timeNs;
                res.cycles = kr.cycles;
                res.coreGhz = kr.coreGhz;
                for (const auto &[name, value] : kr.stats.all())
                    res.stats.emplace_back(name, value);
                if (store && std::isfinite(res.timeNs)) {
                    CasValue v;
                    v.timeNs = res.timeNs;
                    v.cycles = res.cycles;
                    v.coreGhz = res.coreGhz;
                    v.stats = res.stats;
                    store->insert(ck, v);
                }
            }
            if (!wireWrite(STDOUT_FILENO, kWireResult, 0,
                           wireEncodeSliceResult(res)))
                return 1; // parent hung up mid-reply
        } catch (const std::bad_alloc &) {
            sendError(WireErrorKind::Oom,
                      "slice simulation ran out of memory");
        } catch (const std::exception &e) {
            const WireErrorInfo info = wireClassifyError(e);
            sendError(info.kind, info.what);
        }
    }
}

} // namespace

int
main()
{
    try {
        return serve();
    } catch (const std::bad_alloc &) {
        return save::kWorkerExitOom;
    } catch (const save::TraceError &e) {
        // Corrupt frame from the parent: nothing sane to reply with.
        SAVE_WARN("save-worker: ", e.what());
        return 1;
    } catch (const std::exception &e) {
        SAVE_WARN("save-worker: ", e.what());
        return 1;
    }
}
