/**
 * @file
 * save-worker: the sandboxed slice-simulation child process.
 *
 * Not a user-facing tool — the parent's slice producer
 * (src/proc/slice_producer) fork/execs this binary through its worker
 * pool with the wire protocol (src/proc/wire_codec, DESIGN.md §12) on
 * stdin/stdout: HELO sets the RSS cap, then each REQ frame carries one
 * SliceRequest, runs Engine::runGemm on it and answers RES (the slice
 * record: time, cycles, frequency, full stat map) or ERR (a
 * SimError-taxonomy kind the parent rethrows), until BYE or EOF. The
 * worker never opens the result store: the parent owns each slice's
 * flight and persists the record it receives. Logs go to stderr;
 * stdout carries frames only.
 *
 * The worker is where process-level fault injection lands: it inherits
 * SAVE_FAULT_INJECT across exec and applies crash/abort/hang/oom modes
 * via maybeCrashSlice before simulating, at the request's fault site
 * (sliceFaultSite) and the attempt number the parent sends in the REQ
 * arg. A bad_alloc during a slice (injected or
 * a real RLIMIT_AS hit) is answered with ERR Oom and the worker lives
 * on; one during framing exits with kWorkerExitOom so the parent's
 * triage still classifies it.
 */

#include <exception>
#include <new>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "engine/engine.h"
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
    frameWriteFd(STDOUT_FILENO, kWireError, 0, wireEncodeError(info));
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
    Frame frame;
    if (wireRead(STDIN_FILENO, frame, -1) != FrameRead::Ok ||
        frame.fourcc != kWireHello) {
        sendError(WireErrorKind::Config,
                  "save-worker expects a HELO frame first (this binary "
                  "is launched by the sweep parent, not by hand)");
        return kWorkerExitConfig;
    }
    int rss_cap_mb = 0;
    try {
        rss_cap_mb = wireDecodeHello(frame.payload);
    } catch (const SimError &e) {
        sendError(WireErrorKind::Config, e.what());
        return kWorkerExitConfig;
    }
    applyRssCap(rss_cap_mb);

    if (!frameWriteFd(STDOUT_FILENO, kWireHelloAck, kWireVersion, {}))
        return 1;

    // Slice loop: the parent enforces deadlines, so reads block
    // forever; a closed stdin is the normal shutdown signal.
    for (;;) {
        if (wireRead(STDIN_FILENO, frame, -1) != FrameRead::Ok)
            return kWorkerExitOk; // EOF: parent is gone
        if (frame.fourcc == kWireBye)
            return kWorkerExitOk;
        if (frame.fourcc != kWireRequest) {
            sendError(WireErrorKind::Trace,
                      "save-worker: unexpected frame kind");
            continue;
        }
        const SliceRequest r = wireDecodeRequest(frame.payload);
        int attempt = static_cast<int>(frame.arg);
        try {
            FaultInjector::global().maybeCrashSlice(sliceFaultSite(r),
                                                    attempt);
            const KernelResult kr =
                Engine(r.mcfg, r.scfg).runGemm(r.gemm, r.cores, r.vpus);
            std::vector<uint8_t> res;
            casEncodeValue(res, toCasValue(kr));
            if (!frameWriteFd(STDOUT_FILENO, kWireResult, 0, res))
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
