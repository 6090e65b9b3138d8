#include "proc/wire_codec.h"

#include <chrono>
#include <cstring>
#include <new>

#include "util/error.h"
#include "util/posix_io.h"

namespace save {

namespace {

bool
knownFourcc(uint32_t fourcc)
{
    return fourcc == kWireHello || fourcc == kWireHelloAck ||
           fourcc == kWireRequest || fourcc == kWireResult ||
           fourcc == kWireError || fourcc == kWireBye;
}

} // namespace

FrameRead
wireRead(int fd, Frame &frame, int timeout_ms)
{
    return frameReadFd(fd, frame, timeout_ms, knownFourcc,
                       kWireMaxPayload, "wire");
}

std::vector<uint8_t>
wireEncodeHello(int rss_cap_mb)
{
    std::vector<uint8_t> out;
    framePutU32(out, kWireVersion);
    framePutU32(out, static_cast<uint32_t>(rss_cap_mb));
    return out;
}

int
wireDecodeHello(const std::vector<uint8_t> &payload)
{
    const uint8_t *p = payload.data();
    const uint8_t *end = p + payload.size();
    uint32_t version = frameGetU32(p, end);
    if (version != kWireVersion)
        throw TraceError("wire: protocol version " +
                         std::to_string(version) + " != expected " +
                         std::to_string(kWireVersion));
    const int cap = static_cast<int>(frameGetU32(p, end));
    if (p != end)
        throw TraceError("wire: trailing bytes after the hello");
    return cap;
}

std::vector<uint8_t>
wireEncodeRequest(const SliceRequest &r)
{
    std::vector<uint8_t> out;
    framePutStruct(out, r.mcfg);
    framePutStruct(out, r.scfg);
    framePutStruct(out, r.gemm);
    framePutU32(out, static_cast<uint32_t>(r.cores));
    framePutU32(out, static_cast<uint32_t>(r.vpus));
    return out;
}

SliceRequest
wireDecodeRequest(const std::vector<uint8_t> &payload)
{
    const uint8_t *p = payload.data();
    const uint8_t *end = p + payload.size();
    SliceRequest r;
    r.mcfg = frameGetStruct<MachineConfig>(p, end, "MachineConfig");
    r.scfg = frameGetStruct<SaveConfig>(p, end, "SaveConfig");
    r.gemm = frameGetStruct<GemmConfig>(p, end, "GemmConfig");
    r.cores = static_cast<int>(frameGetU32(p, end));
    r.vpus = static_cast<int>(frameGetU32(p, end));
    if (p != end)
        throw TraceError("wire: trailing bytes after the request");
    return r;
}

uint64_t
sliceFaultSite(const SliceRequest &r)
{
    const CasKey k = casSliceKey(r);
    CasHasher h;
    h.mix(k.cfg);
    h.mix(k.wl);
    return h.value();
}

std::vector<uint8_t>
wireEncodeError(const WireErrorInfo &e)
{
    std::vector<uint8_t> out;
    out.push_back(static_cast<uint8_t>(e.kind));
    framePutString(out, e.what);
    return out;
}

WireErrorInfo
wireDecodeError(const std::vector<uint8_t> &payload)
{
    const uint8_t *p = payload.data();
    const uint8_t *end = p + payload.size();
    if (p == end)
        throw TraceError("wire: empty error payload");
    WireErrorInfo e;
    e.kind = static_cast<WireErrorKind>(*p++);
    e.what = frameGetString(p, end);
    if (p != end)
        throw TraceError("wire: trailing bytes after error frame");
    return e;
}

WireErrorInfo
wireClassifyError(const std::exception &e)
{
    WireErrorInfo info;
    info.what = e.what();
    if (dynamic_cast<const ConfigError *>(&e) != nullptr)
        info.kind = WireErrorKind::Config;
    else if (dynamic_cast<const TraceError *>(&e) != nullptr)
        info.kind = WireErrorKind::Trace;
    else if (dynamic_cast<const DeadlockError *>(&e) != nullptr)
        info.kind = WireErrorKind::Deadlock;
    else if (dynamic_cast<const AuditError *>(&e) != nullptr)
        info.kind = WireErrorKind::Audit;
    else if (dynamic_cast<const std::bad_alloc *>(&e) != nullptr)
        info.kind = WireErrorKind::Oom;
    return info;
}

void
wireThrowError(const WireErrorInfo &e)
{
    switch (e.kind) {
    case WireErrorKind::Config:
        throw ConfigError(e.what);
    case WireErrorKind::Trace:
        throw TraceError(e.what);
    case WireErrorKind::Deadlock:
        throw DeadlockError(e.what, "");
    case WireErrorKind::Audit:
        throw AuditError(e.what, "");
    case WireErrorKind::Oom:
        throw WorkerError(WorkerError::Kind::Oom, e.what);
    case WireErrorKind::Generic:
        break;
    }
    throw SimError(e.what);
}

} // namespace save
