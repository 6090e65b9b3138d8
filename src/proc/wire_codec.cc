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

bool
wireWrite(int fd, uint32_t fourcc, uint32_t arg,
          const std::vector<uint8_t> &payload)
{
    return frameWriteFd(fd, fourcc, arg, payload);
}

WireRead
wireRead(int fd, WireFrame &frame, int timeout_ms)
{
    return frameReadFd(fd, frame, timeout_ms, knownFourcc,
                       kWireMaxPayload, "wire");
}

std::vector<uint8_t>
wireEncodeSessionInit(const WireSessionInit &s)
{
    std::vector<uint8_t> out;
    tracePutU32(out, kWireVersion);
    tracePutU64(out, s.configHash);
    framePutStruct(out, s.mcfg);
    framePutStruct(out, s.scfg);
    tracePutU32(out, static_cast<uint32_t>(s.tiles));
    tracePutU32(out, static_cast<uint32_t>(s.cores));
    tracePutU64(out, s.seed);
    tracePutU32(out, static_cast<uint32_t>(s.rssCapMb));
    framePutString(out, s.cacheDir);
    tracePutU64(out, s.cacheMaxBytes);
    return out;
}

WireSessionInit
wireDecodeSessionInit(const std::vector<uint8_t> &payload)
{
    const uint8_t *p = payload.data();
    const uint8_t *end = p + payload.size();
    uint32_t version = traceGetU32(p, end);
    if (version != kWireVersion)
        throw TraceError("wire: protocol version " +
                         std::to_string(version) + " != expected " +
                         std::to_string(kWireVersion));
    WireSessionInit s;
    s.configHash = traceGetU64(p, end);
    s.mcfg = frameGetStruct<MachineConfig>(p, end, "MachineConfig");
    s.scfg = frameGetStruct<SaveConfig>(p, end, "SaveConfig");
    s.tiles = static_cast<int>(traceGetU32(p, end));
    s.cores = static_cast<int>(traceGetU32(p, end));
    s.seed = traceGetU64(p, end);
    s.rssCapMb = static_cast<int>(traceGetU32(p, end));
    s.cacheDir = frameGetString(p, end);
    s.cacheMaxBytes = traceGetU64(p, end);
    if (p != end)
        throw TraceError("wire: trailing bytes after session init");
    return s;
}

std::vector<uint8_t>
wireEncodeSliceRequest(const WireSliceRequest &r)
{
    std::vector<uint8_t> out;
    framePutStruct(out, r.key);
    tracePutU64(out, r.keyHash);
    return out;
}

WireSliceRequest
wireDecodeSliceRequest(const std::vector<uint8_t> &payload)
{
    const uint8_t *p = payload.data();
    const uint8_t *end = p + payload.size();
    WireSliceRequest r;
    r.key = frameGetStruct<SliceKey>(p, end, "SliceKey");
    r.keyHash = traceGetU64(p, end);
    if (p != end)
        throw TraceError("wire: trailing bytes after slice request");
    return r;
}

std::vector<uint8_t>
wireEncodeSliceResult(const WireSliceResult &r)
{
    std::vector<uint8_t> out;
    tracePutF64(out, r.timeNs);
    tracePutU64(out, r.cycles);
    tracePutF64(out, r.coreGhz);
    tracePutU32(out, static_cast<uint32_t>(r.stats.size()));
    for (const auto &[name, value] : r.stats) {
        framePutString(out, name);
        tracePutF64(out, value);
    }
    return out;
}

WireSliceResult
wireDecodeSliceResult(const std::vector<uint8_t> &payload)
{
    const uint8_t *p = payload.data();
    const uint8_t *end = p + payload.size();
    WireSliceResult r;
    r.timeNs = traceGetF64(p, end);
    r.cycles = traceGetU64(p, end);
    r.coreGhz = traceGetF64(p, end);
    uint32_t n = traceGetU32(p, end);
    // n is untrusted: each entry needs at least a 4-byte name length
    // plus an 8-byte value, so bound it by the remaining payload
    // before reserving — a corrupt count must be a TraceError, not a
    // multi-GB allocation attempt in the parent.
    if (n > static_cast<size_t>(end - p) / 12)
        throw TraceError("wire: slice-result stat count " +
                         std::to_string(n) +
                         " exceeds remaining payload");
    r.stats.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        std::string name = frameGetString(p, end);
        double value = traceGetF64(p, end);
        r.stats.emplace_back(std::move(name), value);
    }
    if (p != end)
        throw TraceError("wire: trailing bytes after slice result");
    return r;
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
