#include "serve/protocol.h"

#include "util/error.h"

namespace save {

const char *
serveKindName(ServeKind k)
{
    switch (k) {
    case ServeKind::Ping:
        return "ping";
    case ServeKind::Status:
        return "status";
    case ServeKind::Drain:
        return "drain";
    case ServeKind::Gemm:
        return "gemm";
    case ServeKind::Sweep:
        return "sweep";
    }
    return "?";
}

const char *
servePriorityName(ServePriority p)
{
    switch (p) {
    case ServePriority::High:
        return "high";
    case ServePriority::Normal:
        return "normal";
    case ServePriority::Low:
        return "low";
    }
    return "?";
}

std::vector<uint8_t>
serveEncodeRequest(const ServeRequest &r)
{
    std::vector<uint8_t> p;
    framePutU32(p, static_cast<uint32_t>(r.kind));
    framePutU32(p, static_cast<uint32_t>(r.priority));
    framePutU32(p, r.deadlineMs);
    switch (r.kind) {
    case ServeKind::Ping:
    case ServeKind::Status:
    case ServeKind::Drain:
        break;
    case ServeKind::Gemm:
        framePutStruct(p, r.gemm);
        framePutU32(p, static_cast<uint32_t>(r.cores));
        framePutU32(p, static_cast<uint32_t>(r.vpus));
        break;
    case ServeKind::Sweep:
        framePutString(p, r.sweep);
        framePutStruct(p, r.knobs);
        framePutU32(p, static_cast<uint32_t>(r.points.size()));
        for (uint32_t idx : r.points)
            framePutU32(p, idx);
        break;
    }
    return p;
}

ServeRequest
serveDecodeRequest(uint32_t version, const std::vector<uint8_t> &p)
{
    if (version != kServeVersion)
        throw TraceError("serve protocol version mismatch: peer speaks v" +
                         std::to_string(version) + ", this build is v" +
                         std::to_string(kServeVersion));
    const uint8_t *q = p.data();
    const uint8_t *end = q + p.size();
    ServeRequest r;
    uint32_t kind = frameGetU32(q, end);
    if (kind > static_cast<uint32_t>(ServeKind::Sweep))
        throw TraceError("serve request: unknown kind " +
                         std::to_string(kind));
    r.kind = static_cast<ServeKind>(kind);
    uint32_t prio = frameGetU32(q, end);
    if (prio > static_cast<uint32_t>(ServePriority::Low))
        throw TraceError("serve request: unknown priority " +
                         std::to_string(prio));
    r.priority = static_cast<ServePriority>(prio);
    r.deadlineMs = frameGetU32(q, end);
    switch (r.kind) {
    case ServeKind::Ping:
    case ServeKind::Status:
    case ServeKind::Drain:
        break;
    case ServeKind::Gemm:
        r.gemm = frameGetStruct<GemmConfig>(q, end, "GemmConfig");
        r.cores = static_cast<int32_t>(frameGetU32(q, end));
        r.vpus = static_cast<int32_t>(frameGetU32(q, end));
        break;
    case ServeKind::Sweep: {
        r.sweep = frameGetString(q, end);
        r.knobs = frameGetStruct<SweepKnobs>(q, end, "SweepKnobs");
        uint32_t n = frameGetU32(q, end);
        // Each index needs 4 payload bytes, so a count that outruns
        // the remaining payload is corruption, not a huge allocation.
        if (n > static_cast<uint32_t>((end - q) / 4))
            throw TraceError("serve request: point count " +
                             std::to_string(n) + " exceeds payload");
        r.points.reserve(n);
        for (uint32_t i = 0; i < n; ++i)
            r.points.push_back(frameGetU32(q, end));
        break;
    }
    }
    if (q != end)
        throw TraceError("serve request: " +
                         std::to_string(end - q) +
                         " trailing byte(s) after payload");
    return r;
}

std::vector<uint8_t>
serveEncodeStatus(const ServeStatus &s)
{
    std::vector<uint8_t> p;
    framePutStruct(p, s);
    return p;
}

ServeStatus
serveDecodeStatus(const std::vector<uint8_t> &p)
{
    const uint8_t *q = p.data();
    const uint8_t *end = q + p.size();
    return frameGetStruct<ServeStatus>(q, end, "ServeStatus");
}

std::vector<uint8_t>
serveEncodeBusy(const ServeBusyInfo &b)
{
    std::vector<uint8_t> p;
    framePutString(p, b.reason);
    framePutU32(p, b.queued);
    framePutU32(p, b.queueCap);
    return p;
}

ServeBusyInfo
serveDecodeBusy(const std::vector<uint8_t> &p)
{
    const uint8_t *q = p.data();
    const uint8_t *end = q + p.size();
    ServeBusyInfo b;
    b.reason = frameGetString(q, end);
    b.queued = frameGetU32(q, end);
    b.queueCap = frameGetU32(q, end);
    return b;
}

std::vector<uint8_t>
serveEncodePointAck(const ServePointAck &a)
{
    std::vector<uint8_t> p;
    framePutU32(p, a.index);
    framePutString(p, a.key);
    framePutU32(p, static_cast<uint32_t>(a.values.size()));
    for (double v : a.values)
        framePutF64(p, v);
    return p;
}

ServePointAck
serveDecodePointAck(const std::vector<uint8_t> &p)
{
    const uint8_t *q = p.data();
    const uint8_t *end = q + p.size();
    ServePointAck a;
    a.index = frameGetU32(q, end);
    a.key = frameGetString(q, end);
    uint32_t n = frameGetU32(q, end);
    // As for a request's point list: a count that outruns the payload
    // is corruption, not a huge allocation.
    if (n > static_cast<uint32_t>((end - q) / 8))
        throw TraceError("serve point ack: value count " +
                         std::to_string(n) + " exceeds payload");
    a.values.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        a.values.push_back(frameGetF64(q, end));
    if (q != end)
        throw TraceError("serve point ack: " +
                         std::to_string(end - q) +
                         " trailing byte(s) after payload");
    return a;
}

bool
serveKnownFourcc(uint32_t fourcc)
{
    return fourcc == kServeRequest || fourcc == kServeResult ||
           fourcc == kServeError || fourcc == kServeBusy ||
           fourcc == kServeAck;
}

} // namespace save
