/**
 * @file
 * The save-serve RPC protocol (DESIGN.md §14): length-prefixed,
 * CRC-framed request/reply frames over a Unix-domain stream socket,
 * the fourth user of the shared util/frame.h codec (after `.savtrc`
 * trace chunks, the worker pipe protocol, and CAS shard records).
 *
 * Connection shape — one request per connection:
 *
 *   client -> daemon   SREQ  (arg = protocol version; kind + priority
 *                             + deadline + kind-specific payload)
 *   daemon -> client   SPRG* (Sweep only: arg = point index;
 *                             ServePointAck payload: index + key +
 *                             the point's values, one per completed
 *                             point)
 *   daemon -> client   SRES  (arg = echoed kind; kind-specific payload,
 *                             empty for Sweep)
 *                   or SERR  (SimError-taxonomy kind + message)
 *                   or SBSY  (admission queue full: typed load-shed,
 *                             never a hang — resubmit later)
 *
 * A Sweep request names a sweep (sweep/sweep.h), its knobs, and the
 * points it wants as indices into the sweep's points(knobs). The
 * daemon checks all three before the first point runs and never
 * renders a report: every client (save-ctl, the shard coordinator)
 * renders the acked values through the spec's one renderer, so a
 * remote report is byte-identical to `bench_<sweep>` by
 * construction.
 *
 * Versioning is an exact match: daemon and client decode only frames
 * whose arg carries kServeVersion, and reject any other version with
 * a typed SERR (TraceError). The coordinator reads ServeStatus.version
 * first and sends point requests only to a daemon of its own version.
 *
 * Every frame is `u32 fourcc, u32 arg, u64 payloadBytes, u32
 * crc32(payload), payload`; any corruption (truncated frame, flipped
 * bit, unknown fourcc, oversized length, version skew) surfaces as
 * TraceError on the reading side. Config structs travel as raw bytes
 * of the trivially-copyable types guarded by struct-size fields —
 * daemon and client are built from one source tree, and a size or
 * version mismatch is rejected cleanly.
 *
 * Result payloads reuse the worker wire encodings (WireSliceResult,
 * WireErrorInfo) so a served GEMM result round-trips exactly the
 * bytes a sandboxed worker would ship.
 */

#ifndef SAVE_SERVE_PROTOCOL_H
#define SAVE_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/gemm.h"
#include "proc/wire_codec.h"
#include "sim/config.h"
#include "sweep/sweep.h"
#include "util/frame.h"

namespace save {

/** Protocol version; bumped on any frame-layout change. Rides in the
 *  SREQ `arg` slot and is echoed in ServeStatus; peers must match it
 *  exactly. */
constexpr uint32_t kServeVersion = 4;

/** Frame kinds. */
constexpr uint32_t kServeRequest = frameFourcc('S', 'R', 'E', 'Q');
constexpr uint32_t kServeResult = frameFourcc('S', 'R', 'E', 'S');
constexpr uint32_t kServeError = frameFourcc('S', 'E', 'R', 'R');
constexpr uint32_t kServeBusy = frameFourcc('S', 'B', 'S', 'Y');
/** One point ack (ServePointAck) of a Sweep request. */
constexpr uint32_t kServeAck = frameFourcc('S', 'P', 'R', 'G');

/** Upper bound on a frame payload; larger lengths are corruption. */
constexpr uint64_t kServeMaxPayload = 64ull << 20;

/** Request kinds. Ping/Status/Drain are control requests answered
 *  inline by the accept loop; Gemm/Sweep are work requests that pass
 *  through admission control. */
enum class ServeKind : uint8_t
{
    Ping = 0,
    Status = 1,
    Drain = 2,
    Gemm = 3,
    Sweep = 4,
};

/** Admission priority classes: the queue is drained High before
 *  Normal before Low; shedding applies to whatever cannot fit. */
enum class ServePriority : uint8_t
{
    High = 0,
    Normal = 1,
    Low = 2,
};

const char *serveKindName(ServeKind k);
const char *servePriorityName(ServePriority p);

/** One decoded request. Only the fields for `kind` are meaningful.
 *  The machine/feature configs are daemon-level (fixed at launch,
 *  like a model server pinned to one model), so requests carry only
 *  the workload. */
struct ServeRequest
{
    ServeKind kind = ServeKind::Ping;
    ServePriority priority = ServePriority::Normal;
    /** Wall-clock budget from admission to final frame, ms; 0 = none.
     *  Checked at queue pop and before each sweep point
     *  (coarse-grained). */
    uint32_t deadlineMs = 0;

    /** Gemm: the slice workload to simulate. */
    GemmConfig gemm{};
    int32_t cores = 1;
    int32_t vpus = 2;

    /** Sweep: the sweep's name, its knobs, and the points to compute
     *  as indices into its points(knobs); the serving side validates
     *  all three. */
    std::string sweep;
    SweepKnobs knobs{};
    std::vector<uint32_t> points;
};

std::vector<uint8_t> serveEncodeRequest(const ServeRequest &r);
/** Throws TraceError on malformed payload, size or version mismatch
 *  (`version` is the frame's arg slot). */
ServeRequest serveDecodeRequest(uint32_t version,
                                const std::vector<uint8_t> &p);

/** Daemon counters, the Status reply payload. Trivially copyable. */
struct ServeStatus
{
    uint32_t version = kServeVersion;
    uint32_t workers = 0;
    uint32_t queueCap = 0;
    uint32_t queued = 0;
    uint32_t active = 0;
    uint32_t draining = 0;
    /** SIGHUP config reloads applied since start. */
    uint32_t reloads = 0;
    uint32_t pad_ = 0;
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;
    uint64_t casHits = 0;
    uint64_t casMisses = 0;
    uint64_t casInserts = 0;
};

std::vector<uint8_t> serveEncodeStatus(const ServeStatus &s);
ServeStatus serveDecodeStatus(const std::vector<uint8_t> &p);

/** SBSY payload: why admission shed the request. */
struct ServeBusyInfo
{
    std::string reason;
    uint32_t queued = 0;
    uint32_t queueCap = 0;
};

std::vector<uint8_t> serveEncodeBusy(const ServeBusyInfo &b);
ServeBusyInfo serveDecodeBusy(const std::vector<uint8_t> &p);

/** Per-point SPRG ack for a Sweep request: the completed point's
 *  index, key, and values, streamed as soon as it finishes so a
 *  client can re-dispatch only what is still outstanding. */
struct ServePointAck
{
    uint32_t index = 0;
    std::string key;
    std::vector<double> values;
};

std::vector<uint8_t> serveEncodePointAck(const ServePointAck &a);
/** Throws TraceError on a value count that outruns the payload. */
ServePointAck serveDecodePointAck(const std::vector<uint8_t> &p);

/** frameReadFd acceptance predicate for serve-protocol fourccs. */
bool serveKnownFourcc(uint32_t fourcc);

} // namespace save

#endif // SAVE_SERVE_PROTOCOL_H
