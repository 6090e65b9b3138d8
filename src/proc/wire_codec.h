/**
 * @file
 * Length-prefixed, CRC-framed wire protocol between the sweep parent
 * and its sandboxed slice worker processes (DESIGN.md §12).
 *
 * Framing follows the `.savtrc` chunk conventions (src/trace/
 * trace_format.h): every frame is
 *
 *   u32 fourcc, u32 arg, u64 payloadBytes, u32 crc32(payload), payload
 *
 * all little-endian, with the same CRC-32 as the trace format. Any
 * header or payload corruption — truncated frame, flipped bit,
 * unknown fourcc, oversized length — surfaces as TraceError on the
 * reading side, never as a hang or a garbage decode: reads are
 * deadline-bounded (poll + EINTR-safe readFull) and every payload
 * byte is covered by the CRC.
 *
 * Session shape (the embryo of the save-serve RPC surface):
 *
 *   parent -> worker   HELO  (configs: machine, SAVE features,
 *                             estimator knobs, RSS cap)
 *   worker -> parent   HACK  (version + pid acknowledgment)
 *   parent -> worker   REQ   (slice key + key hash; arg = attempt)
 *   worker -> parent   RES   (time/cycles/frequency + full stat map)
 *                   or ERR   (SimError-taxonomy kind + message)
 *   parent -> worker   BYE   (graceful drain; worker exits 0)
 *
 * Config structs travel as raw bytes of the trivially-copyable
 * MachineConfig/SaveConfig/SliceKey, guarded by struct-size fields and
 * the protocol version: parent and worker are built from one source
 * tree, and a size or version mismatch is rejected cleanly instead of
 * being misinterpreted.
 */

#ifndef SAVE_PROC_WIRE_CODEC_H
#define SAVE_PROC_WIRE_CODEC_H

#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "cache/cas_key.h"
#include "sim/config.h"
#include "trace/trace_format.h"

namespace save {

/** Protocol version; bumped on any frame-layout change.
 *  v2: session init carries the result-store directory and size cap so
 *  workers persist their own results into the shared store. */
constexpr uint32_t kWireVersion = 2;

/** Frame kinds (fourcc, little-endian first byte first). */
constexpr uint32_t kWireHello = traceFourcc('H', 'E', 'L', 'O');
constexpr uint32_t kWireHelloAck = traceFourcc('H', 'A', 'C', 'K');
constexpr uint32_t kWireRequest = traceFourcc('R', 'E', 'Q', ' ');
constexpr uint32_t kWireResult = traceFourcc('R', 'E', 'S', ' ');
constexpr uint32_t kWireError = traceFourcc('E', 'R', 'R', ' ');
constexpr uint32_t kWireBye = traceFourcc('B', 'Y', 'E', ' ');

/** Upper bound on a frame payload; larger lengths are treated as
 *  corruption rather than allocated. */
constexpr uint64_t kWireMaxPayload = 64ull << 20;

/** Exit codes the worker uses for conditions it can still report. */
constexpr int kWorkerExitOk = 0;
constexpr int kWorkerExitConfig = 2;
constexpr int kWorkerExitOom = 24;
constexpr int kWorkerExitExec = 127;

/** One decoded frame (the shared util/frame.h record). */
using WireFrame = Frame;

/** Outcome of a deadline-bounded frame read: Ok, Eof (peer closed the
 *  pipe at a frame boundary), or Timeout. */
using WireRead = FrameRead;

/**
 * Write one frame. Returns false with errno preserved on any write
 * failure (EPIPE when the peer is dead and SIGPIPE is ignored).
 */
bool wireWrite(int fd, uint32_t fourcc, uint32_t arg,
               const std::vector<uint8_t> &payload);

/**
 * Read one frame within `timeout_ms` (< 0 waits forever). Returns
 * Ok/Eof/Timeout; throws TraceError on corruption: CRC mismatch,
 * unknown fourcc, payload length past kWireMaxPayload, EOF inside a
 * frame, or a hard read error.
 */
WireRead wireRead(int fd, WireFrame &frame, int timeout_ms);

/** HELO payload: everything a worker needs to simulate slices. */
struct WireSessionInit
{
    MachineConfig mcfg;
    SaveConfig scfg; ///< the SAVE-on feature set; workers derive
                     ///< SaveConfig::baseline() for saveOn == 0 keys
    int tiles = 1;
    int cores = 1;
    uint64_t seed = 0;
    /** RLIMIT_AS cap for the worker, MB; 0 = none. */
    int rssCapMb = 0;
    /** Parent's surface config hash, echoed for log correlation and
     *  used as the worker's CAS config digest. */
    uint64_t configHash = 0;
    /** Result-store directory the worker persists into; empty
     *  disables the worker-side store. */
    std::string cacheDir;
    /** Result-store size cap in bytes; 0 = unlimited. */
    uint64_t cacheMaxBytes = 0;
};

std::vector<uint8_t> wireEncodeSessionInit(const WireSessionInit &s);
/** Throws TraceError on malformed payload or an ABI/size mismatch. */
WireSessionInit wireDecodeSessionInit(const std::vector<uint8_t> &p);

/** REQ payload (the attempt number additionally rides in `arg`). */
struct WireSliceRequest
{
    SliceKey key{};
    /** Parent-computed stable hash: fault-injection site id shared by
     *  both sides, and the label benches report on. */
    uint64_t keyHash = 0;
};

std::vector<uint8_t> wireEncodeSliceRequest(const WireSliceRequest &r);
WireSliceRequest wireDecodeSliceRequest(const std::vector<uint8_t> &p);

/** RES payload: the full simulation outcome, stat map included. */
struct WireSliceResult
{
    double timeNs = 0;
    uint64_t cycles = 0;
    double coreGhz = 0;
    std::vector<std::pair<std::string, double>> stats;
};

std::vector<uint8_t> wireEncodeSliceResult(const WireSliceResult &r);
WireSliceResult wireDecodeSliceResult(const std::vector<uint8_t> &p);

/** ERR payload: a clean in-worker failure, mapped onto the SimError
 *  taxonomy so the parent can rethrow the matching type. The values
 *  travel on the wire: never reuse a retired one (4 was a cache
 *  error). */
enum class WireErrorKind : uint8_t
{
    Generic = 0,
    Config = 1,
    Trace = 2,
    Deadlock = 3,
    Audit = 5,
    Oom = 6,
};

struct WireErrorInfo
{
    WireErrorKind kind = WireErrorKind::Generic;
    std::string what;
};

std::vector<uint8_t> wireEncodeError(const WireErrorInfo &e);
WireErrorInfo wireDecodeError(const std::vector<uint8_t> &p);

/** Map a caught exception onto its wire kind (the inverse of
 *  wireThrowError); std::bad_alloc is Oom, anything untyped Generic. */
WireErrorInfo wireClassifyError(const std::exception &e);

/** Rethrow a decoded worker error as its taxonomy type. */
[[noreturn]] void wireThrowError(const WireErrorInfo &e);

} // namespace save

#endif // SAVE_PROC_WIRE_CODEC_H
