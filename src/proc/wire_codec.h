/**
 * @file
 * Length-prefixed, CRC-framed wire protocol between the sweep parent
 * and its sandboxed slice worker processes (DESIGN.md §12).
 *
 * Framing is the shared util/frame.h record (the `.savtrc` chunk
 * convention): every frame is
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
 *   parent -> worker   HELO  (protocol version, RSS cap)
 *   worker -> parent   HACK  (version acknowledgment)
 *   parent -> worker   REQ   (one SliceRequest; arg = attempt)
 *   worker -> parent   RES   (the slice record: casEncodeValue bytes)
 *                   or ERR   (SimError-taxonomy kind + message)
 *   parent -> worker   BYE   (graceful drain; worker exits 0)
 *
 * A worker never touches the result store: the parent, which owns the
 * slice's flight, persists the RES record it receives.
 *
 * A request travels as the raw bytes of its trivially-copyable
 * MachineConfig, SaveConfig and GemmConfig, each guarded by a
 * struct-size field, under the protocol version: parent and worker
 * are built from one source tree, and a size or version mismatch is
 * rejected cleanly instead of being misinterpreted.
 */

#ifndef SAVE_PROC_WIRE_CODEC_H
#define SAVE_PROC_WIRE_CODEC_H

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "cache/cas_key.h"
#include "sim/config.h"
#include "util/frame.h"

namespace save {

/** Protocol version; bumped on any frame-layout change.
 *  v3: session init no longer carries the result-store directory, its
 *  size cap or the config hash: workers never touch the store.
 *  v4: REQ carries the whole SliceRequest and HELO only the RSS cap. */
constexpr uint32_t kWireVersion = 4;

/** Frame kinds (fourcc, little-endian first byte first). */
constexpr uint32_t kWireHello = frameFourcc('H', 'E', 'L', 'O');
constexpr uint32_t kWireHelloAck = frameFourcc('H', 'A', 'C', 'K');
constexpr uint32_t kWireRequest = frameFourcc('R', 'E', 'Q', ' ');
constexpr uint32_t kWireResult = frameFourcc('R', 'E', 'S', ' ');
constexpr uint32_t kWireError = frameFourcc('E', 'R', 'R', ' ');
constexpr uint32_t kWireBye = frameFourcc('B', 'Y', 'E', ' ');

/** Upper bound on a frame payload; larger lengths are treated as
 *  corruption rather than allocated. */
constexpr uint64_t kWireMaxPayload = 64ull << 20;

/** Exit codes the worker uses for conditions it can still report. */
constexpr int kWorkerExitOk = 0;
constexpr int kWorkerExitConfig = 2;
constexpr int kWorkerExitOom = 24;
constexpr int kWorkerExitExec = 127;

/**
 * Read one frame within `timeout_ms` (< 0 waits forever). Returns
 * Ok/Eof (peer closed the pipe at a frame boundary)/Timeout; throws
 * TraceError on corruption: CRC mismatch, unknown fourcc, payload
 * length past kWireMaxPayload, EOF inside a frame, or a hard read
 * error. Frames are written with frameWriteFd.
 */
FrameRead wireRead(int fd, Frame &frame, int timeout_ms);

/** HELO payload: the protocol version and the worker's RLIMIT_AS
 *  cap in MB (0 = none). */
std::vector<uint8_t> wireEncodeHello(int rss_cap_mb);
/** The RSS cap of a HELO payload. Throws TraceError on a malformed
 *  payload or a version mismatch. */
int wireDecodeHello(const std::vector<uint8_t> &p);

/** REQ payload: the request (the attempt number rides in `arg`). */
std::vector<uint8_t> wireEncodeRequest(const SliceRequest &r);
/** Throws TraceError on a malformed payload or a struct-size
 *  mismatch. */
SliceRequest wireDecodeRequest(const std::vector<uint8_t> &p);

/** The fault-injection site of a slice (util/fault_injection.h): its
 *  store key folded to 64 bits, so the parent's slice faults and a
 *  worker's process faults pick the same slices on every run. */
uint64_t sliceFaultSite(const SliceRequest &r);

/** The RES payload is the slice record (casEncodeValue's bytes); the
 *  name is kept for perfbench. */
using WireSliceResult = CasValue;

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
