/**
 * @file
 * On-disk uop trace format (see DESIGN.md §9).
 *
 * A trace file is a fixed header followed by a sequence of
 * CRC-protected chunks and is fully self-describing: it carries the
 * effective machine/SAVE configuration, the initial memory image, the
 * cache warm-up protocol, the per-core dynamic uop streams, an
 * optional effectual-lane-mask sidecar, and (optionally) the recorded
 * run's cycle count and stat map for replay checking.
 *
 * Layout (all integers little-endian):
 *
 *   header   8B magic "SAVTRC01", u32 version, u32 flags,
 *            u64 configHash, u32 crc32(previous 24 bytes)
 *   chunk*   u32 fourcc, u32 arg, u64 payloadBytes,
 *            u32 crc32(payload), payload
 *   "END "   terminator chunk (empty payload); a file without it was
 *            truncated mid-write.
 *
 * Forward compatibility: readers skip chunks whose fourcc they do not
 * know, so new chunk kinds can be added without a version bump. Any
 * header or chunk corruption surfaces as TraceError (every byte is
 * covered by a CRC).
 *
 * Uop streams are delta/varint encoded: opcode byte, operand-presence
 * bitmap, one byte per present register, and — for memory uops — the
 * zigzag-varint delta of the operand address against the previous
 * memory uop's address (kernel address streams are strided, so deltas
 * stay tiny).
 */

#ifndef SAVE_TRACE_TRACE_FORMAT_H
#define SAVE_TRACE_TRACE_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/uop.h"
#include "util/frame.h"

namespace save {

/** File magic: "SAVTRC01". */
constexpr uint8_t kTraceMagic[8] = {'S', 'A', 'V', 'T', 'R', 'C',
                                    '0', '1'};
constexpr uint32_t kTraceVersion = 1;

/** Fixed header size in bytes (magic + version + flags + configHash +
 *  header CRC). */
constexpr size_t kTraceHeaderBytes = 8 + 4 + 4 + 8 + 4;

/** Chunk kinds. A trace chunk is exactly a util/frame.h frame (fourcc
 *  + arg + payload length + payload CRC); `arg` is the core id for
 *  per-core chunks, else 0. */
constexpr uint32_t kChunkConfig = frameFourcc('C', 'F', 'G', ' ');
constexpr uint32_t kChunkMemRegion = frameFourcc('M', 'E', 'M', 'R');
constexpr uint32_t kChunkWarm = frameFourcc('W', 'A', 'R', 'M');
constexpr uint32_t kChunkUops = frameFourcc('U', 'O', 'P', 'S');
constexpr uint32_t kChunkElms = frameFourcc('E', 'L', 'M', 'S');
constexpr uint32_t kChunkResult = frameFourcc('R', 'E', 'S', ' ');
constexpr uint32_t kChunkEnd = frameFourcc('E', 'N', 'D', ' ');

/** Append an LEB128 varint. */
void tracePutVarint(std::vector<uint8_t> &out, uint64_t v);

/** Parse an LEB128 varint; advances p. Throws TraceError when the
 *  encoding runs past end or overflows 64 bits. */
uint64_t traceGetVarint(const uint8_t *&p, const uint8_t *end);

/** Zigzag mapping for signed deltas. */
constexpr uint64_t
traceZigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

constexpr int64_t
traceUnzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^
           -static_cast<int64_t>(v & 1);
}

/** True when the opcode carries a memory operand address. */
bool traceUopHasAddr(Opcode op);

/** Append one uop; prev_addr carries the address-delta state of the
 *  stream and must start at 0. */
void traceEncodeUop(const Uop &u, uint64_t &prev_addr,
                    std::vector<uint8_t> &out);

/** Decode one uop; advances p. Throws TraceError on malformed input
 *  (unknown opcode, register id out of range, short buffer). */
Uop traceDecodeUop(const uint8_t *&p, const uint8_t *end,
                   uint64_t &prev_addr);

} // namespace save

#endif // SAVE_TRACE_TRACE_FORMAT_H
