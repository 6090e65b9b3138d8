#include "trace/trace_writer.h"

#include <array>
#include <cstdarg>
#include <cstring>

#include "mem/memory_image.h"
#include "sim/mgu.h"
#include "sim/reference.h"
#include "trace/trace_format.h"
#include "util/error.h"
#include "util/fault_injection.h"

namespace save {

namespace {

/** Literal runs are broken only by zero runs at least this long, so
 *  short zero gaps inside dense data stay in one literal record. */
constexpr size_t kMinZeroRun = 16;

void
appendKv(std::string &out, const char *key, const char *fmt, ...)
{
    char buf[128];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += key;
    out += '=';
    out += buf;
    out += '\n';
}

} // namespace

TraceWriter::TraceWriter(std::string path, uint64_t config_hash)
    : path_(std::move(path)), config_hash_(config_hash)
{
    f_ = std::fopen(path_.c_str(), "wb");
    if (!f_)
        throw TraceError("cannot open trace file for writing: " + path_);
    std::array<uint8_t, kTraceHeaderBytes> hdr;
    std::memcpy(hdr.data(), kTraceMagic, 8);
    std::vector<uint8_t> tail;
    framePutU32(tail, kTraceVersion);
    framePutU32(tail, 0); // flags
    framePutU64(tail, config_hash_);
    std::memcpy(hdr.data() + 8, tail.data(), tail.size());
    uint32_t crc = frameCrc32(hdr.data(), kTraceHeaderBytes - 4);
    tail.clear();
    framePutU32(tail, crc);
    std::memcpy(hdr.data() + kTraceHeaderBytes - 4, tail.data(), 4);
    put(hdr.data(), hdr.size());
}

TraceWriter::~TraceWriter()
{
    // Abandoned writer (exception path): close without the END chunk;
    // readers reject the file as truncated.
    if (f_)
        std::fclose(f_);
}

void
TraceWriter::put(const void *p, size_t n)
{
    if (std::fwrite(p, 1, n, f_) != n)
        throw TraceError("short write to trace file: " + path_);
}

void
TraceWriter::writeChunk(uint32_t fourcc, uint32_t arg,
                        const std::vector<uint8_t> &payload)
{
    if (!f_)
        throw TraceError("trace writer already finished: " + path_);
    std::vector<uint8_t> hdr;
    hdr.reserve(kFrameHeaderBytes);
    frameAppendHeader(hdr, fourcc, arg, payload.data(), payload.size());
    put(hdr.data(), hdr.size());
    if (!payload.empty())
        put(payload.data(), payload.size());
}

void
TraceWriter::writeConfig(const std::string &text)
{
    std::vector<uint8_t> payload(text.begin(), text.end());
    writeChunk(kChunkConfig, 0, payload);
}

void
TraceWriter::writeImage(const MemoryImage &image)
{
    for (size_t r = 0; r < image.numRegions(); ++r) {
        const std::vector<uint8_t> &data = image.regionData(r);
        std::vector<uint8_t> payload;
        payload.reserve(64 + data.size() / 4);
        framePutU64(payload, image.regionBase(r));
        framePutU64(payload, data.size());
        // Alternating records: varint zero-run, varint literal length,
        // literal bytes — until the region is covered.
        size_t i = 0;
        const size_t n = data.size();
        while (i < n) {
            size_t z = i;
            while (z < n && data[z] == 0)
                ++z;
            tracePutVarint(payload, z - i);
            i = z;
            size_t l = i;
            size_t zeros = 0;
            while (l < n) {
                if (data[l] == 0) {
                    if (++zeros >= kMinZeroRun) {
                        ++l;
                        break;
                    }
                } else {
                    zeros = 0;
                }
                ++l;
            }
            size_t lit_end = (zeros >= kMinZeroRun) ? l - kMinZeroRun : l;
            tracePutVarint(payload, lit_end - i);
            payload.insert(payload.end(), data.begin() + i,
                           data.begin() + lit_end);
            i = lit_end;
        }
        writeChunk(kChunkMemRegion, static_cast<uint32_t>(r), payload);
    }
}

void
TraceWriter::writeWarmRanges(
    int core, const std::vector<std::pair<uint64_t, uint64_t>> &ranges)
{
    std::vector<uint8_t> payload;
    tracePutVarint(payload, ranges.size());
    for (const auto &[base, bytes] : ranges) {
        framePutU64(payload, base);
        tracePutVarint(payload, bytes);
    }
    writeChunk(kChunkWarm, static_cast<uint32_t>(core), payload);
}

void
TraceWriter::writeUops(int core, const std::vector<Uop> &uops)
{
    std::vector<uint8_t> payload;
    payload.reserve(4 * uops.size());
    tracePutVarint(payload, uops.size());
    uint64_t prev_addr = 0;
    for (const Uop &u : uops)
        traceEncodeUop(u, prev_addr, payload);
    writeChunk(kChunkUops, static_cast<uint32_t>(core), payload);
}

void
TraceWriter::writeElms(int core, const std::vector<uint32_t> &elms)
{
    std::vector<uint8_t> payload;
    tracePutVarint(payload, elms.size());
    for (uint32_t m : elms)
        tracePutVarint(payload, m);
    writeChunk(kChunkElms, static_cast<uint32_t>(core), payload);
}

void
TraceWriter::writeResult(uint64_t cycles, double core_ghz,
                         const StatGroup &stats)
{
    std::vector<uint8_t> payload;
    tracePutVarint(payload, cycles);
    framePutF64(payload, core_ghz);
    const auto &all = stats.all();
    tracePutVarint(payload, all.size());
    for (const auto &[name, value] : all) {
        tracePutVarint(payload, name.size());
        payload.insert(payload.end(), name.begin(), name.end());
        framePutF64(payload, value);
    }
    writeChunk(kChunkResult, 0, payload);
}

void
TraceWriter::finish()
{
    writeChunk(kChunkEnd, 0, {});
    int rc = std::fclose(f_);
    f_ = nullptr;
    if (rc != 0)
        throw TraceError("cannot close trace file: " + path_);
    FaultInjector::global().maybeTamperCacheFile(path_, config_hash_);
}

std::string
traceConfigText(const MachineConfig &m, const SaveConfig &s, int vpus,
                const std::string &kernel_name)
{
    std::string out;
    out.reserve(1024);
    appendKv(out, "kernel", "%s", kernel_name.c_str());
    appendKv(out, "vpus", "%d", vpus);

    appendKv(out, "mc.cores", "%d", m.cores);
    appendKv(out, "mc.freq2VpuGhz", "%.17g", m.freq2VpuGhz);
    appendKv(out, "mc.freq1VpuGhz", "%.17g", m.freq1VpuGhz);
    appendKv(out, "mc.uncoreGhz", "%.17g", m.uncoreGhz);
    appendKv(out, "mc.issueWidth", "%d", m.issueWidth);
    appendKv(out, "mc.commitWidth", "%d", m.commitWidth);
    appendKv(out, "mc.rsEntries", "%d", m.rsEntries);
    appendKv(out, "mc.robEntries", "%d", m.robEntries);
    appendKv(out, "mc.prfExtraRegs", "%d", m.prfExtraRegs);
    appendKv(out, "mc.numVpus", "%d", m.numVpus);
    appendKv(out, "mc.fp32FmaLatency", "%d", m.fp32FmaLatency);
    appendKv(out, "mc.mpFmaLatency", "%d", m.mpFmaLatency);
    appendKv(out, "mc.l1ReadPorts", "%d", m.l1ReadPorts);
    appendKv(out, "mc.bcachePorts", "%d", m.bcachePorts);
    appendKv(out, "mc.bcacheEntries", "%d", m.bcacheEntries);
    appendKv(out, "mc.l1SizeKb", "%d", m.l1SizeKb);
    appendKv(out, "mc.l1Ways", "%d", m.l1Ways);
    appendKv(out, "mc.l1LatCycles", "%d", m.l1LatCycles);
    appendKv(out, "mc.l2SizeKb", "%d", m.l2SizeKb);
    appendKv(out, "mc.l2Ways", "%d", m.l2Ways);
    appendKv(out, "mc.l2LatCycles", "%d", m.l2LatCycles);
    appendKv(out, "mc.l3SizeKbPerCore", "%.17g", m.l3SizeKbPerCore);
    appendKv(out, "mc.l3Ways", "%d", m.l3Ways);
    appendKv(out, "mc.l3LatNs", "%.17g", m.l3LatNs);
    appendKv(out, "mc.nocHopCycles", "%d", m.nocHopCycles);
    appendKv(out, "mc.dramGBps", "%.17g", m.dramGBps);
    appendKv(out, "mc.dramChannels", "%d", m.dramChannels);
    appendKv(out, "mc.dramLatNs", "%.17g", m.dramLatNs);
    appendKv(out, "mc.prefetchDegree", "%d", m.prefetchDegree);
    appendKv(out, "mc.exceptionServiceCycles", "%d",
             m.exceptionServiceCycles);
    appendKv(out, "mc.watchdogCycles", "%d", m.watchdogCycles);

    appendKv(out, "sc.enabled", "%d", s.enabled ? 1 : 0);
    appendKv(out, "sc.policy", "%d", static_cast<int>(s.policy));
    appendKv(out, "sc.laneWiseDep", "%d", s.laneWiseDep ? 1 : 0);
    appendKv(out, "sc.bsSkip", "%d", s.bsSkip ? 1 : 0);
    appendKv(out, "sc.bcache", "%d", static_cast<int>(s.bcache));
    appendKv(out, "sc.mpCompress", "%d", s.mpCompress ? 1 : 0);
    appendKv(out, "sc.hcExtraLatency", "%d", s.hcExtraLatency);
    appendKv(out, "sc.rotationStates", "%d", s.rotationStates);
    return out;
}

std::vector<uint32_t>
computeElmSidecar(const std::vector<Uop> &uops, const MemoryImage &image)
{
    MemoryImage img = image; // exec mutates memory via stores
    ArchExecutor ex(&img);
    // ArchExecutor keeps its mask file private; shadow it here — the
    // trace stream carries every SetMask, so the shadow stays exact.
    std::array<uint16_t, kLogicalMaskRegs> masks;
    masks.fill(0xffffu);
    std::vector<uint32_t> elms;
    for (const Uop &u : uops) {
        if (u.op == Opcode::SetMask)
            masks[static_cast<size_t>(u.wmask)] = u.maskImm;
        if (u.isVfma()) {
            VecReg a = u.hasEmbeddedBroadcast()
                           ? VecReg::broadcastWord(img.readU32(u.addr))
                           : ex.reg(u.srcA);
            const VecReg &b = ex.reg(u.srcB);
            uint16_t wm =
                u.wmask >= 0 ? masks[static_cast<size_t>(u.wmask)]
                             : 0xffffu;
            elms.push_back(u.isMixedPrecision() ? elmMp(a, b, wm)
                                                : elmF32(a, b, wm));
        }
        ex.exec(u);
    }
    return elms;
}

} // namespace save
