#include "cache/cas_key.h"

#include "dnn/surface.h"
#include "util/error.h"
#include "util/frame.h"

namespace save {

void
casEncodeValue(std::vector<uint8_t> &out, const CasValue &v)
{
    framePutF64(out, v.timeNs);
    framePutU64(out, v.cycles);
    framePutF64(out, v.coreGhz);
    framePutU32(out, static_cast<uint32_t>(v.stats.size()));
    for (const auto &[name, value] : v.stats) {
        framePutString(out, name);
        framePutF64(out, value);
    }
}

CasValue
casDecodeValue(const uint8_t *p, const uint8_t *end)
{
    CasValue v;
    v.timeNs = frameGetF64(p, end);
    v.cycles = frameGetU64(p, end);
    v.coreGhz = frameGetF64(p, end);
    const uint32_t n = frameGetU32(p, end);
    // Untrusted count: each stat needs >= 12 bytes (name length and
    // value), so bound it by the remaining payload before reserving;
    // a corrupt count is a TraceError, not a multi-GB allocation.
    if (n > static_cast<size_t>(end - p) / 12)
        throw TraceError("slice record: stat count " + std::to_string(n) +
                         " exceeds remaining payload");
    v.stats.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        std::string name = frameGetString(p, end);
        const double value = frameGetF64(p, end);
        v.stats.emplace_back(std::move(name), value);
    }
    if (p != end)
        throw TraceError("slice record: trailing bytes after the value");
    return v;
}

uint64_t
casHashConfig(const MachineConfig &m, const SaveConfig &s, uint64_t salt)
{
    CasHasher h;
    h.mix(salt);

    h.mix(m.cores);
    h.mix(m.freq2VpuGhz);
    h.mix(m.freq1VpuGhz);
    h.mix(m.uncoreGhz);
    h.mix(m.issueWidth);
    h.mix(m.commitWidth);
    h.mix(m.rsEntries);
    h.mix(m.robEntries);
    h.mix(m.prfExtraRegs);
    h.mix(m.numVpus);
    h.mix(m.fp32FmaLatency);
    h.mix(m.mpFmaLatency);
    h.mix(m.l1ReadPorts);
    h.mix(m.bcachePorts);
    h.mix(m.bcacheEntries);
    h.mix(m.l1SizeKb);
    h.mix(m.l1Ways);
    h.mix(m.l1LatCycles);
    h.mix(m.l2SizeKb);
    h.mix(m.l2Ways);
    h.mix(m.l2LatCycles);
    h.mix(m.l3SizeKbPerCore);
    h.mix(m.l3Ways);
    h.mix(m.l3LatNs);
    h.mix(m.nocHopCycles);
    h.mix(m.dramGBps);
    h.mix(m.dramChannels);
    h.mix(m.dramLatNs);
    h.mix(m.prefetchDegree);
    h.mix(m.exceptionServiceCycles);

    h.mix(s.enabled);
    h.mix(static_cast<uint8_t>(s.policy));
    h.mix(s.laneWiseDep);
    h.mix(s.bsSkip);
    h.mix(static_cast<uint8_t>(s.bcache));
    h.mix(s.mpCompress);
    h.mix(s.hcExtraLatency);
    h.mix(s.rotationStates);

    return h.value();
}

SliceRequest
sliceRequest(const MachineConfig &mcfg, const SaveConfig &save_on,
             const SliceKey &key, int tiles, int cores, uint64_t seed)
{
    SliceRequest r;
    r.mcfg = mcfg;
    r.scfg = key.saveOn ? save_on : SaveConfig::baseline();
    GemmConfig &g = r.gemm;
    g.mr = key.mr;
    g.nrVecs = key.nr;
    g.kSteps = key.kSteps;
    g.tiles = tiles;
    g.pattern = static_cast<BroadcastPattern>(key.pattern);
    g.precision = static_cast<Precision>(key.precision);
    g.nbsSparsity = key.wBin * SparsitySurface::kStep;
    g.bsSparsity = key.aBin * SparsitySurface::kStep;
    g.seed = seed + key.wBin * 131 + key.aBin * 17;
    r.cores = cores;
    r.vpus = key.vpus;
    return r;
}

uint64_t
casGemmWorkload(const GemmConfig &g, int cores, int vpus)
{
    CasHasher h;
    // A leading tag of 2: keys written while a second workload family
    // (tag 1) existed stay valid.
    h.mix(static_cast<uint8_t>(2));
    h.mix(static_cast<uint64_t>(g.mr));
    h.mix(static_cast<uint64_t>(g.nrVecs));
    h.mix(static_cast<uint64_t>(g.kSteps));
    h.mix(static_cast<uint64_t>(g.tiles));
    h.mix(static_cast<uint8_t>(g.pattern));
    h.mix(static_cast<uint8_t>(g.precision));
    h.mix(static_cast<uint8_t>(g.aLayout));
    h.mix(g.bsSparsity);
    h.mix(g.nbsSparsity);
    h.mix(g.seed);
    h.mix(g.useWriteMask);
    h.mix(g.writeMask);
    h.mix(static_cast<uint64_t>(cores));
    h.mix(static_cast<uint64_t>(vpus));
    return h.value();
}

CasKey
casSliceKey(const SliceRequest &r)
{
    return CasKey{casHashConfig(r.mcfg, r.scfg, 0),
                  casGemmWorkload(r.gemm, r.cores, r.vpus)};
}

} // namespace save
