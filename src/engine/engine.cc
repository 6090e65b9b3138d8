#include "engine/engine.h"

#include <sstream>

#include "cache/cas_key.h"
#include "sim/multicore.h"
#include "sim/reference.h"
#include "trace/trace_writer.h"
#include "util/error.h"
#include "util/logging.h"

namespace save {

Engine::Engine(MachineConfig mcfg, SaveConfig scfg)
    : mcfg_(mcfg), scfg_(scfg)
{
    mcfg_.validate();
    scfg_.validate();
}

void
Engine::checkShape(int cores, int vpus) const
{
    if (cores < 1 || cores > mcfg_.cores)
        throw ConfigError("core count must be in [1, " +
                          std::to_string(mcfg_.cores) + "] (got " +
                          std::to_string(cores) + ")");
    if (vpus < 1 || vpus > mcfg_.numVpus)
        throw ConfigError("VPU count must be in [1, " +
                          std::to_string(mcfg_.numVpus) + "] (got " +
                          std::to_string(vpus) + ")");
}

KernelResult
Engine::runGemm(const GemmConfig &cfg, int cores, int vpus) const
{
    checkShape(cores, vpus);
    MemoryImage image;
    std::vector<GemmWorkload> work = fillShardedGemm(cfg, image, cores);
    return run(image, work, vpus, nullptr, std::string());
}

KernelResult
Engine::recordGemm(const GemmConfig &cfg, const std::string &trace_path,
                   const std::string &kernel_name, int cores,
                   int vpus) const
{
    checkShape(cores, vpus);
    MemoryImage image;
    // The trace file holds every core's uops: build them.
    std::vector<GemmWorkload> work = buildShardedGemm(cfg, image, cores);
    return run(image, work, vpus, &trace_path, kernel_name);
}

KernelResult
Engine::runFilled(MemoryImage image, const std::vector<GemmWorkload> &work,
                  int vpus) const
{
    checkShape(static_cast<int>(work.size()), vpus);
    return run(image, work, vpus, nullptr, std::string());
}

KernelResult
Engine::run(MemoryImage &image, const std::vector<GemmWorkload> &work,
            int vpus, const std::string *trace_path,
            const std::string &kernel_name) const
{
    const int cores = static_cast<int>(work.size());

    MachineConfig mc = mcfg_;
    // Model `cores` cores' share of the full machine: private
    // resources stay per-core, shared DRAM bandwidth is pro-rated.
    mc.dramGBps = mcfg_.dramGBps * cores / mcfg_.cores;
    mc.cores = cores;

    // Everything the replay needs to rebuild this run is written
    // before the simulation mutates the image; the RES chunk follows
    // after the run. The hash is over the *effective* configuration
    // (post core/DRAM adjustment), salted with the active VPU count.
    std::unique_ptr<TraceWriter> writer;
    if (trace_path) {
        writer = std::make_unique<TraceWriter>(
            *trace_path,
            casHashConfig(mc, scfg_, static_cast<uint64_t>(vpus)));
        writer->writeConfig(
            traceConfigText(mc, scfg_, vpus, kernel_name));
        writer->writeImage(image);
        for (int c = 0; c < cores; ++c) {
            const GemmWorkload &w = work[static_cast<size_t>(c)];
            writer->writeWarmRanges(
                c, {{w.aBase, w.aBytes}, {w.bBase, w.bBytes}});
            writer->writeUops(c, w.trace);
            writer->writeElms(c, computeElmSidecar(w.trace, image));
        }
    }

    Multicore machine(mc, scfg_, vpus, &image);
    std::vector<GemmStream> streams;
    streams.reserve(work.size());
    std::vector<TraceSource *> srcs;
    for (const GemmWorkload &w : work) {
        w.warmup(machine.hierarchy());
        streams.emplace_back(w);
        srcs.push_back(&streams.back());
    }
    machine.bindTraces(srcs);

    KernelResult r;
    r.cycles = machine.run();
    r.coreGhz = mc.coreFreqGhz(vpus);
    r.timeNs = static_cast<double>(r.cycles) / r.coreGhz;
    r.stats = machine.aggregateStats();

    if (writer) {
        writer->writeResult(r.cycles, r.coreGhz, r.stats);
        writer->finish();
    }
    return r;
}

bool
Engine::verifyGemm(const GemmConfig &cfg, int vpus,
                   std::string *detail) const
{
    // Simulated machine state.
    MemoryImage sim_image;
    GemmWorkload w = buildGemm(cfg, sim_image);

    MachineConfig mc = mcfg_;
    mc.cores = 1;
    Multicore machine(mc, scfg_, vpus, &sim_image);
    VectorTrace trace(w.trace);
    machine.bindTraces({&trace});
    machine.run();

    // Reference state: same seed rebuilds identical inputs.
    MemoryImage ref_image;
    GemmWorkload ref_w = buildGemm(cfg, ref_image);
    ArchExecutor ref(&ref_image);
    ref.run(ref_w.trace);

    for (uint64_t off = 0; off < w.cBytes; off += 4) {
        uint32_t got = sim_image.readU32(w.cBase + off);
        uint32_t want = ref_image.readU32(ref_w.cBase + off);
        if (got != want) {
            if (detail) {
                std::ostringstream os;
                os << "C mismatch at byte " << off << ": got 0x"
                   << std::hex << got << " want 0x" << want;
                *detail = os.str();
            }
            return false;
        }
    }
    return true;
}

CasValue
toCasValue(const KernelResult &kr)
{
    CasValue v;
    v.timeNs = kr.timeNs;
    v.cycles = kr.cycles;
    v.coreGhz = kr.coreGhz;
    for (const auto &[name, value] : kr.stats.all())
        v.stats.emplace_back(name, value);
    return v;
}

KernelResult
toKernelResult(const CasValue &v)
{
    KernelResult kr;
    kr.timeNs = v.timeNs;
    kr.cycles = v.cycles;
    kr.coreGhz = v.coreGhz;
    for (const auto &[name, value] : v.stats)
        kr.stats.set(name, value);
    return kr;
}

} // namespace save
