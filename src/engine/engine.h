/**
 * @file
 * save::Engine — the library's public facade.
 *
 * Wraps machine construction, workload placement, cache warm-up, and
 * simulation into a few calls:
 *
 *   save::Engine engine(machine_cfg, save_cfg);
 *   auto r = engine.runGemm(gemm_cfg);
 *   std::cout << r.timeNs << "\n";
 *
 * Also exposes the functional-equivalence checker used throughout the
 * test suite (SAVE is architecturally transparent: any policy must
 * produce bitwise-identical results to in-order execution).
 */

#ifndef SAVE_ENGINE_ENGINE_H
#define SAVE_ENGINE_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/gemm.h"
#include "sim/config.h"
#include "stats/stats.h"

namespace save {

/** Outcome of one simulated kernel run. */
struct KernelResult
{
    uint64_t cycles = 0;
    /** Wall time at the active core frequency. */
    double timeNs = 0.0;
    double coreGhz = 0.0;
    /** Aggregated core + hierarchy statistics. */
    StatGroup stats;
};

/** Simulation façade. Holds only configuration: each run builds its
 *  own machine, so one Engine (or copies of it) may simulate from many
 *  host threads concurrently. */
class Engine
{
  public:
    Engine(MachineConfig mcfg, SaveConfig scfg);

    /**
     * Simulate a GEMM slice on `cores` cores (sharded data-parallel)
     * with `vpus` active VPUs per core. cores <= mcfg.cores.
     * The machine's DRAM bandwidth is pro-rated to the active cores so
     * a small run models those cores' share of the full machine.
     */
    KernelResult runGemm(const GemmConfig &cfg, int cores = 1,
                         int vpus = 2) const;

    /**
     * runGemm, additionally recording the run into a trace file at
     * `trace_path` (format: src/trace, DESIGN.md §9): effective
     * configuration, initial memory image, per-core warm ranges and
     * uop streams, the functional ELM sidecar, and the run's outcome.
     * `kernel_name` labels the trace (shown by `save-trace inspect`).
     */
    KernelResult recordGemm(const GemmConfig &cfg,
                            const std::string &trace_path,
                            const std::string &kernel_name = "gemm",
                            int cores = 1, int vpus = 2) const;

    /**
     * Simulate a slice whose data fillShardedGemm already wrote: `image`
     * holds it and `work` names each core's placement (cores =
     * work.size()). Each core runs its GemmStream. The run writes C,
     * so the image is taken by value: runs that share one fill each
     * simulate their own copy, bit-identical to runGemm.
     */
    KernelResult runFilled(MemoryImage image,
                           const std::vector<GemmWorkload> &work,
                           int vpus = 2) const;

    /** Simulate a kernel the caller built over `image`, on that many
     *  cores' share of the machine: core i runs uops[i] once `warm` is
     *  in L3. Panics past `max_cycles`. */
    KernelResult runKernel(MemoryImage &image,
                           std::vector<std::vector<Uop>> uops,
                           const WarmRanges &warm, int vpus,
                           uint64_t max_cycles) const;

    /**
     * Run the trace through the OoO pipeline and through the in-order
     * reference; true iff final C-matrix memory is bitwise identical.
     */
    bool verifyGemm(const GemmConfig &cfg, int vpus = 2,
                    std::string *detail = nullptr) const;

    const MachineConfig &machine() const { return mcfg_; }
    const SaveConfig &save() const { return scfg_; }

  private:
    /** Throw ConfigError unless cores and vpus fit the machine. */
    void checkShape(int cores, int vpus) const;

    /** The GEMM path: simulate `work` on `image`, each core from its
     *  GemmStream. Callers check the shape first. */
    KernelResult run(MemoryImage &image,
                     const std::vector<GemmWorkload> &work,
                     int vpus) const;

    /** The machine `cores` cores model: their share of this one.
     *  Private resources stay per core; DRAM bandwidth is pro-rated. */
    MachineConfig share(int cores) const;

    /** Every run's one sequence: build share(srcs.size()), warm `warm`
     *  into L3 in order, bind one source per core, run and time. */
    KernelResult simulate(MemoryImage &image, const WarmRanges &warm,
                          const std::vector<TraceSource *> &srcs, int vpus,
                          uint64_t max_cycles) const;

    MachineConfig mcfg_;
    SaveConfig scfg_;
};

/** Speedup of `other` over `base` by wall time. */
inline double
speedup(const KernelResult &base, const KernelResult &other)
{
    return base.timeNs / other.timeNs;
}

struct CasValue;

/** A run as a slice record (cache/cas_key.h). Every stat is kept
 *  verbatim, so a stored or shipped result is bit-identical to the run
 *  it came from. */
CasValue toCasValue(const KernelResult &kr);

/** The inverse of toCasValue. */
KernelResult toKernelResult(const CasValue &v);

} // namespace save

#endif // SAVE_ENGINE_ENGINE_H
