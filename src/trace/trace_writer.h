/**
 * @file
 * Binary uop trace writer (format: trace_format.h, DESIGN.md §9).
 *
 * A recording writes, in order: the CFG chunk (effective machine +
 * SAVE configuration as key=value text), one MEMR chunk per memory
 * region (zero-run-compressed initial contents — kernels are sparse,
 * so the image compresses well), per-core WARM and UOPS chunks, an
 * optional ELMS sidecar (the functional effectual-lane masks, for
 * inspect/stats without a pipeline run), an optional RES chunk (the
 * recorded run's cycles + full stat map, the `replay --check`
 * reference), and the END terminator.
 *
 * finish() runs the fault-injection cache-file tamper hook
 * (SAVE_FAULT_INJECT cache-bitflip/cache-truncate) so trace-file
 * corruption handling is testable on demand.
 */

#ifndef SAVE_TRACE_TRACE_WRITER_H
#define SAVE_TRACE_TRACE_WRITER_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "isa/uop.h"
#include "mem/memory_image.h"
#include "sim/config.h"
#include "stats/stats.h"

namespace save {

/** Streaming trace-file writer. Throws TraceError on I/O failure. */
class TraceWriter
{
  public:
    /** Opens `path` and writes the file header. config_hash is the
     *  casHashConfig digest of the effective configs. */
    TraceWriter(std::string path, uint64_t config_hash);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** CFG chunk: key=value text (see traceConfigText). */
    void writeConfig(const std::string &text);

    /** One MEMR chunk per region of the (pre-run) image. */
    void writeImage(const MemoryImage &image);

    /** WARM chunk: ordered [base, bytes) line-warm ranges of a core. */
    void writeWarmRanges(int core, const WarmRanges &ranges);

    /** UOPS chunk: the core's dynamic uop stream. */
    void writeUops(int core, const std::vector<Uop> &uops);

    /** ELMS sidecar: one effectual-lane mask per VFMA, in stream
     *  order (16-bit masks for FP32, 32-bit for mixed precision). */
    void writeElms(int core, const std::vector<uint32_t> &elms);

    /** RES chunk: the recorded run's outcome for `replay --check`. */
    void writeResult(uint64_t cycles, double core_ghz,
                     const StatGroup &stats);

    /** Write the END terminator and close the file. Must be the last
     *  call; a file missing it is rejected as truncated. */
    void finish();

    const std::string &path() const { return path_; }

  private:
    void writeChunk(uint32_t fourcc, uint32_t arg,
                    const std::vector<uint8_t> &payload);
    void put(const void *p, size_t n);

    std::string path_;
    uint64_t config_hash_;
    std::FILE *f_ = nullptr;
};

/** Serialize the effective configuration (plus kernel metadata) into
 *  CFG-chunk text. Doubles use %.17g and round-trip exactly. */
std::string traceConfigText(const MachineConfig &mcfg,
                            const SaveConfig &scfg, int vpus,
                            const std::string &kernel_name);

/**
 * Functional pre-pass producing the ELMS sidecar: executes the uop
 * stream in order on a copy of the initial image and records each
 * VFMA's effectual-lane mask exactly as the MGU would generate it.
 */
std::vector<uint32_t> computeElmSidecar(const std::vector<Uop> &uops,
                                        const MemoryImage &image);

} // namespace save

#endif // SAVE_TRACE_TRACE_WRITER_H
