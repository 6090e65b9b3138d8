/**
 * @file
 * Trace-file reader (format: trace_format.h, DESIGN.md §9).
 *
 * The file is mapped read-only (mmap, with a buffered-read fallback)
 * and validated up front: magic, version, header CRC, and every
 * chunk's bounds and payload CRC, plus the END terminator. Any
 * corruption — including a single flipped bit anywhere in the file —
 * surfaces as TraceError at open time. Chunk kinds the reader does not
 * know are skipped (forward compatibility).
 *
 * Payload decoding is lazy: uop streams decode on demand, either in
 * bulk (uops()) or incrementally through TraceFileSource, which
 * implements the core's TraceSource interface straight off the
 * mapping.
 */

#ifndef SAVE_TRACE_TRACE_READER_H
#define SAVE_TRACE_TRACE_READER_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/core.h"

namespace save {

/** Validated, mmap-backed trace file. Throws TraceError on any
 *  malformed input. */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const std::string &path() const { return path_; }
    uint32_t version() const { return version_; }
    uint64_t configHash() const { return config_hash_; }

    /** CFG chunk ---------------------------------------------------- */

    const std::string &configText() const { return config_text_; }
    const std::string &kernelName() const { return kernel_name_; }
    const MachineConfig &machineConfig() const { return mcfg_; }
    const SaveConfig &saveConfig() const { return scfg_; }
    /** Active VPUs per core the recording ran with. */
    int vpus() const { return vpus_; }

    /** Cores recorded (number of UOPS chunks). */
    int cores() const { return static_cast<int>(uops_.size()); }

    /** MEMR chunks: reconstruct the initial memory image. */
    MemoryImage buildImage() const;

    /** WARM chunk: the core's ordered [base, bytes) warm ranges. */
    WarmRanges warmRanges(int core) const;

    /** UOPS chunk accessors. */
    uint64_t uopCount(int core) const;
    std::vector<Uop> uops(int core) const;

    /** ELMS sidecar (absent on minimal recordings). */
    bool hasElms() const { return !elms_.empty(); }
    std::vector<uint32_t> elms(int core) const;

    /** RES chunk: the recorded run's outcome. */
    bool hasResult() const { return has_result_; }
    uint64_t recordedCycles() const { return rec_cycles_; }
    double recordedCoreGhz() const { return rec_ghz_; }
    const std::map<std::string, double> &recordedStats() const
    {
        return rec_stats_;
    }

  private:
    friend class TraceFileSource;

    struct Span
    {
        uint32_t arg;
        const uint8_t *p;
        size_t n;
    };

    const Span &coreSpan(const std::vector<Span> &spans, int core,
                         const char *what) const;
    void parseChunks();
    void parseConfigText();
    void parseResult(const Span &s);

    std::string path_;
    const uint8_t *map_ = nullptr;
    size_t map_len_ = 0;
    bool mmapped_ = false;
    std::vector<uint8_t> buf_; // fallback when mmap is unavailable

    uint32_t version_ = 0;
    uint64_t config_hash_ = 0;
    std::string config_text_;
    std::string kernel_name_;
    MachineConfig mcfg_;
    SaveConfig scfg_;
    int vpus_ = 2;

    std::vector<Span> mem_regions_;
    std::vector<Span> warm_;
    std::vector<Span> uops_;
    std::vector<Span> elms_;
    bool has_result_ = false;
    uint64_t rec_cycles_ = 0;
    double rec_ghz_ = 0.0;
    std::map<std::string, double> rec_stats_;
};

/**
 * Streaming TraceSource decoding one core's UOPS chunk directly off
 * the reader's mapping — the frontend the OoO core replays from. The
 * reader must outlive the source.
 */
class TraceFileSource : public TraceSource
{
  public:
    TraceFileSource(const TraceReader &reader, int core);

    bool next(Uop &u) override;

    uint64_t remaining() const { return remaining_; }
    void reset();

  private:
    const uint8_t *begin_;
    const uint8_t *p_;
    const uint8_t *end_;
    uint64_t total_;
    uint64_t remaining_;
    uint64_t prev_addr_ = 0;
};

} // namespace save

#endif // SAVE_TRACE_TRACE_READER_H
