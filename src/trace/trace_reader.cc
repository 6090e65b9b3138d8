#include "trace/trace_reader.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mem/memory_image.h"
#include "trace/trace_format.h"
#include "util/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define SAVE_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace save {

namespace {

[[noreturn]] void
bad(const std::string &path, const std::string &why)
{
    throw TraceError("bad trace file " + path + ": " + why);
}

} // namespace

TraceReader::TraceReader(const std::string &path) : path_(path)
{
#if SAVE_TRACE_HAVE_MMAP
    int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceError("cannot open trace file: " + path_ + " (" +
                         std::strerror(errno) + ")");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw TraceError("cannot stat trace file: " + path_);
    }
    map_len_ = static_cast<size_t>(st.st_size);
    if (map_len_ > 0) {
        void *m = ::mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (m != MAP_FAILED) {
            map_ = static_cast<const uint8_t *>(m);
            mmapped_ = true;
        }
    }
    ::close(fd);
    if (!mmapped_)
#endif
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        if (!f)
            throw TraceError("cannot open trace file: " + path_);
        std::fseek(f, 0, SEEK_END);
        long len = std::ftell(f);
        std::fseek(f, 0, SEEK_SET);
        buf_.resize(len > 0 ? static_cast<size_t>(len) : 0);
        if (!buf_.empty() &&
            std::fread(buf_.data(), 1, buf_.size(), f) != buf_.size()) {
            std::fclose(f);
            throw TraceError("cannot read trace file: " + path_);
        }
        std::fclose(f);
        map_ = buf_.data();
        map_len_ = buf_.size();
    }
    parseChunks();
    parseConfigText();
}

TraceReader::~TraceReader()
{
#if SAVE_TRACE_HAVE_MMAP
    if (mmapped_)
        ::munmap(const_cast<uint8_t *>(map_), map_len_);
#endif
}

void
TraceReader::parseChunks()
{
    if (map_len_ < kTraceHeaderBytes)
        bad(path_, "shorter than the fixed header");
    if (std::memcmp(map_, kTraceMagic, 8) != 0)
        bad(path_, "magic mismatch (not a SAVE uop trace)");
    const uint8_t *p = map_ + 8;
    const uint8_t *end = map_ + map_len_;
    version_ = frameGetU32(p, end);
    frameGetU32(p, end); // flags (reserved)
    config_hash_ = frameGetU64(p, end);
    uint32_t hdr_crc = frameGetU32(p, end);
    if (frameCrc32(map_, kTraceHeaderBytes - 4) != hdr_crc)
        bad(path_, "header CRC mismatch");
    if (version_ != kTraceVersion)
        bad(path_, "unsupported version " + std::to_string(version_) +
                       " (reader speaks " + std::to_string(kTraceVersion) +
                       ")");

    bool saw_end = false;
    bool saw_cfg = false;
    uint64_t off = static_cast<uint64_t>(p - map_);
    while (off < map_len_) {
        FrameView v;
        std::string why;
        switch (frameParse(map_, map_len_, off, v,
                           /*max_payload=*/UINT64_MAX, &why)) {
        case FrameParse::Truncated:
            bad(path_, why.find("header") != std::string::npos
                           ? "truncated chunk header"
                           : "chunk payload runs past end of file");
        case FrameParse::Corrupt:
            bad(path_, "chunk payload CRC mismatch");
        case FrameParse::Ok:
            break;
        }
        uint32_t fourcc = v.fourcc;
        Span s{v.arg, v.payload, static_cast<size_t>(v.len)};
        if (fourcc == kChunkEnd) {
            saw_end = true;
            break;
        } else if (fourcc == kChunkConfig) {
            config_text_.assign(reinterpret_cast<const char *>(s.p), s.n);
            saw_cfg = true;
        } else if (fourcc == kChunkMemRegion) {
            mem_regions_.push_back(s);
        } else if (fourcc == kChunkWarm) {
            warm_.push_back(s);
        } else if (fourcc == kChunkUops) {
            uops_.push_back(s);
        } else if (fourcc == kChunkElms) {
            elms_.push_back(s);
        } else if (fourcc == kChunkResult) {
            parseResult(s);
        }
        // Unknown fourccs skipped: forward compatibility.
    }
    if (!saw_end)
        bad(path_, "missing END chunk (file truncated mid-write)");
    if (!saw_cfg)
        bad(path_, "missing CFG chunk");
    if (uops_.empty())
        bad(path_, "no UOPS chunk (empty recording)");
}

void
TraceReader::parseConfigText()
{
    // Defaults come from the structs themselves; present keys
    // override, unknown keys are ignored (forward compatibility).
    size_t pos = 0;
    while (pos < config_text_.size()) {
        size_t eol = config_text_.find('\n', pos);
        if (eol == std::string::npos)
            eol = config_text_.size();
        std::string line = config_text_.substr(pos, eol - pos);
        pos = eol + 1;
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        double d = std::strtod(val.c_str(), nullptr);
        int i = static_cast<int>(std::strtol(val.c_str(), nullptr, 10));
        if (key == "kernel")
            kernel_name_ = val;
        else if (key == "vpus")
            vpus_ = i;
        else if (key == "mc.cores")
            mcfg_.cores = i;
        else if (key == "mc.freq2VpuGhz")
            mcfg_.freq2VpuGhz = d;
        else if (key == "mc.freq1VpuGhz")
            mcfg_.freq1VpuGhz = d;
        else if (key == "mc.uncoreGhz")
            mcfg_.uncoreGhz = d;
        else if (key == "mc.issueWidth")
            mcfg_.issueWidth = i;
        else if (key == "mc.commitWidth")
            mcfg_.commitWidth = i;
        else if (key == "mc.rsEntries")
            mcfg_.rsEntries = i;
        else if (key == "mc.robEntries")
            mcfg_.robEntries = i;
        else if (key == "mc.prfExtraRegs")
            mcfg_.prfExtraRegs = i;
        else if (key == "mc.numVpus")
            mcfg_.numVpus = i;
        else if (key == "mc.fp32FmaLatency")
            mcfg_.fp32FmaLatency = i;
        else if (key == "mc.mpFmaLatency")
            mcfg_.mpFmaLatency = i;
        else if (key == "mc.l1ReadPorts")
            mcfg_.l1ReadPorts = i;
        else if (key == "mc.bcachePorts")
            mcfg_.bcachePorts = i;
        else if (key == "mc.bcacheEntries")
            mcfg_.bcacheEntries = i;
        else if (key == "mc.l1SizeKb")
            mcfg_.l1SizeKb = i;
        else if (key == "mc.l1Ways")
            mcfg_.l1Ways = i;
        else if (key == "mc.l1LatCycles")
            mcfg_.l1LatCycles = i;
        else if (key == "mc.l2SizeKb")
            mcfg_.l2SizeKb = i;
        else if (key == "mc.l2Ways")
            mcfg_.l2Ways = i;
        else if (key == "mc.l2LatCycles")
            mcfg_.l2LatCycles = i;
        else if (key == "mc.l3SizeKbPerCore")
            mcfg_.l3SizeKbPerCore = d;
        else if (key == "mc.l3Ways")
            mcfg_.l3Ways = i;
        else if (key == "mc.l3LatNs")
            mcfg_.l3LatNs = d;
        else if (key == "mc.nocHopCycles")
            mcfg_.nocHopCycles = i;
        else if (key == "mc.dramGBps")
            mcfg_.dramGBps = d;
        else if (key == "mc.dramChannels")
            mcfg_.dramChannels = i;
        else if (key == "mc.dramLatNs")
            mcfg_.dramLatNs = d;
        else if (key == "mc.prefetchDegree")
            mcfg_.prefetchDegree = i;
        else if (key == "mc.exceptionServiceCycles")
            mcfg_.exceptionServiceCycles = i;
        else if (key == "mc.watchdogCycles")
            mcfg_.watchdogCycles = i;
        else if (key == "sc.enabled")
            scfg_.enabled = i != 0;
        else if (key == "sc.policy")
            scfg_.policy = static_cast<SchedPolicy>(i);
        else if (key == "sc.laneWiseDep")
            scfg_.laneWiseDep = i != 0;
        else if (key == "sc.bsSkip")
            scfg_.bsSkip = i != 0;
        else if (key == "sc.bcache")
            scfg_.bcache = static_cast<BcastCacheKind>(i);
        else if (key == "sc.mpCompress")
            scfg_.mpCompress = i != 0;
        else if (key == "sc.hcExtraLatency")
            scfg_.hcExtraLatency = i;
        else if (key == "sc.rotationStates")
            scfg_.rotationStates = i;
    }
    mcfg_.validate();
    scfg_.validate();
    if (cores() != mcfg_.cores)
        bad(path_, "CFG says " + std::to_string(mcfg_.cores) +
                       " cores but file has " + std::to_string(cores()) +
                       " UOPS chunks");
}

void
TraceReader::parseResult(const Span &s)
{
    const uint8_t *p = s.p;
    const uint8_t *end = s.p + s.n;
    rec_cycles_ = traceGetVarint(p, end);
    rec_ghz_ = frameGetF64(p, end);
    uint64_t count = traceGetVarint(p, end);
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t len = traceGetVarint(p, end);
        if (len > static_cast<uint64_t>(end - p))
            bad(path_, "stat name runs past RES chunk");
        std::string name(reinterpret_cast<const char *>(p),
                         static_cast<size_t>(len));
        p += len;
        rec_stats_[name] = frameGetF64(p, end);
    }
    has_result_ = true;
}

const TraceReader::Span &
TraceReader::coreSpan(const std::vector<Span> &spans, int core,
                      const char *what) const
{
    for (const Span &s : spans)
        if (s.arg == static_cast<uint32_t>(core))
            return s;
    bad(path_, std::string("no ") + what + " chunk for core " +
                   std::to_string(core));
}

MemoryImage
TraceReader::buildImage() const
{
    MemoryImage image;
    for (const Span &s : mem_regions_) {
        const uint8_t *p = s.p;
        const uint8_t *end = s.p + s.n;
        uint64_t base = frameGetU64(p, end);
        uint64_t size = frameGetU64(p, end);
        image.addRegion(base, size);
        uint64_t off = 0;
        while (off < size) {
            uint64_t zero_run = traceGetVarint(p, end);
            uint64_t lit = traceGetVarint(p, end);
            if (zero_run > size - off || lit > size - off - zero_run)
                bad(path_, "memory-region RLE overruns the region");
            off += zero_run; // region memory starts zeroed
            if (lit > static_cast<uint64_t>(end - p))
                bad(path_, "memory-region literal runs past its chunk");
            if (lit > 0)
                image.writeBytes(base + off, p, lit);
            p += lit;
            off += lit;
        }
    }
    return image;
}

std::vector<std::pair<uint64_t, uint64_t>>
TraceReader::warmRanges(int core) const
{
    const Span &s = coreSpan(warm_, core, "WARM");
    const uint8_t *p = s.p;
    const uint8_t *end = s.p + s.n;
    uint64_t count = traceGetVarint(p, end);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    out.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        uint64_t base = frameGetU64(p, end);
        uint64_t bytes = traceGetVarint(p, end);
        out.emplace_back(base, bytes);
    }
    return out;
}

uint64_t
TraceReader::uopCount(int core) const
{
    const Span &s = coreSpan(uops_, core, "UOPS");
    const uint8_t *p = s.p;
    return traceGetVarint(p, s.p + s.n);
}

std::vector<Uop>
TraceReader::uops(int core) const
{
    TraceFileSource src(*this, core);
    std::vector<Uop> out;
    out.reserve(static_cast<size_t>(src.remaining()));
    Uop u;
    while (src.next(u))
        out.push_back(u);
    return out;
}

std::vector<uint32_t>
TraceReader::elms(int core) const
{
    const Span &s = coreSpan(elms_, core, "ELMS");
    const uint8_t *p = s.p;
    const uint8_t *end = s.p + s.n;
    uint64_t count = traceGetVarint(p, end);
    std::vector<uint32_t> out;
    out.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i)
        out.push_back(static_cast<uint32_t>(traceGetVarint(p, end)));
    return out;
}

TraceFileSource::TraceFileSource(const TraceReader &reader, int core)
{
    const TraceReader::Span &s =
        reader.coreSpan(reader.uops_, core, "UOPS");
    const uint8_t *p = s.p;
    end_ = s.p + s.n;
    total_ = traceGetVarint(p, end_);
    begin_ = p;
    p_ = p;
    remaining_ = total_;
}

bool
TraceFileSource::next(Uop &u)
{
    if (remaining_ == 0)
        return false;
    u = traceDecodeUop(p_, end_, prev_addr_);
    --remaining_;
    return true;
}

void
TraceFileSource::reset()
{
    p_ = begin_;
    remaining_ = total_;
    prev_addr_ = 0;
}

} // namespace save
