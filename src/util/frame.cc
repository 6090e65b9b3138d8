#include "util/frame.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/error.h"
#include "util/posix_io.h"

namespace save {

namespace {

/** Slicing-by-8 tables: t[0] is the bytewise table; t[j][b] is the
 *  CRC of byte b followed by j zero bytes, so eight lookups advance the
 *  CRC over eight bytes at once. */
struct Crc32Table
{
    uint32_t t[8][256];

    constexpr Crc32Table() : t()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (int j = 1; j < 8; ++j)
            for (uint32_t i = 0; i < 256; ++i)
                t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
    }
};

constexpr Crc32Table kCrcTable;

/** Little-endian u32 from bytes: host byte order and alignment free. */
uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Absolute deadline helper: remaining ms, clamped to >= 0. */
int
remainingMs(std::chrono::steady_clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    return left < 0 ? 0 : static_cast<int>(left);
}

enum class TimedRead
{
    Ok,
    Eof,
    Timeout
};

/**
 * Read exactly n bytes before the deadline. Eof is only reported at
 * offset 0 when eof_ok; mid-buffer EOF and hard errors throw.
 */
TimedRead
readTimed(int fd, void *buf, size_t n, bool infinite,
          std::chrono::steady_clock::time_point deadline, bool eof_ok,
          const char *who)
{
    size_t done = 0;
    while (done < n) {
        int wait = infinite ? -1 : remainingMs(deadline);
        int ready = pollReadable(fd, wait);
        if (ready < 0)
            throw TraceError(std::string(who) + ": poll failed: " +
                             std::strerror(errno));
        if (ready == 0)
            return TimedRead::Timeout;
        ssize_t r = ::read(fd, static_cast<char *>(buf) + done,
                           n - done);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw TraceError(std::string(who) + ": read failed: " +
                             std::strerror(errno));
        }
        if (r == 0) {
            if (done == 0 && eof_ok)
                return TimedRead::Eof;
            throw TraceError(std::string(who) +
                             ": EOF inside a frame (peer died "
                             "mid-message)");
        }
        done += static_cast<size_t>(r);
    }
    return TimedRead::Ok;
}

} // namespace

std::string
frameFourccName(uint32_t fourcc)
{
    char text[5];
    for (int i = 0; i < 4; ++i) {
        char c = static_cast<char>((fourcc >> (8 * i)) & 0xffu);
        text[i] = std::isprint(static_cast<unsigned char>(c)) ? c : '.';
    }
    text[4] = '\0';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "'%s' (0x%08x)", text, fourcc);
    return buf;
}

uint32_t
frameCrc32(const uint8_t *p, size_t n, uint32_t seed)
{
    const auto &t = kCrcTable.t;
    uint32_t c = seed ^ 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        const uint32_t lo = c ^ loadLe32(p), hi = loadLe32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
framePutU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
framePutU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
framePutF64(std::vector<uint8_t> &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    framePutU64(out, bits);
}

uint32_t
frameGetU32(const uint8_t *&p, const uint8_t *end)
{
    if (end - p < 4)
        throw TraceError("u32 runs past the end of its section");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    p += 4;
    return v;
}

uint64_t
frameGetU64(const uint8_t *&p, const uint8_t *end)
{
    if (end - p < 8)
        throw TraceError("u64 runs past the end of its section");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    p += 8;
    return v;
}

double
frameGetF64(const uint8_t *&p, const uint8_t *end)
{
    uint64_t bits = frameGetU64(p, end);
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

void
framePutString(std::vector<uint8_t> &out, const std::string &s)
{
    framePutU32(out, static_cast<uint32_t>(s.size()));
    framePutBytes(out, s.data(), s.size());
}

std::string
frameGetString(const uint8_t *&p, const uint8_t *end)
{
    uint32_t n = frameGetU32(p, end);
    if (static_cast<size_t>(end - p) < n)
        throw TraceError("string runs past payload end");
    std::string s(reinterpret_cast<const char *>(p), n);
    p += n;
    return s;
}

void
frameStructSizeError(const char *name, uint32_t got, size_t expected)
{
    throw TraceError(std::string(name) + " size " + std::to_string(got) +
                     " != expected " + std::to_string(expected) +
                     " (peers built from different trees?)");
}

void
frameStructShortError(const char *name)
{
    throw TraceError(std::string(name) + " runs past payload end");
}

void
frameAppendHeader(std::vector<uint8_t> &out, uint32_t fourcc,
                  uint32_t arg, const uint8_t *payload, size_t n)
{
    framePutU32(out, fourcc);
    framePutU32(out, arg);
    framePutU64(out, n);
    framePutU32(out, n == 0 ? frameCrc32(nullptr, 0)
                            : frameCrc32(payload, n));
}

void
frameAppend(std::vector<uint8_t> &out, uint32_t fourcc, uint32_t arg,
            const uint8_t *payload, size_t n)
{
    out.reserve(out.size() + kFrameHeaderBytes + n);
    frameAppendHeader(out, fourcc, arg, payload, n);
    if (n > 0)
        out.insert(out.end(), payload, payload + n);
}

std::vector<uint8_t>
frameEncode(uint32_t fourcc, uint32_t arg,
            const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> out;
    frameAppend(out, fourcc, arg, payload.data(), payload.size());
    return out;
}

bool
frameWriteFd(int fd, uint32_t fourcc, uint32_t arg,
             const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> buf =
        frameEncode(fourcc, arg, payload);
    return writeFull(fd, buf.data(), buf.size()) ==
           static_cast<ssize_t>(buf.size());
}

FrameRead
frameReadFd(int fd, Frame &frame, int timeout_ms, FrameAccept accept,
            uint64_t max_payload, const char *who)
{
    bool infinite = timeout_ms < 0;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(infinite ? 0 : timeout_ms);

    uint8_t header[kFrameHeaderBytes];
    switch (readTimed(fd, header, sizeof(header), infinite, deadline,
                      /*eof_ok=*/true, who)) {
    case TimedRead::Eof:
        return FrameRead::Eof;
    case TimedRead::Timeout:
        return FrameRead::Timeout;
    case TimedRead::Ok:
        break;
    }

    const uint8_t *p = header;
    const uint8_t *end = header + sizeof(header);
    frame.fourcc = frameGetU32(p, end);
    frame.arg = frameGetU32(p, end);
    uint64_t len = frameGetU64(p, end);
    uint32_t crc = frameGetU32(p, end);

    if (accept && !accept(frame.fourcc))
        throw TraceError(std::string(who) + ": unknown frame fourcc " +
                         frameFourccName(frame.fourcc) +
                         " (corrupt or misaligned stream)");
    if (len > max_payload)
        throw TraceError(std::string(who) + ": frame payload length " +
                         std::to_string(len) + " exceeds the " +
                         std::to_string(max_payload) +
                         "-byte cap (corrupt length field)");

    frame.payload.resize(len);
    if (len > 0) {
        switch (readTimed(fd, frame.payload.data(), len, infinite,
                          deadline, /*eof_ok=*/false, who)) {
        case TimedRead::Timeout:
            return FrameRead::Timeout;
        default:
            break;
        }
    }
    uint32_t got = frame.payload.empty()
                       ? frameCrc32(nullptr, 0)
                       : frameCrc32(frame.payload.data(),
                                    frame.payload.size());
    if (got != crc)
        throw TraceError(std::string(who) +
                         ": frame payload CRC mismatch (stored 0x" +
                         std::to_string(crc) + ", computed 0x" +
                         std::to_string(got) + ")");
    return FrameRead::Ok;
}

FrameParse
frameParse(const uint8_t *base, uint64_t size, uint64_t &off,
           FrameView &out, uint64_t max_payload, std::string *why)
{
    const uint64_t left = size - off;
    if (left < kFrameHeaderBytes) {
        if (why)
            *why = "torn frame header at offset " + std::to_string(off);
        return FrameParse::Truncated;
    }
    const uint8_t *p = base + off;
    const uint8_t *hend = p + kFrameHeaderBytes;
    out.fourcc = frameGetU32(p, hend);
    out.arg = frameGetU32(p, hend);
    out.len = frameGetU64(p, hend);
    uint32_t crc = frameGetU32(p, hend);
    if (out.len > max_payload) {
        if (why)
            *why = "frame length " + std::to_string(out.len) +
                   " exceeds the " + std::to_string(max_payload) +
                   "-byte cap at offset " + std::to_string(off);
        return FrameParse::Corrupt;
    }
    if (left - kFrameHeaderBytes < out.len) {
        if (why)
            *why = "torn frame payload at offset " + std::to_string(off);
        return FrameParse::Truncated;
    }
    out.payload = base + off + kFrameHeaderBytes;
    uint32_t got = out.len == 0
                       ? frameCrc32(nullptr, 0)
                       : frameCrc32(out.payload,
                                    static_cast<size_t>(out.len));
    if (got != crc) {
        if (why)
            *why = "frame payload CRC mismatch at offset " +
                   std::to_string(off);
        return FrameParse::Corrupt;
    }
    off += kFrameHeaderBytes + out.len;
    return FrameParse::Ok;
}

} // namespace save
