#include "trace/event_trace.h"

#include <atomic>
#include <bit>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "isa/vec.h"
#include "util/bitutil.h"
#include "util/error.h"
#include "util/logging.h"

namespace save {

namespace {

/** Ring capacity per core; a full ring flushes synchronously, so no
 *  event is ever dropped. */
constexpr size_t kRingCap = 1u << 14;

/** Track (tid) layout inside a core's process. */
enum : int {
    kTidAlloc = 10,
    kTidMgu = 11,
    kTidPass = 12,
    kTidWriteback = 13,
    kTidSquash = 14,
    kTidIssueBase = 20,    // + vpu
    kTidCoalesceBase = 60, // + vpu
    kTidRobBase = 100,     // + (rob slot & 31)
};
constexpr int kRobTracks = 32;

const char *
opName(Opcode op)
{
    switch (op) {
      case Opcode::VfmaPs:
        return "vfma";
      case Opcode::VfmaPsBcast:
        return "vfma.b";
      case Opcode::Vdpbf16Ps:
        return "vdp";
      case Opcode::Vdpbf16PsBcast:
        return "vdp.b";
      case Opcode::BroadcastLoad:
        return "bcast";
      case Opcode::LoadVec:
        return "load";
      case Opcode::StoreVec:
        return "store";
      case Opcode::Alu:
        return "alu";
      case Opcode::SetMask:
        return "kmov";
    }
    return "?";
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

/* CoreEventTracer ----------------------------------------------------- */

CoreEventTracer::CoreEventTracer(EventTraceSession *session, int core_id)
    : session_(session), core_id_(core_id)
{
    ring_.reserve(kRingCap);

    // Process/track naming metadata so Perfetto shows readable lanes.
    std::string out;
    auto meta = [&](int tid, const char *name) {
        appendf(out,
                ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                core_id_, tid, name);
    };
    appendf(out,
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
            "\"args\":{\"name\":\"core %d\"}}",
            core_id_, core_id_);
    meta(kTidAlloc, "alloc/rename");
    meta(kTidMgu, "mgu elm");
    meta(kTidPass, "pass-through");
    meta(kTidWriteback, "writeback");
    meta(kTidSquash, "squash");
    for (int v = 0; v < 2; ++v) {
        char name[32];
        std::snprintf(name, sizeof(name), "vpu%d issue", v);
        meta(kTidIssueBase + v, name);
        std::snprintf(name, sizeof(name), "vpu%d coalesce", v);
        meta(kTidCoalesceBase + v, name);
    }
    for (int s = 0; s < kRobTracks; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "uops.%02d", s);
        meta(kTidRobBase + s, name);
    }
    session_->emit(out);
}

void
CoreEventTracer::push(const Rec &r)
{
    ring_.push_back(r);
    if (ring_.size() >= kRingCap)
        flush();
}

void
CoreEventTracer::alloc(uint64_t cycle, uint64_t seq, const Uop &u,
                       int rob_idx)
{
    if (alloc_cycle_.size() <= static_cast<size_t>(rob_idx))
        alloc_cycle_.resize(static_cast<size_t>(rob_idx) + 1, 0);
    alloc_cycle_[static_cast<size_t>(rob_idx)] = cycle;
    push({cycle, seq, static_cast<uint32_t>(rob_idx), 0, 0, Kind::Alloc,
          static_cast<uint8_t>(u.op)});
}

void
CoreEventTracer::elm(uint64_t cycle, uint64_t seq, uint32_t elm,
                     int pending_al)
{
    push({cycle, seq, elm, static_cast<uint32_t>(pending_al), 0,
          Kind::Elm, 0});
}

void
CoreEventTracer::coalesceLane(uint64_t cycle, uint64_t seq, int src_lane,
                              int temp_lane, int vpu, bool hc)
{
    ++n_lane_moves_;
    push({cycle, seq, static_cast<uint32_t>(src_lane),
          static_cast<uint32_t>(temp_lane), static_cast<int16_t>(vpu),
          Kind::Coalesce, static_cast<uint8_t>(hc ? 1 : 0)});
}

void
CoreEventTracer::coalesceDense(uint64_t cycle, uint64_t seq, int vpu)
{
    ++n_dense_;
    push({cycle, seq, 0, 0, static_cast<int16_t>(vpu), Kind::Dense, 0});
}

void
CoreEventTracer::chainMl(uint64_t cycle, uint64_t seq, int al, int vpu,
                         int mls)
{
    n_chain_mls_ += static_cast<uint64_t>(mls);
    push({cycle, seq, static_cast<uint32_t>(al),
          static_cast<uint32_t>(mls), static_cast<int16_t>(vpu),
          Kind::ChainMl, 0});
}

void
CoreEventTracer::passLanes(uint64_t cycle, uint64_t seq, uint16_t lanes)
{
    n_pass_lanes_ += static_cast<uint64_t>(popcount(lanes));
    push({cycle, seq, lanes, 0, 0, Kind::Pass, 0});
}

void
CoreEventTracer::baselineIssue(uint64_t cycle, uint64_t seq, int vpu)
{
    ++n_baseline_;
    push({cycle, seq, 0, 0, static_cast<int16_t>(vpu), Kind::Baseline,
          0});
}

void
CoreEventTracer::tempIssue(uint64_t cycle, int vpu, int lanes, bool mp,
                           int lat, bool hc)
{
    ++n_vpu_ops_;
    fill_sum_ += static_cast<uint64_t>(lanes);
    slot_sum_ += static_cast<uint64_t>(kVecLanes);
    push({cycle, 0, static_cast<uint32_t>(lanes),
          static_cast<uint32_t>(lat), static_cast<int16_t>(vpu),
          Kind::TempIssue,
          static_cast<uint8_t>((mp ? 1 : 0) | (hc ? 2 : 0))});
}

void
CoreEventTracer::writeback(uint64_t cycle, uint64_t seq, int rob_idx)
{
    push({cycle, seq, static_cast<uint32_t>(rob_idx), 0, 0,
          Kind::Writeback, 0});
}

void
CoreEventTracer::retire(uint64_t cycle, uint64_t seq, const Uop &u,
                        int rob_idx)
{
    ++n_uops_;
    if (u.isVfma())
        ++n_vfmas_;
    uint64_t start = 0;
    if (static_cast<size_t>(rob_idx) < alloc_cycle_.size())
        start = alloc_cycle_[static_cast<size_t>(rob_idx)];
    // The duration is precomputed here: the ROB slot's alloc record
    // may be overwritten by a younger uop before the ring flushes.
    uint64_t dur = cycle >= start ? cycle - start : 0;
    push({cycle, seq, static_cast<uint32_t>(dur),
          static_cast<uint32_t>(rob_idx), 0, Kind::Retire,
          static_cast<uint8_t>(u.op)});
}

void
CoreEventTracer::squash(uint64_t cycle, uint64_t fault_seq, int count)
{
    n_squashed_ += static_cast<uint64_t>(count);
    push({cycle, fault_seq, static_cast<uint32_t>(count), 0, 0,
          Kind::Squash, 0});
}

void
CoreEventTracer::recordJson(const Rec &r, std::string &out) const
{
    const int pid = core_id_;
    auto instant = [&](int tid, const char *name, const char *args_fmt,
                       auto... args) {
        appendf(out,
                ",\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                "\"ts\":%llu,\"pid\":%d,\"tid\":%d,\"args\":{",
                name, static_cast<unsigned long long>(r.cycle), pid,
                tid);
        appendf(out, args_fmt, args...);
        out += "}}";
    };
    unsigned long long seq = static_cast<unsigned long long>(r.seq);
    switch (r.kind) {
      case Kind::Alloc:
        instant(kTidAlloc, opName(static_cast<Opcode>(r.op)),
                "\"seq\":%llu,\"rob\":%u", seq, r.a);
        break;
      case Kind::Elm:
        instant(kTidMgu, "elm", "\"seq\":%llu,\"elm\":\"0x%x\",\"pendingAl\":%u",
                seq, r.a, r.b);
        break;
      case Kind::Coalesce:
        instant(kTidCoalesceBase + r.c, r.op ? "hc-lane" : "lane",
                "\"seq\":%llu,\"srcLane\":%u,\"slot\":%u", seq, r.a,
                r.b);
        break;
      case Kind::Dense:
        instant(kTidCoalesceBase + r.c, "dense", "\"seq\":%llu", seq);
        break;
      case Kind::ChainMl:
        instant(kTidCoalesceBase + r.c, "chain",
                "\"seq\":%llu,\"al\":%u,\"mls\":%u", seq, r.a, r.b);
        break;
      case Kind::Pass:
        instant(kTidPass, "pass", "\"seq\":%llu,\"lanes\":\"0x%x\"",
                seq, r.a);
        break;
      case Kind::Baseline:
        instant(kTidIssueBase + r.c, "issue", "\"seq\":%llu", seq);
        break;
      case Kind::TempIssue:
        appendf(out,
                ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                "\"dur\":%u,\"pid\":%d,\"tid\":%d,"
                "\"args\":{\"lanes\":%u}}",
                (r.op & 2) ? "hc-op" : (r.op & 1) ? "mp-op" : "fp32-op",
                static_cast<unsigned long long>(r.cycle), r.b, pid,
                kTidIssueBase + r.c, r.a);
        break;
      case Kind::Writeback:
        instant(kTidWriteback, "wb", "\"seq\":%llu,\"rob\":%u", seq,
                r.a);
        break;
      case Kind::Retire: {
        uint64_t dur = r.a ? r.a : 1;
        appendf(out,
                ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                "\"dur\":%llu,\"pid\":%d,\"tid\":%d,"
                "\"args\":{\"seq\":%llu}}",
                opName(static_cast<Opcode>(r.op)),
                static_cast<unsigned long long>(r.cycle - dur),
                static_cast<unsigned long long>(dur), pid,
                kTidRobBase + static_cast<int>(r.b) % kRobTracks, seq);
        break;
      }
      case Kind::Squash:
        instant(kTidSquash, "squash", "\"faultSeq\":%llu,\"count\":%u",
                seq, r.a);
        break;
    }
}

void
CoreEventTracer::flush()
{
    if (ring_.empty())
        return;
    std::string out;
    out.reserve(ring_.size() * 96);
    for (const Rec &r : ring_)
        recordJson(r, out);
    ring_.clear();
    session_->emit(out);
}

/* EventTraceSession --------------------------------------------------- */

EventTraceSession::EventTraceSession(const std::string &path)
    : path_(path)
{
    f_ = std::fopen(path_.c_str(), "wb");
    if (!f_)
        throw TraceError("cannot open event-trace file for writing: " +
                         path_);
    std::fputs("{\"traceEvents\":[", f_);
}

EventTraceSession::~EventTraceSession()
{
    finalize();
}

std::unique_ptr<EventTraceSession>
EventTraceSession::fromEnv()
{
    const char *env = std::getenv("SAVE_TRACE_EVENTS");
    if (!env || !*env)
        return nullptr;
    static std::atomic<int> instance{0};
    int n = ++instance;
    std::string path = env;
    if (n > 1) {
        path += '.';
        path += std::to_string(n);
    }
    return std::make_unique<EventTraceSession>(path);
}

CoreEventTracer *
EventTraceSession::tracer(int core_id)
{
    tracers_.push_back(
        std::make_unique<CoreEventTracer>(this, core_id));
    return tracers_.back().get();
}

void
EventTraceSession::emit(const std::string &json)
{
    // Every record string starts with ",\n"; the very first one in the
    // file drops the comma.
    std::lock_guard<std::mutex> lk(mu_);
    if (json.empty() || !f_)
        return;
    const char *p = json.c_str();
    size_t n = json.size();
    if (first_event_ && n > 1) {
        ++p;
        --n;
        first_event_ = false;
    }
    if (std::fwrite(p, 1, n, f_) != n)
        throw TraceError("short write to event-trace file: " + path_);
}

void
EventTraceSession::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    uint64_t uops = 0, vfmas = 0, vpu_ops = 0, fill = 0, slots = 0;
    uint64_t dense = 0, moves = 0, pass = 0, base = 0, chain = 0;
    uint64_t squashed = 0;
    for (auto &t : tracers_) {
        t->flush();
        uops += t->n_uops_;
        vfmas += t->n_vfmas_;
        vpu_ops += t->n_vpu_ops_;
        fill += t->fill_sum_;
        slots += t->slot_sum_;
        dense += t->n_dense_;
        moves += t->n_lane_moves_;
        pass += t->n_pass_lanes_;
        base += t->n_baseline_;
        chain += t->n_chain_mls_;
        squashed += t->n_squashed_;
    }
    double eff =
        slots ? 100.0 * static_cast<double>(fill) /
                    static_cast<double>(slots)
              : 0.0;
    summary_.set("uops_retired", static_cast<double>(uops));
    summary_.set("vfmas_retired", static_cast<double>(vfmas));
    summary_.set("vpu_ops_issued", static_cast<double>(vpu_ops));
    summary_.set("effectual_lanes_issued", static_cast<double>(fill));
    summary_.set("vpu_lane_slots", static_cast<double>(slots));
    summary_.set("coalescing_efficiency_pct", eff);
    summary_.set("dense_fastpath_issues", static_cast<double>(dense));
    summary_.set("coalesced_lane_moves", static_cast<double>(moves));
    summary_.set("passthrough_lanes", static_cast<double>(pass));
    summary_.set("baseline_issues", static_cast<double>(base));
    summary_.set("mp_chain_mls", static_cast<double>(chain));
    summary_.set("squashed_uops", static_cast<double>(squashed));

    std::lock_guard<std::mutex> lk(mu_);
    if (!f_)
        return;
    std::string footer = "\n],\"displayTimeUnit\":\"ms\","
                         "\"otherData\":{\"summary\":";
    footer += summary_.toJson();
    footer += "}}\n";
    std::fputs(footer.c_str(), f_);
    std::fclose(f_);
    f_ = nullptr;
    SAVE_INFORM("event trace: ", path_, " (", uops, " uops, ", vpu_ops,
                " VPU ops, coalescing efficiency ", eff, "%)");
}

} // namespace save
