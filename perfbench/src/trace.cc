#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {

thread_local uint64_t t_parent = 0;
thread_local uint64_t t_req = 0;

int
threadIndex()
{
    static std::atomic<int> next{1};
    thread_local int idx = next++;
    return idx;
}

} // namespace

Tracer &
Tracer::get()
{
    static Tracer t;
    return t;
}

uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lk(mu_);
    return ++lastId_;
}

void
Tracer::record(SpanRec rec)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(rec));
}

void
Tracer::counter(const char *name, std::map<std::string, double> args)
{
    if (!on_)
        return;
    SpanRec rec;
    rec.name = name;
    rec.id = nextId();
    rec.parent = t_parent;
    rec.req = t_req;
    rec.tid = threadIndex();
    rec.probe = probe_;
    rec.counter = true;
    rec.startNs = rec.endNs = nowNs();
    rec.args = std::move(args);
    record(std::move(rec));
}

std::vector<SpanRec>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

std::vector<SpanRec>
Tracer::pick(const std::string &name) const
{
    std::vector<SpanRec> wl, pr;
    for (const SpanRec &s : spans()) {
        if (s.name != name)
            continue;
        (s.probe ? pr : wl).push_back(s);
    }
    return wl.empty() ? pr : wl;
}

std::map<std::string, double>
Tracer::selfTimeMs(bool probe) const
{
    std::vector<SpanRec> all = spans();
    std::map<uint64_t, double> child_ms;
    for (const SpanRec &s : all)
        if (s.parent != 0 && !s.counter)
            child_ms[s.parent] += s.ms();
    std::map<std::string, double> out;
    for (const SpanRec &s : all) {
        if (s.probe != probe || s.counter)
            continue;
        auto it = child_ms.find(s.id);
        out[s.layer()] += s.ms() - (it == child_ms.end() ? 0 : it->second);
    }
    return out;
}

void
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &other) const
{
    std::vector<SpanRec> all = spans();
    int64_t t0 = all.empty() ? 0 : all.front().startNs;
    for (const SpanRec &s : all)
        t0 = std::min(t0, s.startNs);

    std::string out = "{\"traceEvents\":[";
    char buf[512];
    bool first = true;
    for (const SpanRec &s : all) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                      "\"probe\":%d",
                      first ? "" : ",", jsonEscape(s.name).c_str(),
                      s.layer().c_str(), s.counter ? "C" : "X",
                      static_cast<double>(s.startNs - t0) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3,
                      s.probe ? 2 : 1, s.tid,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.req),
                      s.probe ? 1 : 0);
        out += buf;
        for (const auto &[k, v] : s.args) {
            std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g",
                          jsonEscape(k).c_str(), v);
            out += buf;
        }
        out += "}}";
        first = false;
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
    out += other;
    out += "}\n";
    writeFileAtomic(path, out);
}

Span::Span(const char *name, uint64_t req)
{
    Tracer &t = Tracer::get();
    if (!t.on())
        return;
    live_ = true;
    rec_.name = name;
    rec_.id = t.nextId();
    rec_.parent = t_parent;
    rec_.req = req ? req : t_req;
    rec_.tid = threadIndex();
    rec_.probe = t.probe();
    savedParent_ = t_parent;
    savedReq_ = t_req;
    t_parent = rec_.id;
    t_req = rec_.req;
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!live_)
        return;
    stop();
    t_parent = savedParent_;
    t_req = savedReq_;
    Tracer::get().record(std::move(rec_));
}

void
Span::stop()
{
    if (live_ && rec_.endNs == 0)
        rec_.endNs = nowNs();
}

void
Span::arg(const char *key, double value)
{
    if (live_)
        rec_.args[key] = value;
}

} // namespace perfbench
