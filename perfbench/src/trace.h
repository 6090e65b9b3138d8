/**
 * @file
 * Benchmark-side spans. Each Span wraps one call the benchmark makes
 * into a layer of the program; its name is "<layer>.<call>". Spans
 * carry a start, an end, the span that caused them (the enclosing
 * span on the same thread) and a request id, plus optional numeric
 * arguments (the counts the call returned). They are kept in memory
 * and written at exit as Chrome-trace JSON — the same document shape
 * `--trace-events` writes — so one Perfetto tab opens both.
 *
 * When tracing is off a Span costs one flag test.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t req = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int tid = 0;
    /** Recorded while the layer probe ran (see workloads.h). */
    bool probe = false;
    /** A counter sample (no duration): exported as a "C" event. */
    bool counter = false;
    std::map<std::string, double> args;

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
    /** The layer: the name up to its first '.'. */
    std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer
{
  public:
    static Tracer &get();

    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }
    /** Tag later spans as probe spans (true) or workload spans. */
    void setProbe(bool p) { probe_ = p; }

    void record(SpanRec rec);
    /** Record counts taken at a layer boundary (no-op while off). */
    void counter(const char *name, std::map<std::string, double> args);
    std::vector<SpanRec> spans() const;

    /**
     * Spans named `name`: those of the workload pass when it recorded
     * any, else those of the layer probe.
     */
    std::vector<SpanRec> pick(const std::string &name) const;

    /** Per layer, over the workload pass (probe false) or the layer
     *  probe (true): span time not covered by child spans, ms. */
    std::map<std::string, double> selfTimeMs(bool probe) const;

    /** Chrome-trace JSON; `other` is a JSON object for "otherData". */
    void writeChromeTrace(const std::string &path,
                          const std::string &other) const;

    uint64_t nextId();
    bool probe() const { return probe_; }

  private:
    bool on_ = false;
    bool probe_ = false;
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
    uint64_t lastId_ = 0;
};

/** RAII span; a no-op while tracing is off. `req` 0 inherits the
 *  enclosing span's request id. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t req = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a numeric argument (ignored while tracing is off). */
    void arg(const char *key, double value);
    /** End the timed interval now; arguments may still be attached. */
    void stop();

  private:
    bool live_ = false;
    SpanRec rec_;
    uint64_t savedParent_ = 0;
    uint64_t savedReq_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
