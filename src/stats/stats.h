/**
 * @file
 * Lightweight statistics package: named scalar counters, distributions,
 * and formatted text tables for bench output.
 */

#ifndef SAVE_STATS_STATS_H
#define SAVE_STATS_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace save {

/** A group of named scalar statistics owned by one simulated component. */
class StatGroup
{
  public:
    /** Add delta to the named counter, creating it at zero if absent. */
    void add(const std::string &name, double delta = 1.0);

    /** Overwrite the named value. */
    void set(const std::string &name, double value);

    /** Read a counter; zero if it was never touched. */
    double get(const std::string &name) const;

    /** True if the counter exists. */
    bool has(const std::string &name) const;

    /**
     * Stable pointer to the named counter (created at zero if absent),
     * for hot paths that would otherwise pay a string lookup per add.
     * std::map nodes never move, so the pointer stays valid for the
     * group's lifetime.
     */
    double *handle(const std::string &name) { return &values_[name]; }

    /** Merge another group into this one by summing matching names. */
    void merge(const StatGroup &other);

    const std::map<std::string, double> &all() const { return values_; }

    /** Render "name value" lines, sorted by name. */
    std::string dump(const std::string &prefix = "") const;

    /**
     * Render a stable-ordered (alphabetical) JSON object. Integral
     * values print without a fraction; everything else uses %.17g so
     * the text round-trips bit-exactly. Names are emitted verbatim
     * (stat names are identifier-like; nothing needs escaping).
     */
    std::string toJson(const std::string &indent = "") const;

  private:
    std::map<std::string, double> values_;
};

/**
 * Cached reference to one StatGroup counter for hot paths. The handle
 * is resolved lazily on the first add(), so a counter that never fires
 * is never created — exactly the semantics of StatGroup::add — while
 * subsequent adds are a pointer bump instead of a string-map lookup.
 */
class StatRef
{
  public:
    StatRef() = default;
    StatRef(StatGroup *group, const char *name)
        : g_(group), name_(name)
    {
    }

    void
    add(double delta = 1.0)
    {
        if (!p_)
            p_ = g_->handle(name_);
        *p_ += delta;
    }

  private:
    StatGroup *g_ = nullptr;
    const char *name_ = "";
    double *p_ = nullptr;
};

/** Fixed-bucket histogram, used e.g. for the Fig. 16 speedup-cap bins. */
class Histogram
{
  public:
    /**
     * @param edges Ascending bucket edges; bucket i covers
     *              [edges[i], edges[i+1]). Values below edges[0] or at or
     *              above edges.back() land in saturating end buckets.
     */
    explicit Histogram(std::vector<double> edges);

    void sample(double value);

    int bucketCount() const { return static_cast<int>(counts_.size()); }
    uint64_t count(int bucket) const { return counts_.at(bucket); }
    uint64_t totalSamples() const { return total_; }

    /** Human-readable "lo-hi: n" label for a bucket. */
    std::string bucketLabel(int bucket) const;

  private:
    std::vector<double> edges_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/** Simple left-aligned text table for bench/report output. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a separator under the header. */
    std::string render() const;

    static std::string fmt(double v, int precision = 2);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace save

#endif // SAVE_STATS_STATS_H
