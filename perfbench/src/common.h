/**
 * @file
 * Shared helpers of save-perfbench: clocks, order statistics,
 * the metric table, seeded streams, files, the host fingerprint, and a
 * save-serve daemon held by a child process.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock, ns. */
int64_t nowNs();

inline double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Median (mean of the two middle values for an even count); 0 when
 *  empty. */
double median(std::vector<double> v);

/** Linear-interpolated quantile q in [0,1]; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** The highest of p99/p90/p75/p50 with at least ten samples beyond it
 *  (p50 when none has). */
struct Tail
{
    int pct = 50;
    double value = 0;
};
Tail tailPercentile(const std::vector<double> &v);

/** One metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Insertion-ordered metric table; set() replaces an existing name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/** SplitMix64: a seeded, platform-independent stream. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t s_;
};

/** Mix a stream id into the workload seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

std::string readFile(const std::string &path);
/** Write via a temporary file and rename, so readers never see half a
 *  file. Throws std::runtime_error on failure. */
void writeFileAtomic(const std::string &path, const std::string &text);
void makeDirs(const std::string &path);
void removeTree(const std::string &path);
/** Bytes of the regular files under `dir`. */
uint64_t dirBytes(const std::string &dir);

/** Peak RSS of this process plus that of its largest waited-for child
 *  (the daemons and workers it started), MB. */
double peakRssMb();

/** nproc, CPU model, SIMD backend, build type and compiler. */
std::string hostFingerprint();

/** Escape a string for a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * A save-serve daemon running as a child process. start() spawns it
 * and waits until it answers a Ping; stop() drains it with SIGTERM,
 * kills it after a grace period, and reaps it. The destructor stops a
 * running daemon, so no path leaves a process behind.
 */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** `args` are save-serve flags besides --socket. Throws
     *  std::runtime_error when the daemon does not come up. */
    void start(const std::string &bin, const std::string &socket,
               const std::vector<std::string> &args,
               const std::string &log_path);
    void stop();
    const std::string &socket() const { return socket_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
