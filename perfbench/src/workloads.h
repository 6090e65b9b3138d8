/**
 * @file
 * The benchmark's workloads and its layer probe.
 *
 * A workload repeats one *unit* of user-visible work — a full Fig. 14
 * sweep, or a round of served GEMM requests — after its set-up. The
 * benchmark times only calls into the program's public functions; in
 * a traced run each call is wrapped in a Span named after its layer.
 *
 * The layer probe runs after the workload in a traced run. It drives
 * every layer directly on a small seeded input, so each per-layer
 * metric exists for every workload; a metric the workload's own traced
 * unit recorded overrides the probe's (Tracer::pick).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "proc/wire_codec.h"
#include "serve/session.h"

namespace perfbench {

/** Command-line settings plus the directories a run uses. */
struct Env
{
    std::string workload;
    uint64_t seed = 7;
    double seconds = 10;
    bool trace = false;
    /** Tiny knobs (grid=9 ksteps=8 tiles=1) for the smoke tests. */
    bool tiny = false;
    /** perfbench/: golden report and paper data. */
    std::string dataDir;
    /** Reports kept across runs to compare workloads of one seed. */
    std::string stateDir;
    /** Scratch of this process (stores, sockets, logs). */
    std::string workDir;
    /** save-serve and save-worker. */
    std::string binDir;
};

/** What a run observed. Thread-safe where client threads write. */
struct RunLog
{
    std::mutex mu;
    /** Wall time of each unit, s. */
    std::vector<double> unitS;
    /** Latency of each request, ms (serve-gemm). */
    std::vector<double> reqMs;
    uint64_t fresh = 0;
    uint64_t repeats = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    /** Every Fig. 14 report the run produced. */
    std::vector<std::string> reports;

    void attempt(uint64_t n = 1);
    /** Count one failed or refused operation, or a wrong output. */
    void fail(const std::string &why);
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Set-ups to time before the first unit; with setupPerUnit(),
     *  the least number of set-ups a run times. */
    virtual int setupReps() const { return 5; }
    /** True when every unit needs a fresh set-up (a fresh store behind
     *  a fresh daemon); those set-ups are timed too. */
    virtual bool setupPerUnit() const { return false; }
    /** Prepare the next unit; returns the time of the set-up proper,
     *  s (tearing down the previous state is excluded). */
    virtual double setup(RunLog &log) = 0;
    /** One unit; returns its wall time, s (checks done after the
     *  timed part are excluded). */
    virtual double unit(RunLog &log) = 0;
    /** Workload-specific end-to-end lines (printed, not in the JSON). */
    virtual void summary(RunLog &log, Metrics &out) { (void)log, (void)out; }
};

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Env &env);

extern const char *const kWorkloadNames[];

/** Sweep knobs of a run: bench_fig14 defaults, or the tiny smoke
 *  knobs; the estimator seed is the workload seed. */
save::Fig14Knobs fig14Knobs(const Env &env);

/**
 * One in-process Fig. 14 sweep: opens the store at `store_dir`, builds
 * a fresh TrainingEstimator on it, and renders the report through a
 * Fig14Eval that calls prefetch and then inference/training. Counts
 * each sweep point as an operation and each failed slice as a failure.
 * With `counters`, records the store's and estimator's counts.
 */
std::string estimatorSweep(const save::Fig14Knobs &k, int threads,
                           const std::string &store_dir, RunLog &log,
                           bool counters);

/**
 * buildShardedGemm → Multicore::run, then Engine::runGemm, on one
 * slice of the default machine (1 core, 2 VPUs) — the path a served
 * GEMM takes. Counts a failure when the two disagree.
 */
save::KernelResult simulateDirect(const save::GemmConfig &g, RunLog &log);

/** The wire form of a simulation result, as save-serve replies. */
save::WireSliceResult toWire(const save::KernelResult &r);

/** Bit-identical results: time, cycles, frequency and every stat. */
bool sameSlice(const save::WireSliceResult &a, const save::WireSliceResult &b);

/** bench_simspeed's pinned slice shape: mr=7 nrVecs=3 kSteps=192
 *  tiles=6, embedded broadcasts; `shape` picks fp32/bf16 × 0/80%. */
save::GemmConfig pinnedSlice(int shape, uint64_t data_seed);

/** Mean |measured − paper| / paper over the paper's eight
 *  mixed-precision dynamic speedups, %. */
double paperErrPct(const std::string &report, const std::string &data_dir);

/** Run the layer probe (tracing must be on). */
void runProbe(const Env &env, RunLog &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
