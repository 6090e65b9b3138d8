/**
 * @file
 * Compile-time-optional per-stage self-profiler.
 *
 * Built only when the build defines SAVE_PROFILE=1 (CMake option
 * -DSAVE_PROFILE=ON); the default build compiles every probe away to
 * nothing, so the cycle loop carries zero profiling cost. When built
 * in, each pipeline stage's wall time and visit count are accumulated
 * per core, with the number of RS entries the issue and dispatch
 * stages walk, and a table is printed to stderr at sim end
 * (Core::finalizeStats), e.g.:
 *
 *   -- SAVE_PROFILE core 0 (123456 cycles) --
 *   stage          visits        ns/visit     total ms   share
 *   writeback      123456            41.2          5.1   12.3%
 *   ...
 *   rs walk        entries   per issue cycle
 *   issue.pass      456789             3.7
 *   ...
 *
 * An "rs walk" row counts RS entries visited (issue.chains: chains
 * stepped; issue.chain_nodes: chain nodes those steps walked), divided
 * by the stepped cycles (the issue stage's visits; fast-forwarded
 * cycles walk nothing).
 *
 * Timing uses the steady clock per stage visit; the profiler is for
 * relative attribution (which stage eats the wall time), not absolute
 * nanosecond accuracy.
 */

#ifndef SAVE_SIM_PROFILER_H
#define SAVE_SIM_PROFILER_H

#include <cstdint>

#if SAVE_PROFILE
#include <array>
#include <chrono>
#include <cstdio>
#include <string>

#include "util/logging.h"
#endif

namespace save {

/** Pipeline stages attributed by the self-profiler. */
enum class ProfStage : uint8_t {
    Writeback,  // VPU drain + register publish
    Events,     // completion event queue
    Commit,     // in-order retire + store drain
    Issue,      // vector scheduler select/issue (incl. pass-through)
    Mem,        // load-port issue into the hierarchy
    Dispatch,   // MGU / ELM generation
    Rename,     // allocate/rename front end
    FastFwd,    // stall fast-forward bookkeeping
    kCount,
};

/** RS walks counted by the self-profiler, in entries visited. */
enum class ProfWalk : uint8_t {
    Pass,       // pass-through over the pass list
    Select,     // baseline / coalesced / HC select
    Chains,     // mixed-precision chains stepped
    ChainNodes, // chain nodes visited by those steps
    Dispatch,   // MGU over the pending sublist
    kCount,
};

#if SAVE_PROFILE

/** Per-core stage accounting (only compiled under SAVE_PROFILE=1). */
class StageProfiler
{
  public:
    class Scope
    {
      public:
        Scope(StageProfiler &p, ProfStage s)
            : p_(p), s_(s), t0_(std::chrono::steady_clock::now())
        {
        }

        ~Scope()
        {
            auto dt = std::chrono::steady_clock::now() - t0_;
            auto &b = p_.buckets_[static_cast<size_t>(s_)];
            b.ns += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count());
            ++b.visits;
        }

      private:
        StageProfiler &p_;
        ProfStage s_;
        std::chrono::steady_clock::time_point t0_;
    };

    void
    report(int core_id, uint64_t cycles) const
    {
        static const char *names[] = {
            "writeback", "events", "commit",   "issue",
            "mem",       "dispatch", "rename", "fastfwd",
        };
        uint64_t total = 0;
        for (const auto &b : buckets_)
            total += b.ns;
        if (total == 0)
            return;
        // Emit through util/logging as one message so the table is not
        // interleaved with trace/CLI output from other threads.
        std::string table;
        char line[128];
        std::snprintf(line, sizeof(line),
                      "-- SAVE_PROFILE core %d (%llu cycles) --\n"
                      "%-10s %12s %12s %10s %7s\n",
                      core_id, static_cast<unsigned long long>(cycles),
                      "stage", "visits", "ns/visit", "total ms",
                      "share");
        table += line;
        for (size_t i = 0; i < buckets_.size(); ++i) {
            const Bucket &b = buckets_[i];
            if (b.visits == 0)
                continue;
            std::snprintf(
                line, sizeof(line), "%-10s %12llu %12.1f %10.2f %6.1f%%\n",
                names[i], static_cast<unsigned long long>(b.visits),
                static_cast<double>(b.ns) / static_cast<double>(b.visits),
                static_cast<double>(b.ns) / 1e6,
                100.0 * static_cast<double>(b.ns) /
                    static_cast<double>(total));
            table += line;
        }
        static const char *walk_names[] = {
            "issue.pass",        "issue.select", "issue.chains",
            "issue.chain_nodes", "dispatch",
        };
        const uint64_t stepped =
            buckets_[static_cast<size_t>(ProfStage::Issue)].visits;
        if (stepped != 0) {
            std::snprintf(line, sizeof(line), "%-17s %12s %15s\n",
                          "rs walk", "entries", "per issue cycle");
            table += line;
            for (size_t i = 0; i < walks_.size(); ++i) {
                std::snprintf(
                    line, sizeof(line), "%-17s %12llu %15.2f\n",
                    walk_names[i],
                    static_cast<unsigned long long>(walks_[i]),
                    static_cast<double>(walks_[i]) /
                        static_cast<double>(stepped));
                table += line;
            }
        }
        if (!table.empty() && table.back() == '\n')
            table.pop_back();
        SAVE_INFORM(table);
    }

    void count(ProfWalk w) { ++walks_[static_cast<size_t>(w)]; }

  private:
    struct Bucket
    {
        uint64_t ns = 0;
        uint64_t visits = 0;
    };

    std::array<Bucket, static_cast<size_t>(ProfStage::kCount)> buckets_{};
    std::array<uint64_t, static_cast<size_t>(ProfWalk::kCount)> walks_{};
};

#define SAVE_PROF_SCOPE(prof, stage)                                        \
    ::save::StageProfiler::Scope save_prof_scope_##__LINE__(                \
        prof, ::save::ProfStage::stage)
#define SAVE_PROF_REPORT(prof, core, cycles) (prof).report(core, cycles)
/** One RS entry visited by the given walk. */
#define SAVE_PROF_WALK(prof, walk) (prof).count(::save::ProfWalk::walk)

#else // !SAVE_PROFILE

/** No-op stand-in so call sites compile away in default builds. */
class StageProfiler
{
};

#define SAVE_PROF_SCOPE(prof, stage)                                        \
    do {                                                                    \
    } while (0)
#define SAVE_PROF_REPORT(prof, core, cycles)                                \
    do {                                                                    \
    } while (0)
#define SAVE_PROF_WALK(prof, walk)                                          \
    do {                                                                    \
    } while (0)

#endif // SAVE_PROFILE

} // namespace save

#endif // SAVE_SIM_PROFILER_H
