/**
 * @file
 * Simulator speed benchmark — a plain, dependency-free binary so the
 * CI perf-smoke job can run it anywhere and diff its JSON against a
 * committed baseline.
 *
 * Measures host throughput (simulated uops/s and cycles/s) of pinned
 * GEMM slices per scheduler policy, precision, and sparsity, with the
 * stall fast-forward on and off, plus the steady-state heap-allocation
 * rate of the cycle loop (the event-driven loop is allocation-free in
 * steady state; a regression here shows up as allocs/cycle creeping
 * up). Workload sizes are hard-pinned; the only environment this file
 * reads is the SAVE_FASTFORWARD toggle it sets itself. Every run
 * simulates: there is no result store here, so the numbers always
 * time the simulator.
 *
 * Usage:
 *   bench_simspeed                 human-readable table
 *   bench_simspeed --json          JSON document on stdout
 *   bench_simspeed --check F       also compare against the baseline
 *                                  JSON at F; exit 1 if any benchmark's
 *                                  sim_cycles, ff_jumps or
 *                                  ff_cycles_skipped differs at all (the
 *                                  model changed), or its uops/s
 *                                  regressed by more than 20%
 *                                  (tolerance for shared-runner noise).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <cmath>

#include "kernels/gemm.h"
#include "mem/memory_image.h"
#include "sim/multicore.h"
#include "stats/stats.h"

/* Heap-allocation counter: interpose the global allocation functions
 * (this binary only). Counting news is enough — the metric is churn,
 * and every free pairs with an allocation we counted. */
static std::atomic<uint64_t> g_heap_allocs{0};

void *
operator new(std::size_t n)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

namespace save {
namespace {

/** The pinned slice: big enough to reach steady state, small enough
 *  for a CI smoke job. Do not derive any of these from the machine or
 *  the environment — the committed baseline assumes these numbers. */
GemmConfig
slice(double bs, double nbs, Precision prec)
{
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = 192;
    g.tiles = 6;
    g.pattern = BroadcastPattern::Embedded;
    g.precision = prec;
    g.bsSparsity = bs;
    g.nbsSparsity = nbs;
    g.seed = 7;
    return g;
}

struct RunResult
{
    uint64_t cycles = 0;
    double uops = 0;
    uint64_t ffJumps = 0;
    uint64_t ffSkipped = 0;
};

/** One single-core run, built directly on Multicore (not Engine) so
 *  the fast-forward counters — deliberately kept out of the stat map —
 *  are reachable. */
RunResult
runOnce(const SaveConfig &scfg, const GemmConfig &g)
{
    MachineConfig mc;
    mc.dramGBps = mc.dramGBps / mc.cores; // one core's bandwidth share
    mc.cores = 1;

    MemoryImage image;
    std::vector<GemmWorkload> work = buildShardedGemm(g, image, 1);
    Multicore machine(mc, scfg, 2, &image);
    work[0].warmup(machine.hierarchy());
    VectorTrace trace(work[0].trace);
    machine.bindTraces({&trace});

    RunResult r;
    r.cycles = machine.run();
    r.uops = machine.aggregateStats().get("uops");
    r.ffJumps = machine.core(0).ffJumps();
    r.ffSkipped = machine.core(0).ffCyclesSkipped();
    return r;
}

struct BenchRow
{
    std::string name;
    double uopsPerSec = 0;
    double cyclesPerSec = 0;
    uint64_t simCycles = 0;
    uint64_t ffJumps = 0;
    uint64_t ffSkipped = 0;
    double allocsPerCycle = 0;
};

BenchRow
bench(const char *name, const SaveConfig &scfg, const GemmConfig &g,
      bool fastforward)
{
    setenv("SAVE_FASTFORWARD", fastforward ? "1" : "0", 1);

    runOnce(scfg, g); // warm-up (page cache, allocator arenas)

    constexpr int kReps = 5;
    uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    double uops = 0;
    uint64_t cycles = 0;
    RunResult last;
    for (int i = 0; i < kReps; ++i) {
        last = runOnce(scfg, g);
        uops += last.uops;
        cycles += last.cycles;
    }
    auto t1 = std::chrono::steady_clock::now();
    uint64_t allocs1 = g_heap_allocs.load(std::memory_order_relaxed);
    double secs = std::chrono::duration<double>(t1 - t0).count();

    BenchRow row;
    row.name = name;
    row.uopsPerSec = uops / secs;
    row.cyclesPerSec = static_cast<double>(cycles) / secs;
    row.simCycles = last.cycles;
    row.ffJumps = last.ffJumps;
    row.ffSkipped = last.ffSkipped;
    // Whole-run allocation rate: includes machine construction, so it
    // is an upper bound on steady-state churn.
    row.allocsPerCycle =
        static_cast<double>(allocs1 - allocs0) / static_cast<double>(cycles);

    unsetenv("SAVE_FASTFORWARD");
    return row;
}

std::vector<BenchRow>
runAll()
{
    std::vector<BenchRow> rows;
    rows.push_back(bench("baseline_fp32_dense", SaveConfig::baseline(),
                         slice(0.0, 0.0, Precision::Fp32), true));
    rows.push_back(bench("rvc_fp32_dense", SaveConfig{},
                         slice(0.0, 0.0, Precision::Fp32), true));
    rows.push_back(bench("rvc_fp32_sparse80", SaveConfig{},
                         slice(0.8, 0.8, Precision::Fp32), true));
    rows.push_back(bench("rvc_bf16_sparse80", SaveConfig{},
                         slice(0.8, 0.8, Precision::Bf16), true));
    rows.push_back(bench("rvc_fp32_sparse80_noff", SaveConfig{},
                         slice(0.8, 0.8, Precision::Fp32), false));
    return rows;
}

void
printTable(const std::vector<BenchRow> &rows)
{
    std::printf("%-36s %14s %14s %10s %10s %12s %14s\n", "benchmark",
                "uops/s", "sim_cycles/s", "cycles", "ff_jumps",
                "ff_skipped", "allocs/cycle");
    for (const BenchRow &r : rows) {
        std::printf("%-36s %14.0f %14.0f %10llu %10llu %12llu %14.4f\n",
                    r.name.c_str(), r.uopsPerSec, r.cyclesPerSec,
                    static_cast<unsigned long long>(r.simCycles),
                    static_cast<unsigned long long>(r.ffJumps),
                    static_cast<unsigned long long>(r.ffSkipped),
                    r.allocsPerCycle);
    }
}

void
printJson(const std::vector<BenchRow> &rows)
{
    std::printf("{\n  \"schema\": \"save-bench-simspeed-v1\",\n");
    std::printf("  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const BenchRow &r = rows[i];
        // One StatGroup per row rendered by the shared stable-ordered
        // JSON writer; "name" is spliced in front (alphabetical order
        // keeps every metric after it, which readBaseline relies on).
        save::StatGroup g;
        g.set("uops_per_sec", r.uopsPerSec);
        g.set("sim_cycles_per_sec", r.cyclesPerSec);
        g.set("sim_cycles", static_cast<double>(r.simCycles));
        g.set("ff_jumps", static_cast<double>(r.ffJumps));
        g.set("ff_cycles_skipped", static_cast<double>(r.ffSkipped));
        g.set("allocs_per_cycle", r.allocsPerCycle);
        std::string json = g.toJson();
        std::printf("    {\"name\": \"%s\", %s%s\n", r.name.c_str(),
                    json.c_str() + 1, i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
}

/** Each benchmark row of a baseline JSON produced by --json, as its
 *  name and the text of its metrics (no general JSON parsing). */
std::vector<std::pair<std::string, std::string>>
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    std::vector<std::pair<std::string, std::string>> out;
    size_t pos = 0;
    const std::string kName = "\"name\": \"";
    while ((pos = text.find(kName, pos)) != std::string::npos) {
        size_t nb = pos + kName.size();
        size_t ne = text.find('"', nb);
        size_t end = text.find('}', ne);
        if (ne == std::string::npos || end == std::string::npos)
            break;
        out.emplace_back(text.substr(nb, ne - nb),
                         text.substr(ne, end - ne));
        pos = end;
    }
    return out;
}

/** The number after `"key": ` in one baseline row; NaN if absent. */
double
rowField(const std::string &row, const std::string &key)
{
    const std::string k = "\"" + key + "\": ";
    size_t at = row.find(k);
    return at == std::string::npos
               ? std::nan("")
               : std::strtod(row.c_str() + at + k.size(), nullptr);
}

int
check(const std::vector<BenchRow> &rows, const std::string &baseline_path)
{
    constexpr double kTolerance = 0.20;
    auto baseline = readBaseline(baseline_path);
    if (baseline.empty()) {
        std::fprintf(stderr, "baseline %s has no benchmarks\n",
                     baseline_path.c_str());
        return 2;
    }
    int failures = 0;
    for (const auto &[name, fields] : baseline) {
        const BenchRow *cur = nullptr;
        for (const BenchRow &r : rows)
            if (r.name == name)
                cur = &r;
        if (!cur) {
            std::fprintf(stderr, "FAIL %s: present in baseline, not run\n",
                         name.c_str());
            ++failures;
            continue;
        }
        // The deterministic counters must match exactly: a change that
        // moves one changed the model, not the host's speed.
        const std::pair<const char *, uint64_t> counters[] = {
            {"sim_cycles", cur->simCycles},
            {"ff_jumps", cur->ffJumps},
            {"ff_cycles_skipped", cur->ffSkipped},
        };
        for (const auto &[key, value] : counters) {
            double base = rowField(fields, key);
            if (static_cast<double>(value) == base)
                continue;
            std::printf("FAIL  %-36s %s %llu vs baseline %.0f\n",
                        name.c_str(), key,
                        static_cast<unsigned long long>(value), base);
            ++failures;
        }
        double base_rate = rowField(fields, "uops_per_sec");
        double ratio = cur->uopsPerSec / base_rate;
        bool ok = ratio >= 1.0 - kTolerance;
        std::printf("%-5s %-36s %.0f uops/s vs baseline %.0f (%+.1f%%)\n",
                    ok ? "ok" : "FAIL", name.c_str(), cur->uopsPerSec,
                    base_rate, (ratio - 1.0) * 100.0);
        if (!ok)
            ++failures;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace save

int
main(int argc, char **argv)
{
    bool json = false;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            check_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--check baseline.json]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<save::BenchRow> rows = save::runAll();
    if (json)
        save::printJson(rows);
    else
        save::printTable(rows);
    if (!check_path.empty())
        return save::check(rows, check_path);
    return 0;
}
