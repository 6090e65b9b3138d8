/**
 * @file
 * Fig. 14 reproduction: whole-network inference and end-to-end
 * training time, normalized to the baseline (2 VPUs @1.7GHz, no
 * SAVE), for:
 *   (a) CNN inference   (b) GNMT inference
 *   (c) CNN training    (d) GNMT training
 * across {SAVE 2 VPUs, SAVE 1 VPU @2.1GHz, static, dynamic} in FP32
 * and mixed precision, with the paper's phase breakdown (first layer
 * split out; forward / backward-input / backward-weights).
 *
 * The entry tables and every output format live in
 * dnn/fig14_report.h, shared with the save-serve daemon: a served
 * sweep and this bench must produce byte-identical reports.
 *
 * Flags: --grid=1 reproduces the paper's full 10% sparsity sampling
 * (slower); the default --grid=3 samples every 30% and interpolates.
 * Every simulated slice lands in the result store (--cache-dir) as it
 * completes, so an interrupted run resumes by rerunning the same
 * command: stored slices are not simulated again.
 */

#include "bench_util.h"
#include "dnn/fig14_report.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    EstimatorOptions eopt = estimatorOptions(flags);
    SweepRunner runner(sweepOptions(flags));
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, eopt);
    // Run-dependent counters go to stderr: stdout must be bit-identical
    // across cold/warm cache states and isolation modes (CI diffs it).
    std::fprintf(stderr, "simulation fan-out: %d thread(s)\n",
                 est.threads());

    Fig14Eval eval = [&](const std::string &key, const Fig14Entry &e,
                         bool training) {
        return runner.point<NetResult>(key, [&] {
            return training ? est.training(e.net, e.prec)
                            : est.inference(e.net, e.prec);
        });
    };

    std::string report = fig14Report(eval);
    std::fputs(report.c_str(), stdout);

    std::fprintf(stderr,
                 "slice simulations: %lu, persistent hits: %lu\n",
                 static_cast<unsigned long>(est.simulations()),
                 static_cast<unsigned long>(est.persistentHits()));
    maybePrintCacheStats(flags, est.resultStore());
    return runner.finish(est.failures().size(), est.failureReport());
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
