/**
 * @file
 * The Fig. 14 sweep — entry tables and report rendering — shared
 * between `bench_fig14` (prints to stdout) and the save-serve daemon
 * (streams the text back to `save-ctl`).
 *
 * The acceptance bar for the serving path is byte-identity: a served
 * default-config Fig. 14 sweep must match `bench_fig14` run in-process
 * to the byte. That only holds if both sides share ONE renderer, so
 * the network tables, the evaluation order, and every printf format
 * live here and nowhere else. Run-dependent counters (thread counts,
 * cache hits) never enter the report — they are the caller's business
 * and belong on stderr.
 */

#ifndef SAVE_DNN_FIG14_REPORT_H
#define SAVE_DNN_FIG14_REPORT_H

#include <functional>
#include <string>
#include <vector>

#include "dnn/estimator.h"
#include "dnn/networks.h"

namespace save {

/** One network x precision evaluation of the Fig. 14 sweep. */
struct Fig14Entry
{
    NetworkModel net;
    Precision prec;
    const char *label;
};

/** The CNN table: VGG16/ResNet-50 dense + pruned, FP32 and MP. */
const std::vector<Fig14Entry> &fig14CnnEntries();

/** The GNMT table: pruned, FP32 and MP. */
const std::vector<Fig14Entry> &fig14GnmtEntries();

/** Total network evaluations in one full sweep (inference+training). */
int fig14PointCount();

/**
 * One sweep point in the canonical evaluation order (CNN inference,
 * GNMT inference, CNN training, GNMT training — the order
 * fig14Report walks). `key` is the stable id ("infer/VGG16 FP32
 * dense"): point key, progress label, and the shard protocol's
 * point name. Index into this vector IS the wire point index, so the
 * coordinator and every backend must agree on one build of it.
 */
struct Fig14Point
{
    Fig14Entry entry;
    bool training;
    std::string key;
};

const std::vector<Fig14Point> &fig14Points();

/**
 * Evaluate one entry. `key` is the stable sweep-point id
 * ("infer/VGG16 FP32 dense", "train/GNMT MP pruned"): point key in
 * the bench, progress label in the daemon.
 */
using Fig14Eval = std::function<NetResult(
    const std::string &key, const Fig14Entry &e, bool training)>;

/**
 * Called after each completed evaluation with (done, total, key).
 * May throw to abort the sweep (the daemon does this on client
 * disconnect or a blown deadline); the exception propagates out of
 * fig14Report.
 */
using Fig14Progress =
    std::function<void(int done, int total, const std::string &key)>;

/**
 * Render the full Fig. 14 report. The returned text is exactly what
 * `bench_fig14` writes to stdout: four sections in evaluation order
 * (CNN inference, GNMT inference, CNN training, GNMT training) plus
 * the paper-reference line.
 */
std::string fig14Report(const Fig14Eval &eval,
                        const Fig14Progress &progress = nullptr);

} // namespace save

#endif // SAVE_DNN_FIG14_REPORT_H
