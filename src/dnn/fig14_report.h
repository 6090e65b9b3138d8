/**
 * @file
 * The Fig. 14 sweep's point enumeration and report rendering, which
 * the fig14 SweepSpec (sweep/fig14.cc) wraps: `bench_fig14`,
 * `save-ctl fig14` and every daemon reach them through that spec.
 *
 * The acceptance bar for every remote path is byte-identity: a
 * served or sharded Fig. 14 sweep must match `bench_fig14` run
 * in-process to the byte. That only holds if every caller shares ONE
 * renderer, so the network tables, the evaluation order, and every
 * printf format live here and nowhere else. Run-dependent counters
 * (thread counts, cache hits) never enter the report — they are the
 * caller's business and belong on stderr.
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

/** Total network evaluations in one full sweep (inference+training). */
int fig14PointCount();

/**
 * One sweep point in the canonical evaluation order (CNN inference,
 * GNMT inference, CNN training, GNMT training — the order
 * fig14Report walks). `key` is the stable id ("infer/VGG16 FP32
 * dense"): point key, progress label, and the name of a served point.
 * Index into this vector IS the wire point index, so every client
 * and daemon must agree on one build of it.
 */
struct Fig14Point
{
    Fig14Entry entry;
    bool training;
    std::string key;
    /** The report section heading this point opens; null for every
     *  point after a section's first. */
    const char *heading;
};

const std::vector<Fig14Point> &fig14Points();

/**
 * Evaluate one entry. `key` is the stable sweep-point id
 * ("infer/VGG16 FP32 dense", "train/GNMT MP pruned").
 */
using Fig14Eval = std::function<NetResult(
    const std::string &key, const Fig14Entry &e, bool training)>;

/**
 * Render the full Fig. 14 report, asking `eval` for each point in
 * fig14Points() order. The returned text is exactly what
 * `bench_fig14` writes to stdout: four sections in evaluation order
 * (CNN inference, GNMT inference, CNN training, GNMT training) plus
 * the paper-reference line.
 */
std::string fig14Report(const Fig14Eval &eval);

/** The same report from results already computed: `results[i]` is
 *  point i of fig14Points(). Throws std::out_of_range when there are
 *  fewer results than points. */
std::string fig14Report(const std::vector<NetResult> &results);

} // namespace save

#endif // SAVE_DNN_FIG14_REPORT_H
