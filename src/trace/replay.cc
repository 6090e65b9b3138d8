#include "trace/replay.h"

#include <cstdio>
#include <memory>
#include <vector>

#include "mem/memory_image.h"
#include "sim/multicore.h"
#include "trace/trace_reader.h"

namespace save {

ReplayOutcome
replayTrace(const TraceReader &reader, EventTraceSession *etrace,
            MemoryImage *finalImage)
{
    const MachineConfig &mc = reader.machineConfig();
    MemoryImage image = reader.buildImage();

    Multicore machine(mc, reader.saveConfig(), reader.vpus(), &image);
    if (etrace)
        machine.attachEventTrace(etrace);

    // Repeat the recorded warm-up line-for-line before binding any
    // uops, exactly as the live kernel runs warmup() before run().
    for (int c = 0; c < reader.cores(); ++c)
        machine.hierarchy().warmL3(reader.warmRanges(c));

    std::vector<std::unique_ptr<TraceFileSource>> sources;
    std::vector<TraceSource *> srcs;
    for (int c = 0; c < reader.cores(); ++c) {
        sources.push_back(std::make_unique<TraceFileSource>(reader, c));
        srcs.push_back(sources.back().get());
    }
    machine.bindTraces(srcs);

    ReplayOutcome out;
    out.name = reader.kernelName();
    out.cycles = machine.run();
    out.coreGhz = mc.coreFreqGhz(reader.vpus());
    out.timeNs = static_cast<double>(out.cycles) / out.coreGhz;
    out.stats = machine.aggregateStats();

    out.hasRecorded = reader.hasResult();
    if (out.hasRecorded) {
        out.recordedCycles = reader.recordedCycles();
        out.recordedStats = reader.recordedStats();
    }
    if (finalImage)
        *finalImage = std::move(image);
    return out;
}

ReplayOutcome
replayTrace(const std::string &path, EventTraceSession *etrace,
            MemoryImage *finalImage)
{
    TraceReader reader(path);
    return replayTrace(reader, etrace, finalImage);
}

std::string
replayCheck(const ReplayOutcome &out)
{
    if (!out.hasRecorded)
        return "trace has no recorded result (RES chunk) to check "
               "against";

    std::string diff;
    int mismatches = 0;
    auto report = [&](const std::string &line) {
        if (++mismatches <= 8)
            diff += (diff.empty() ? "" : "\n") + line;
    };

    if (out.cycles != out.recordedCycles) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "cycles: replay %llu != recorded %llu",
                      static_cast<unsigned long long>(out.cycles),
                      static_cast<unsigned long long>(out.recordedCycles));
        report(buf);
    }

    const auto &got = out.stats.all();
    const auto &want = out.recordedStats;
    for (const auto &kv : want) {
        auto it = got.find(kv.first);
        if (it == got.end()) {
            report("stat " + kv.first + ": missing from replay");
        } else if (it->second != kv.second) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), ": replay %.17g != recorded %.17g",
                          it->second, kv.second);
            report("stat " + kv.first + buf);
        }
    }
    for (const auto &kv : got) {
        if (!want.count(kv.first))
            report("stat " + kv.first + ": missing from recording");
    }

    if (mismatches > 8)
        diff += "\n... and " + std::to_string(mismatches - 8) +
                " more mismatches";
    return diff;
}

} // namespace save
