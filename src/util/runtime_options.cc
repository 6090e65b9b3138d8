#include "util/runtime_options.h"

#include <cstdlib>
#include <thread>

#include "util/error.h"
#include "util/logging.h"

namespace save {

namespace {

std::string
envStr(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "";
}

/** Positive-integer knob: malformed or non-positive values warn and
 *  yield `fallback`, matching the historical per-site behavior. */
int
envPosInt(const char *name, int fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    long n = std::strtol(v, &end, 10);
    if (end && *end == '\0' && n > 0 && n <= INT32_MAX)
        return static_cast<int>(n);
    SAVE_WARN("ignoring bad ", name, " value '", v,
              "' (expects a positive integer)");
    return fallback;
}

} // namespace

RuntimeOptions
RuntimeOptions::fromEnv()
{
    RuntimeOptions o;
    o.threads = envPosInt("SAVE_THREADS", 0);
    o.isolation = envStr("SAVE_ISOLATION");
    o.cacheDir = envStr("SAVE_CACHE_DIR");
    o.cacheMaxMb = envPosInt("SAVE_CACHE_MAX_MB", 0);
    o.workerBin = envStr("SAVE_WORKER_BIN");
    o.simd = envStr("SAVE_SIMD");
    return o;
}

int
RuntimeOptions::resolveThreads() const
{
    if (threads >= 1)
        return threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

std::string
RuntimeOptions::resolveIsolation() const
{
    std::string mode = isolation.empty() ? "thread" : isolation;
    if (mode != "none" && mode != "thread" && mode != "process")
        throw ConfigError("isolation mode must be none, thread, or "
                          "process (got '" + mode + "')");
    return mode;
}

uint64_t
RuntimeOptions::cacheMaxBytes() const
{
    return cacheMaxMb > 0 ? static_cast<uint64_t>(cacheMaxMb) << 20 : 0;
}

} // namespace save
