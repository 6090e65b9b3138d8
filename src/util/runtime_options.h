/**
 * @file
 * One snapshot of every SAVE_* runtime environment knob.
 *
 * Historically each knob was read by its consumer at some arbitrary
 * point in the process lifetime (`SAVE_THREADS` in the thread pool,
 * `SAVE_ISOLATION` in the estimator constructor, `SAVE_CACHE_DIR` /
 * `SAVE_CACHE_MAX_MB` in the result store, `SAVE_WORKER_BIN` in the
 * worker spawner). That is fine for a one-shot bench binary but wrong
 * for a long-lived daemon: two sessions configured differently would
 * have to race on setenv(3), which is undefined behavior in a
 * multithreaded process.
 *
 * RuntimeOptions::fromEnv() performs one fresh, complete read of the
 * environment. Call sites that used to call getenv() now consult a
 * RuntimeOptions value instead:
 *
 *   - one-shot binaries snapshot at startup (or per resolve call,
 *     preserving the historical read-at-call-time semantics),
 *   - SimSession (src/serve/session.h) snapshots once at session
 *     creation and never reads the environment again; the daemon
 *     overrides fields per request by filling them explicitly.
 *
 * Malformed values warn and fall back to the default, matching the
 * historical behavior of each scattered call site.
 */

#ifndef SAVE_UTIL_RUNTIME_OPTIONS_H
#define SAVE_UTIL_RUNTIME_OPTIONS_H

#include <cstdint>
#include <string>

namespace save {

struct RuntimeOptions
{
    /** Worker threads for the estimator pool; 0 = one per hardware
     *  thread. Env: SAVE_THREADS. */
    int threads = 0;

    /** Slice isolation mode: "none", "thread", or "process"; "" picks
     *  the default ("thread"). Env: SAVE_ISOLATION. */
    std::string isolation;

    /** Result-store directory; "" disables the store.
     *  Env: SAVE_CACHE_DIR. */
    std::string cacheDir;

    /** Result-store size cap in MB; 0 = unlimited.
     *  Env: SAVE_CACHE_MAX_MB. */
    int cacheMaxMb = 0;

    /** Explicit save-worker binary; "" = discover next to the current
     *  executable. Env: SAVE_WORKER_BIN. */
    std::string workerBin;

    /**
     * Fresh, complete read of the environment. Deliberately NOT a
     * cached singleton: one-shot tools keep their read-at-call-time
     * semantics, and the tests that setenv() then resolve still see
     * the update. Long-lived code must call this once and keep the
     * snapshot.
     */
    static RuntimeOptions fromEnv();

    /** `threads` resolved against the hardware: >= 1 always. */
    int resolveThreads() const;

    /** `isolation` resolved and validated ("" -> "thread"); throws
     *  ConfigError on an unknown mode. */
    std::string resolveIsolation() const;

    /** `cacheMaxMb` as a byte count; 0 = unlimited. */
    uint64_t cacheMaxBytes() const;
};

} // namespace save

#endif // SAVE_UTIL_RUNTIME_OPTIONS_H
