/**
 * @file
 * Content-addressed keys for persistent simulation results.
 *
 * A CasKey names one simulation outcome with two 64-bit FNV-1a
 * digests:
 *
 *  - `cfg`: everything *outside* the workload that shifts results —
 *    every MachineConfig and SaveConfig field plus a caller salt
 *    (estimator seed/tiles/cores, or 0 for raw Engine runs). This is
 *    the same digest the `.savtrc` trace header carries, computed by
 *    casHashConfig().
 *  - `wl`: the workload identity — either an estimator surface point
 *    (SliceKey: micro-kernel shape, pattern, precision, SAVE on/off,
 *    VPU count, sparsity bins) or a raw GEMM slice (GemmConfig plus
 *    cores/vpus for Engine-driven benches).
 *
 * Both digests are serialized field-by-field, never via raw structs,
 * so padding bytes and ABI layout can never leak into the key: the
 * same configuration hashes identically across runs and build
 * modes.
 *
 * A CasValue is the one record of a slice outcome, with one codec:
 * the store's record payload (cache/result_store.h), a sandboxed
 * worker's RES reply (proc/wire_codec.h) and a served Gemm's SRES
 * reply (serve/protocol.h) all carry casEncodeValue's bytes.
 */

#ifndef SAVE_CACHE_CAS_KEY_H
#define SAVE_CACHE_CAS_KEY_H

#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "kernels/gemm.h"
#include "sim/config.h"

namespace save {

/** One estimator surface point: micro-kernel shape plus binned
 *  sparsities. This is the estimator's cache key
 *  (TrainingEstimator::Key) and the slice a sandboxed worker runs. */
struct SliceKey
{
    int mr, nr, kSteps;
    uint8_t pattern, precision, saveOn, vpus, wBin, aBin;
    auto operator<=>(const SliceKey &) const = default;
};

/** Identity of one cached simulation result. */
struct CasKey
{
    uint64_t cfg = 0; ///< configuration digest (casHashConfig)
    uint64_t wl = 0;  ///< workload digest (slice/gemm hash below)

    auto operator<=>(const CasKey &) const = default;
};

/** One simulated slice outcome: time, cycles, core frequency and the
 *  full stat map, so a stored or shipped result is bit-identical to
 *  the run it came from. `stats` is sorted by name (the StatGroup
 *  iteration order) and round-trips raw f64 bits. */
struct CasValue
{
    double timeNs = 0;
    uint64_t cycles = 0;
    double coreGhz = 0;
    std::vector<std::pair<std::string, double>> stats;
};

/** Append the value codec's bytes, all little-endian:
 *  f64 timeNs, u64 cycles, f64 coreGhz, u32 nStats,
 *  nStats x (u32 nameLen, name, f64 value). */
void casEncodeValue(std::vector<uint8_t> &out, const CasValue &v);

/** Decode a value that fills [p, end) exactly. Throws TraceError on a
 *  short payload, a stat count the payload cannot hold, or trailing
 *  bytes. */
CasValue casDecodeValue(const uint8_t *p, const uint8_t *end);

/** FNV-1a running hash; fed field-by-field, never via raw structs. */
class CasHasher
{
  public:
    template <typename T>
    void
    mix(T value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Digest of every MachineConfig/SaveConfig field plus `salt` (caller
 * knobs outside the structs that shift results).
 */
uint64_t casHashConfig(const MachineConfig &mcfg, const SaveConfig &scfg,
                       uint64_t salt);

/** Workload digest of one estimator surface point. */
uint64_t casSliceWorkload(const SliceKey &key);

/** Workload digest of one raw Engine::runGemm invocation. */
uint64_t casGemmWorkload(const GemmConfig &g, int cores, int vpus);

} // namespace save

#endif // SAVE_CACHE_CAS_KEY_H
