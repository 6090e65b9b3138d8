/**
 * @file
 * Content-addressed keys for persistent simulation results.
 *
 * A CasKey names one simulation outcome with two 64-bit FNV-1a
 * digests:
 *
 *  - `cfg`: everything *outside* the workload that shifts results —
 *    every MachineConfig and SaveConfig field plus a caller salt (0
 *    for every stored slice). This is the same digest the `.savtrc`
 *    trace header carries, computed by casHashConfig().
 *  - `wl`: the workload identity — the GemmConfig, cores and VPUs of
 *    one Engine::runGemm invocation. casSliceKey() keys every stored
 *    slice, a sweep's, a served request's or the estimator's, by its
 *    SliceRequest.
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

/** One estimator surface point: micro-kernel shape, configuration
 *  and binned sparsities; the estimator's in-memory cache key
 *  (TrainingEstimator::Key). sliceRequest() names its slice. */
struct SliceKey
{
    int mr, nr, kSteps;
    uint8_t pattern, precision, saveOn, vpus, wBin, aBin;
    auto operator<=>(const SliceKey &) const = default;
};

/** One slice: the inputs of Engine::runGemm. Trivially copyable: it
 *  travels as raw bytes in a sandboxed worker's REQ frame. */
struct SliceRequest
{
    MachineConfig mcfg{};
    SaveConfig scfg{};
    GemmConfig gemm{};
    int cores = 1;
    int vpus = 2;
};

/**
 * The slice surface point `key` simulates at `tiles` tiles on `cores`
 * cores: its shape, its bins' sparsities and a seed offset per bin, on
 * `mcfg` with `save_on` (SaveConfig::baseline() when key.saveOn is 0)
 * and key.vpus VPUs. The configuration does not enter the GEMM, so a
 * point's configurations simulate the same data.
 */
SliceRequest sliceRequest(const MachineConfig &mcfg,
                          const SaveConfig &save_on, const SliceKey &key,
                          int tiles, int cores, uint64_t seed);

/** Identity of one cached simulation result. */
struct CasKey
{
    uint64_t cfg = 0; ///< configuration digest (casHashConfig)
    uint64_t wl = 0;  ///< workload digest (casGemmWorkload)

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

/** Workload digest of one raw Engine::runGemm invocation. */
uint64_t casGemmWorkload(const GemmConfig &g, int cores, int vpus);

/** The store key of `r`: casHashConfig(r.mcfg, r.scfg, 0) and
 *  casGemmWorkload(r.gemm, r.cores, r.vpus). */
CasKey casSliceKey(const SliceRequest &r);

} // namespace save

#endif // SAVE_CACHE_CAS_KEY_H
