#include "kernels/sparsetrain.h"

#include <array>

#include "isa/bf16.h"
#include "util/logging.h"

namespace save {

namespace {

/** True if the 32-bit broadcast word is (signed-)zero in every
 *  element it carries: one FP32 scalar, or a BF16 pair (shared
 *  zero-test helpers from isa/bf16.h, same tests util/simd.h
 *  applies per register). */
bool
broadcastIsZero(uint32_t word, Precision prec)
{
    if (prec == Precision::Bf16)
        return bf16PairIsZero(word);
    return f32BitsAreZero(word);
}

} // namespace

GemmWorkload
buildSparseTrainGemm(const GemmConfig &cfg, MemoryImage &mem,
                     int check_uops)
{
    GemmConfig g = cfg;
    // The software scheme tests the scalar in a register, so the
    // kernel must use the explicit-broadcast pattern.
    g.pattern = BroadcastPattern::Explicit;
    GemmWorkload w = buildGemm(g, mem);

    std::array<bool, kLogicalVecRegs> reg_is_zero{};
    std::vector<Uop> out;
    out.reserve(w.trace.size());
    for (const Uop &u : w.trace) {
        if (u.op == Opcode::BroadcastLoad) {
            out.push_back(u);
            // Compare + conditional branch (perfectly predicted).
            for (int i = 0; i < check_uops; ++i)
                out.push_back(Uop::alu());
            reg_is_zero[static_cast<size_t>(u.dst)] =
                broadcastIsZero(mem.readU32(u.addr), g.precision);
            continue;
        }
        if (u.isVfma() && u.srcA >= 0 &&
            reg_is_zero[static_cast<size_t>(u.srcA)]) {
            continue; // branched around in software
        }
        out.push_back(u);
    }
    w.trace = std::move(out);
    w.cfg = g;
    return w;
}

} // namespace save
