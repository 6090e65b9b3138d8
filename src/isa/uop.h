/**
 * @file
 * Micro-op definitions for the simulated vector back-end.
 *
 * The trace feeder supplies a stream of these; the core renames and
 * executes them. The ISA is an AVX-512-shaped subset: FP32 VFMAs,
 * BF16/FP32 mixed-precision VFMAs (VDPBF16PS), explicit broadcasts,
 * vector loads/stores, and a generic single-cycle ALU op used for
 * address arithmetic and loop overhead.
 */

#ifndef SAVE_ISA_UOP_H
#define SAVE_ISA_UOP_H

#include <cstdint>
#include <string>

namespace save {

/** Number of logical (architectural) vector registers, as in AVX-512. */
constexpr int kLogicalVecRegs = 32;
/** Number of logical mask registers (k0-k7). */
constexpr int kLogicalMaskRegs = 8;

/** Micro-op kinds. */
enum class Opcode : uint8_t {
    /** FP32 VFMA: dst = srcC + srcA * srcB, all register operands. */
    VfmaPs,
    /** FP32 VFMA with embedded broadcast: srcA = bcast(mem[addr]). */
    VfmaPsBcast,
    /** Mixed-precision VFMA: FP32 dst accumulates BF16 pair dots. */
    Vdpbf16Ps,
    /** Mixed-precision VFMA with 32-bit embedded broadcast operand. */
    Vdpbf16PsBcast,
    /** Explicit broadcast load: dst = bcast(mem[addr]) (VBROADCASTSS). */
    BroadcastLoad,
    /** Full 64B vector load: dst = mem[addr .. addr+63]. */
    LoadVec,
    /** Full 64B vector store: mem[addr .. addr+63] = srcC. */
    StoreVec,
    /** Generic one-cycle scalar/ALU op with no register semantics. */
    Alu,
    /** Write an immediate into a logical mask register (KMOVW imm). */
    SetMask,
};

/** One micro-operation in the trace. */
struct Uop
{
    Opcode op = Opcode::Alu;

    /** Logical destination vector register, -1 if none. */
    int8_t dst = -1;
    /** Multiplicand A register; -1 when it is the memory operand. */
    int8_t srcA = -1;
    /** Multiplicand B register. */
    int8_t srcB = -1;
    /** Accumulator input register (VFMA) or store data (StoreVec). */
    int8_t srcC = -1;
    /** AVX-512 write-mask register, -1 when unmasked. */
    int8_t wmask = -1;

    /** Memory operand address (broadcast element or line start). */
    uint64_t addr = 0;
    /** Immediate for SetMask. */
    uint16_t maskImm = 0;

    bool
    isVfma() const
    {
        return op == Opcode::VfmaPs || op == Opcode::VfmaPsBcast ||
               op == Opcode::Vdpbf16Ps || op == Opcode::Vdpbf16PsBcast;
    }
    /** True for the mixed-precision (BF16) VFMA forms. */
    bool
    isMixedPrecision() const
    {
        return op == Opcode::Vdpbf16Ps || op == Opcode::Vdpbf16PsBcast;
    }
    /** True when the uop reads memory. */
    bool
    isLoad() const
    {
        return op == Opcode::BroadcastLoad || op == Opcode::LoadVec ||
               hasEmbeddedBroadcast();
    }
    /** True when srcA comes from memory via an embedded broadcast. */
    bool
    hasEmbeddedBroadcast() const
    {
        return op == Opcode::VfmaPsBcast || op == Opcode::Vdpbf16PsBcast;
    }

    std::string toString() const;

    /** Convenience constructors ------------------------------------- */

    static Uop vfma(int dst, int a, int b, int wmask = -1);
    static Uop vfmaBcast(int dst, uint64_t addr, int b, int wmask = -1);
    static Uop vdp(int dst, int a, int b, int wmask = -1);
    static Uop vdpBcast(int dst, uint64_t addr, int b, int wmask = -1);
    static Uop broadcastLoad(int dst, uint64_t addr);
    static Uop loadVec(int dst, uint64_t addr);
    static Uop storeVec(int src, uint64_t addr);
    static Uop alu();
    static Uop setMask(int kreg, uint16_t imm);
};

// The constructors are inline: a kernel emitter builds each uop in
// place instead of copying it out of a call.

inline Uop
Uop::vfma(int dst, int a, int b, int wmask)
{
    Uop u;
    u.op = Opcode::VfmaPs;
    u.dst = static_cast<int8_t>(dst);
    u.srcA = static_cast<int8_t>(a);
    u.srcB = static_cast<int8_t>(b);
    u.srcC = static_cast<int8_t>(dst);
    u.wmask = static_cast<int8_t>(wmask);
    return u;
}

inline Uop
Uop::vfmaBcast(int dst, uint64_t addr, int b, int wmask)
{
    Uop u;
    u.op = Opcode::VfmaPsBcast;
    u.dst = static_cast<int8_t>(dst);
    u.srcB = static_cast<int8_t>(b);
    u.srcC = static_cast<int8_t>(dst);
    u.wmask = static_cast<int8_t>(wmask);
    u.addr = addr;
    return u;
}

inline Uop
Uop::vdp(int dst, int a, int b, int wmask)
{
    Uop u = vfma(dst, a, b, wmask);
    u.op = Opcode::Vdpbf16Ps;
    return u;
}

inline Uop
Uop::vdpBcast(int dst, uint64_t addr, int b, int wmask)
{
    Uop u = vfmaBcast(dst, addr, b, wmask);
    u.op = Opcode::Vdpbf16PsBcast;
    return u;
}

inline Uop
Uop::broadcastLoad(int dst, uint64_t addr)
{
    Uop u;
    u.op = Opcode::BroadcastLoad;
    u.dst = static_cast<int8_t>(dst);
    u.addr = addr;
    return u;
}

inline Uop
Uop::loadVec(int dst, uint64_t addr)
{
    Uop u;
    u.op = Opcode::LoadVec;
    u.dst = static_cast<int8_t>(dst);
    u.addr = addr;
    return u;
}

inline Uop
Uop::storeVec(int src, uint64_t addr)
{
    Uop u;
    u.op = Opcode::StoreVec;
    u.srcC = static_cast<int8_t>(src);
    u.addr = addr;
    return u;
}

inline Uop
Uop::alu()
{
    return Uop{};
}

inline Uop
Uop::setMask(int kreg, uint16_t imm)
{
    Uop u;
    u.op = Opcode::SetMask;
    u.wmask = static_cast<int8_t>(kreg);
    u.maskImm = imm;
    return u;
}

/** Abstract uop stream: what a core fetches from. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Produce the next uop; false when the trace is exhausted. */
    virtual bool next(Uop &u) = 0;
};

} // namespace save

#endif // SAVE_ISA_UOP_H
