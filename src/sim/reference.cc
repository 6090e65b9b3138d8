#include "sim/reference.h"

#include "isa/bf16.h"
#include "mem/memory_image.h"
#include "util/logging.h"
#include "util/simd.h"

namespace save {

void
ArchExecutor::run(const std::vector<Uop> &uops)
{
    for (const Uop &u : uops)
        exec(u);
}

void
ArchExecutor::exec(const Uop &u)
{
    switch (u.op) {
      case Opcode::Alu:
        return;
      case Opcode::SetMask:
        masks_[static_cast<size_t>(u.wmask)] = u.maskImm;
        return;
      case Opcode::BroadcastLoad:
        regs_[static_cast<size_t>(u.dst)] =
            VecReg::broadcastWord(image_->readU32(u.addr));
        return;
      case Opcode::LoadVec:
        regs_[static_cast<size_t>(u.dst)] = image_->readLine(u.addr);
        return;
      case Opcode::StoreVec:
        image_->writeLine(u.addr, regs_[static_cast<size_t>(u.srcC)]);
        return;
      default:
        break;
    }

    SAVE_ASSERT(u.isVfma(), "unhandled opcode in reference executor");
    VecReg a = u.hasEmbeddedBroadcast()
                   ? VecReg::broadcastWord(image_->readU32(u.addr))
                   : regs_[static_cast<size_t>(u.srcA)];
    const VecReg &b = regs_[static_cast<size_t>(u.srcB)];
    VecReg &c = regs_[static_cast<size_t>(u.dst)];
    uint16_t wm =
        u.wmask >= 0 ? masks_[static_cast<size_t>(u.wmask)] : 0xffffu;

    // Whole-register MAC through the lane helpers the pipeline uses;
    // masked lanes keep the accumulator value bit-exactly, and the
    // zero-skip semantics are identical to the MGU's (util/simd.h).
    if (u.isMixedPrecision())
        c = simd::bf16MacSkipVec(a, b, c, simd::expandMask16to32(wm));
    else
        c = simd::macSkipF32Vec(a, b, c, wm);
}

} // namespace save
