#include "isa/uop.h"

#include <sstream>

namespace save {

std::string
Uop::toString() const
{
    static const char *names[] = {
        "vfmaps", "vfmaps.bcast", "vdpbf16ps", "vdpbf16ps.bcast",
        "vbroadcast", "vload", "vstore", "alu", "kmovw",
    };
    std::ostringstream os;
    os << names[static_cast<int>(op)];
    if (dst >= 0)
        os << " zmm" << int(dst);
    if (srcA >= 0)
        os << ", zmm" << int(srcA);
    else if (isLoad())
        os << ", [0x" << std::hex << addr << std::dec << "]";
    if (srcB >= 0)
        os << ", zmm" << int(srcB);
    if (wmask >= 0)
        os << " {k" << int(wmask) << "}";
    return os.str();
}

} // namespace save
