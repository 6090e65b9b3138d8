#include "sim/regfile.h"

#include "util/logging.h"

namespace save {

PhysRegFile::PhysRegFile(int num_regs) : num_regs_(num_regs)
{
    regs_.resize(static_cast<size_t>(num_regs));
    free_.reserve(static_cast<size_t>(num_regs));
    for (int i = num_regs - 1; i >= 0; --i)
        free_.push_back(i);
}

int
PhysRegFile::alloc()
{
    if (free_.empty())
        return kNoReg;
    int idx = free_.back();
    free_.pop_back();
    regs_[static_cast<size_t>(idx)].ready = 0;
    return idx;
}

void
PhysRegFile::release(int idx)
{
    SAVE_ASSERT(idx >= 0 && idx < num_regs_, "bad phys reg ", idx);
    free_.push_back(idx);
}

} // namespace save
