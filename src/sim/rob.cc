#include "sim/rob.h"

#include "util/logging.h"

namespace save {

Rob::Rob(int entries) : capacity_(entries)
{
    buf_.resize(static_cast<size_t>(entries));
}

int
Rob::push(RobEntry e)
{
    SAVE_ASSERT(!full(), "ROB overflow");
    int idx = tail_;
    e.valid = true;
    buf_[static_cast<size_t>(idx)] = e;
    tail_ = (tail_ + 1) % capacity_;
    ++count_;
    return idx;
}

int
Rob::allocEntry()
{
    SAVE_ASSERT(!full(), "ROB overflow");
    int idx = tail_;
    RobEntry &e = buf_[static_cast<size_t>(idx)];
    e = RobEntry{};
    e.valid = true;
    tail_ = (tail_ + 1) % capacity_;
    ++count_;
    return idx;
}

RobEntry
Rob::pop()
{
    SAVE_ASSERT(!empty(), "ROB underflow");
    RobEntry e = buf_[static_cast<size_t>(head_)];
    SAVE_ASSERT(e.done, "committing an incomplete entry");
    buf_[static_cast<size_t>(head_)].valid = false;
    head_ = (head_ + 1) % capacity_;
    --count_;
    return e;
}

void
Rob::popHead()
{
    SAVE_ASSERT(!empty(), "ROB underflow");
    RobEntry &e = buf_[static_cast<size_t>(head_)];
    SAVE_ASSERT(e.done, "committing an incomplete entry");
    e.valid = false;
    head_ = (head_ + 1) % capacity_;
    --count_;
}

void
Rob::clear()
{
    for (int i = 0; i < count_; ++i)
        buf_[static_cast<size_t>(indexFromHead(i))].valid = false;
    tail_ = head_;
    count_ = 0;
}

bool
Rob::markDone(int idx)
{
    RobEntry &e = buf_[static_cast<size_t>(idx)];
    SAVE_ASSERT(e.valid, "completing an invalid entry");
    bool was_done = e.done;
    e.done = true;
    return !was_done;
}

} // namespace save
