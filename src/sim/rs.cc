#include "sim/rs.h"

#include "util/error.h"
#include "util/logging.h"

namespace save {

Rs::Rs(int entries) : capacity_(entries)
{
    slots_.resize(static_cast<size_t>(entries));
    nodes_.resize(static_cast<size_t>(entries));
    free_.reserve(static_cast<size_t>(entries));
    for (int i = entries - 1; i >= 0; --i)
        free_.push_back(i);
}

int
Rs::push(RsEntry e)
{
    int idx = allocEntry();
    e.valid = true;
    slots_[static_cast<size_t>(idx)] = e;
    return idx;
}

int
Rs::allocEntry()
{
    if (free_.empty())
        throw ConfigError("RS overflow: push into a full " +
                          std::to_string(capacity_) +
                          "-entry RS (allocator back-pressure bypassed)");
    int idx = free_.back();
    free_.pop_back();
    RsEntry &e = slots_[static_cast<size_t>(idx)];
    e = RsEntry{};
    e.valid = true;
    linkAfter(age_, &Node::age, age_.tail, idx);
    ++size_;
    return idx;
}

void
Rs::release(int idx)
{
    SAVE_ASSERT(slots_[static_cast<size_t>(idx)].valid,
                "releasing an invalid RS slot");
    slots_[static_cast<size_t>(idx)].valid = false;

    Node &n = nodes_[static_cast<size_t>(idx)];
    unlink(age_, &Node::age, idx);
    if (n.list == kPendingList || n.list == kIssuableList)
        unlink(sub_[n.list], &Node::sub, idx);
    n.list = kNoList;
    if (n.onPass)
        removePass(idx);
    free_.push_back(idx);
    --size_;
}

void
Rs::addPending(int idx)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    SAVE_ASSERT(n.list == kNoList, "RS entry already on a sublist");
    n.list = kPendingList;
    linkBySeq(sub_[kPendingList], &Node::sub, idx);
}

void
Rs::promote(int idx, bool select)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    SAVE_ASSERT(n.list == kPendingList,
                "promoting an RS entry that is not pending");
    unlink(sub_[kPendingList], &Node::sub, idx);
    if (!select) {
        n.list = kOffSelect;
        return;
    }
    n.list = kIssuableList;
    linkBySeq(sub_[kIssuableList], &Node::sub, idx);
}

void
Rs::addPass(int idx)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    SAVE_ASSERT((n.list == kIssuableList || n.list == kOffSelect) &&
                    !n.onPass,
                "pass list takes entries with an ELM once");
    n.onPass = true;
    linkBySeq(pass_, &Node::pass, idx);
}

void
Rs::removePass(int idx)
{
    Node &n = nodes_[static_cast<size_t>(idx)];
    SAVE_ASSERT(n.onPass, "RS entry is not on the pass list");
    n.onPass = false;
    unlink(pass_, &Node::pass, idx);
}

std::vector<int>
Rs::order() const
{
    std::vector<int> out;
    out.reserve(static_cast<size_t>(size_));
    for (int i = first(); i != kEnd; i = next(i))
        out.push_back(i);
    return out;
}

void
Rs::linkAfter(List &l, Link Node::*field, int after, int idx)
{
    Link &n = nodes_[static_cast<size_t>(idx)].*field;
    n.prev = after;
    int &succ = after == kEnd
        ? l.head
        : (nodes_[static_cast<size_t>(after)].*field).next;
    n.next = succ;
    if (succ != kEnd)
        (nodes_[static_cast<size_t>(succ)].*field).prev = idx;
    else
        l.tail = idx;
    succ = idx;
    ++l.size;
}

void
Rs::linkBySeq(List &l, Link Node::*field, int idx)
{
    // Walk back from the tail: wakeups and ELMs arrive in rough age
    // order, so the walk is almost always empty.
    const uint64_t seq = slots_[static_cast<size_t>(idx)].seq;
    int after = l.tail;
    while (after != kEnd && slots_[static_cast<size_t>(after)].seq > seq)
        after = (nodes_[static_cast<size_t>(after)].*field).prev;
    linkAfter(l, field, after, idx);
}

void
Rs::unlink(List &l, Link Node::*field, int idx)
{
    Link &n = nodes_[static_cast<size_t>(idx)].*field;
    if (n.prev != kEnd)
        (nodes_[static_cast<size_t>(n.prev)].*field).next = n.next;
    else
        l.head = n.next;
    if (n.next != kEnd)
        (nodes_[static_cast<size_t>(n.next)].*field).prev = n.prev;
    else
        l.tail = n.prev;
    n.prev = n.next = kEnd;
    --l.size;
}

} // namespace save
