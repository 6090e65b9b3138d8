/**
 * @file
 * Fixed-capacity inline vector: a std::vector-shaped container whose
 * storage lives inside the object, for per-cycle simulator structures
 * (VPU in-flight lane writes, scheduler temps) that previously
 * heap-allocated every cycle. Capacity overflow is a simulator bug
 * (the bound is architectural, e.g. kVecLanes), so it asserts rather
 * than grows.
 */

#ifndef SAVE_UTIL_INLINE_VEC_H
#define SAVE_UTIL_INLINE_VEC_H

#include <array>
#include <cstddef>

#include "util/logging.h"

namespace save {

template <typename T, size_t N>
class InlineVec
{
  public:
    using value_type = T;

    InlineVec() = default;

    InlineVec(std::initializer_list<T> init)
    {
        for (const T &v : init)
            push_back(v);
    }

    void
    push_back(const T &v)
    {
        SAVE_ASSERT(n_ < N, "InlineVec overflow (capacity ", N, ")");
        buf_[n_++] = v;
    }

    void clear() { n_ = 0; }
    size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    static constexpr size_t capacity() { return N; }

    T *data() { return buf_.data(); }
    const T *data() const { return buf_.data(); }
    T &operator[](size_t i) { return buf_[i]; }
    const T &operator[](size_t i) const { return buf_[i]; }

    T *begin() { return buf_.data(); }
    T *end() { return buf_.data() + n_; }
    const T *begin() const { return buf_.data(); }
    const T *end() const { return buf_.data() + n_; }

  private:
    std::array<T, N> buf_{};
    size_t n_ = 0;
};

} // namespace save

#endif // SAVE_UTIL_INLINE_VEC_H
