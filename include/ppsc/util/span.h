// Read-only view of a contiguous run of elements (a C++17 stand-in for
// std::span<const T>): what flat containers hand out instead of
// per-element vectors.

#ifndef PPSC_UTIL_SPAN_H
#define PPSC_UTIL_SPAN_H

#include <cstddef>

namespace ppsc {
namespace util {

template <typename T>
class Span {
 public:
  Span(const T* first, const T* last) : first_(first), last_(last) {}

  const T* begin() const { return first_; }
  const T* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  const T& operator[](std::size_t i) const { return first_[i]; }

 private:
  const T* first_;
  const T* last_;
};

}  // namespace util
}  // namespace ppsc

#endif  // PPSC_UTIL_SPAN_H
