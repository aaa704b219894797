#pragma once

// Fixed-capacity scratch storage for hot paths: a temporary array of n
// elements that lives on the stack when n fits the inline capacity and
// spills to the heap only beyond it. Sized for per-launch temporaries
// (device counts, parameter slots) whose typical size is tiny.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace tp::common {

template <typename T, std::size_t N>
class SmallBuffer {
public:
  /// `n` value-initialized elements.
  explicit SmallBuffer(std::size_t n) : size_(n) {
    if (n > N) heap_.resize(n);
  }

  std::span<T> span() noexcept {
    return size_ <= N ? std::span<T>(inline_.data(), size_)
                      : std::span<T>(heap_);
  }

private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
  std::size_t size_;
};

}  // namespace tp::common
