#pragma once

// Host-side buffer storage for the virtual OpenCL runtime (vcl::).
//
// Buffers always live in host memory; "transfers" to a device are simulated
// for timing, and in Compute mode each device receives a bounds-restricted
// view (view.hpp) of exactly the slice the partitioning assigned to it —
// so a kernel that touches memory outside its assigned slice fails loudly
// instead of silently reading another device's data.
//
// Contents are lazy. A buffer is a zero buffer or carries a replayable
// generator; no storage exists until the first data()/at()/fill()/
// toVector()/zero(), which allocates and fills it exactly once under
// std::call_once (concurrent first touches see the same bytes and the
// generator runs once). size()/bytes() never materialize, so TimeOnly
// execution — which reads only sizes — never pays for contents.
// initial<T>() replays the generator into a fresh vector: the buffer's
// pre-execution contents, even after a kernel has written the buffer.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace tp::vcl {

enum class ElemKind { F32, I32, U32 };

inline const char* elemKindName(ElemKind k) {
  switch (k) {
    case ElemKind::F32: return "f32";
    case ElemKind::I32: return "i32";
    case ElemKind::U32: return "u32";
  }
  return "?";
}

class Buffer {
public:
  /// Writes a buffer's initial contents into exactly bytes() bytes. Must be
  /// replayable: every call writes the same bytes.
  using Generator = std::function<void(std::span<std::byte>)>;

  /// Zero buffer.
  Buffer(ElemKind kind, std::size_t elements)
      : kind_(kind), elements_(elements) {}

  /// Buffer whose contents the generator writes on first read.
  Buffer(ElemKind kind, std::size_t elements, Generator generator)
      : kind_(kind), elements_(elements), generator_(std::move(generator)) {}

  ElemKind kind() const noexcept { return kind_; }
  std::size_t size() const noexcept { return elements_; }
  std::size_t bytes() const noexcept { return elements_ * 4; }

  /// Whether storage exists yet. A plain read, not synchronized with a
  /// concurrent first touch: for tests and single-threaded observers.
  bool materialized() const noexcept { return storage_ != nullptr; }

  template <typename T>
  T* data() {
    checkType<T>();
    return reinterpret_cast<T*>(storage());
  }

  template <typename T>
  const T* data() const {
    checkType<T>();
    return reinterpret_cast<const T*>(storage());
  }

  template <typename T>
  T& at(std::size_t i) {
    TP_ASSERT_MSG(i < elements_, "buffer index " << i << " >= " << elements_);
    return data<T>()[i];
  }

  template <typename T>
  const T& at(std::size_t i) const {
    TP_ASSERT_MSG(i < elements_, "buffer index " << i << " >= " << elements_);
    return data<T>()[i];
  }

  template <typename T>
  void fill(const std::vector<T>& values) {
    TP_REQUIRE(values.size() == elements_,
               "Buffer::fill size mismatch: " << values.size() << " vs "
                                              << elements_);
    std::copy(values.begin(), values.end(), data<T>());
  }

  template <typename T>
  std::vector<T> toVector() const {
    const T* begin = data<T>();
    return std::vector<T>(begin, begin + elements_);
  }

  /// The contents before any execution: the generator replayed into a
  /// fresh vector (zeros for a zero buffer). Never materializes.
  template <typename T>
  std::vector<T> initial() const {
    checkType<T>();
    std::vector<T> out(elements_);
    if (generator_) generator_(std::as_writable_bytes(std::span<T>(out)));
    return out;
  }

  void zero() { std::fill_n(storage(), bytes(), std::byte{0}); }

private:
  template <typename T>
  void checkType() const {
    static_assert(sizeof(T) == 4, "vcl buffers hold 4-byte elements");
    const bool ok = (std::is_same_v<T, float> && kind_ == ElemKind::F32) ||
                    (std::is_same_v<T, int> && kind_ == ElemKind::I32) ||
                    (std::is_same_v<T, unsigned> && kind_ == ElemKind::U32);
    TP_ASSERT_MSG(ok, "buffer type mismatch: buffer holds "
                          << elemKindName(kind_));
  }

  /// Allocates and fills the storage on first call; later calls only
  /// return it. A throwing generator leaves the buffer unmaterialized.
  std::byte* storage() const {
    std::call_once(once_, [this] {
      const std::size_t n = bytes();
      if (!generator_) {
        storage_ = std::make_unique<std::byte[]>(n);
        return;
      }
      auto fresh = std::make_unique_for_overwrite<std::byte[]>(n);
      generator_(std::span<std::byte>(fresh.get(), n));
      storage_ = std::move(fresh);
    });
    return storage_.get();
  }

  ElemKind kind_;
  std::size_t elements_;
  Generator generator_;
  mutable std::once_flag once_;
  mutable std::unique_ptr<std::byte[]> storage_;
};

}  // namespace tp::vcl
