#pragma once

// Shared helpers for benchmark definitions: deterministic input generation
// and result verification.
//
// Generated inputs are lazy (see vcl::Buffer): a factory records where its
// RNG stream stood and moves the stream past the buffer's draws, and the
// buffer replays those draws when something first reads its contents.
// TimeOnly execution reads only sizes, so it never generates a byte.
// Moving the stream past a buffer is an O(log n) jump (Rng::discard) for
// float inputs, which take one raw draw per element. Integer inputs use
// rejection sampling (Rng::range), so their draw count depends on the data
// and the stream steps through them; a factory's last input takes the
// stream by rvalue and moves it nowhere.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "ocl/buffer.hpp"

namespace tp::suite {

/// Deterministic per-benchmark seed derived from (name, problem size).
std::uint64_t instanceSeed(const std::string& name, std::size_t n);

/// A buffer whose element i is draw(stream, i), generated on first read by
/// replaying `stream` from where it stands now. Nothing else draws from the
/// stream afterwards, so it is not advanced. `draw` must depend only on the
/// generator state and the index.
template <typename T, typename Draw>
std::shared_ptr<vcl::Buffer> generatedBuffer(vcl::ElemKind kind, std::size_t n,
                                             common::Rng&& stream, Draw draw) {
  return std::make_shared<vcl::Buffer>(
      kind, n, [start = stream, n, draw](std::span<std::byte> bytes) {
        TP_ASSERT(bytes.size() == n * sizeof(T));
        common::Rng replay = start;
        T* out = reinterpret_cast<T*>(bytes.data());
        for (std::size_t i = 0; i < n; ++i) out[i] = draw(replay, i);
      });
}

/// As above, replaying a copy of `rng`, and `rng` itself is advanced now
/// past the buffer's n draws, so every later draw of the caller is exactly
/// what it would be had the buffer been filled eagerly. A floating-point
/// draw must take exactly one raw draw (as Rng::uniform does): `rng` jumps
/// with discard(n). Integer draws may reject and redraw (Rng::range), so
/// `rng` steps through the same n draws (results discarded).
template <typename T, typename Draw>
std::shared_ptr<vcl::Buffer> generatedBuffer(vcl::ElemKind kind, std::size_t n,
                                             common::Rng& rng, Draw draw) {
  auto buffer = generatedBuffer<T>(kind, n, common::Rng(rng), draw);
  if constexpr (std::is_floating_point_v<T>) {
    rng.discard(n);
  } else {
    for (std::size_t i = 0; i < n; ++i) static_cast<void>(draw(rng, i));
  }
  return buffer;
}

/// Uniform floats in [lo, hi) / uniform ints in [lo, hi], via
/// generatedBuffer.
std::shared_ptr<vcl::Buffer> randomFloatBuffer(std::size_t n,
                                               common::Rng& rng,
                                               float lo = -1.0f,
                                               float hi = 1.0f);
std::shared_ptr<vcl::Buffer> randomIntBuffer(std::size_t n, common::Rng& rng,
                                             int lo, int hi);
/// A factory's last input: the stream is not advanced.
std::shared_ptr<vcl::Buffer> randomIntBuffer(std::size_t n,
                                             common::Rng&& stream, int lo,
                                             int hi);
/// An int buffer holding `values` (the generator keeps them for replay).
std::shared_ptr<vcl::Buffer> intBufferOf(std::vector<int> values);
std::shared_ptr<vcl::Buffer> zeroFloatBuffer(std::size_t n);
std::shared_ptr<vcl::Buffer> zeroIntBuffer(std::size_t n);
std::shared_ptr<vcl::Buffer> zeroUIntBuffer(std::size_t n);

/// Element-wise comparison with mixed absolute/relative tolerance.
bool verifyFloat(const vcl::Buffer& actual, const std::vector<float>& expected,
                 double tolerance, std::string* error);
bool verifyInt(const vcl::Buffer& actual, const std::vector<int>& expected,
               std::string* error);
bool verifyUInt(const vcl::Buffer& actual,
                const std::vector<unsigned>& expected, std::string* error);

}  // namespace tp::suite
