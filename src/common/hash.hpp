#pragma once

// Hashing primitives, shared by the key hashers (serve's decision cache,
// adapt's refine keys, fleet's gossip digests) so hash constants, folding
// logic and the launch-key layout live in exactly one place: byte-wise
// FNV-1a for digests and a word-wise 128-bit fold for hot-path
// fingerprints.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tp::common {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnvBytes(std::uint64_t h, const void* data,
                              std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnvU64(std::uint64_t h, std::uint64_t v) {
  return fnvBytes(h, &v, sizeof(v));
}

inline std::uint64_t fnvDouble(std::uint64_t h, double v) {
  return fnvU64(h, std::bit_cast<std::uint64_t>(v));
}

/// Fold a length-delimited string: the length participates in the hash,
/// so adjacent variable-length fields cannot alias ("ab"+"c" vs "a"+"bc").
inline std::uint64_t fnvString(std::uint64_t h, std::string_view s) {
  h = fnvU64(h, s.size());
  return fnvBytes(h, s.data(), s.size());
}

inline std::uint64_t fnvDoubles(std::uint64_t h,
                                const std::vector<double>& values) {
  h = fnvU64(h, values.size());
  for (const double v : values) h = fnvDouble(h, v);
  return h;
}

/// Hash of the shared (machine, program, quantized launch signature)
/// layout used by serve::DecisionKey and adapt::RefineKey. Callers fold
/// in any extra fields (e.g. the model version) on top.
inline std::uint64_t hashLaunchKey(std::string_view machine,
                                   std::string_view program,
                                   const std::vector<double>& signature) {
  std::uint64_t h = kFnvOffset;
  h = fnvString(h, machine);
  h = fnvString(h, program);
  h = fnvDoubles(h, signature);
  return h;
}

/// splitmix64 finalizer: full-avalanche mix so every output bit depends on
/// every input bit. FNV's low bits are weak under power-of-two masking;
/// the open-addressing decision cache masks the fingerprint directly, so
/// both fingerprint words pass through this.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// 128-bit key fingerprint. Two independently-seeded word-wise streams
/// over the same 64-bit words, each avalanche-finalized; a collision
/// requires both streams to collide simultaneously. Used where the full
/// key is too expensive for the hot path (the serving decision cache, the
/// refiner's key table): readers compare fingerprints only, writers keep
/// the full key beside the table and verify it on insert. Fingerprints
/// are process-local — never persisted, sent or pinned — so the fold may
/// change between builds; the FNV digests above may not.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.lo);  // already avalanched
  }
};

/// Incremental Fingerprint builder: fold fields in a fixed order, then
/// take(). Allocation-free; lives on the caller's stack.
///
/// Each stream folds one whole word per step: xor it in, multiply by an
/// odd constant, then xorshift the high half down so the next multiply
/// carries it back up. Both steps are bijections of the state for a fixed
/// word and of the word for a fixed state, so two word sequences of equal
/// length that differ in exactly one word always end in different states,
/// and mix64 (itself a bijection) then changes both output halves.
class FingerprintBuilder {
public:
  static constexpr std::uint64_t kOffsetB = kFnvOffset ^ 0x9E3779B97F4A7C15ull;
  static constexpr std::uint64_t kMulA = 0x9E3779B97F4A7C15ull;
  static constexpr std::uint64_t kMulB = 0xC2B2AE3D27D4EB4Full;

  FingerprintBuilder& u64(std::uint64_t v) noexcept {
    a_ = fold(a_, v, kMulA);
    b_ = fold(b_, v, kMulB);
    return *this;
  }
  FingerprintBuilder& f64(double v) noexcept {
    return u64(std::bit_cast<std::uint64_t>(v));
  }
  /// Length first, then the bytes eight at a time (little-endian) with
  /// the tail zero-padded; the length makes the padding unambiguous.
  FingerprintBuilder& str(std::string_view s) noexcept {
    u64(s.size());
    for (std::size_t i = 0; i < s.size(); i += 8) {
      std::uint64_t w = 0;
      for (std::size_t j = 0; j < 8 && i + j < s.size(); ++j) {
        w |= std::uint64_t{static_cast<unsigned char>(s[i + j])} << (8 * j);
      }
      u64(w);
    }
    return *this;
  }

  Fingerprint take() const noexcept {
    return Fingerprint{mix64(b_), mix64(a_)};
  }

private:
  static constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v,
                                      std::uint64_t mul) noexcept {
    h = (h ^ v) * mul;
    return h ^ (h >> 29);
  }

  std::uint64_t a_ = kFnvOffset;
  std::uint64_t b_ = kOffsetB;
};

}  // namespace tp::common
