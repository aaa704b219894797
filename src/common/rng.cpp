#include "common/rng.hpp"

#include <bit>

namespace tp::common {

// xoshiro256**'s state update is linear over GF(2): the next state is T s
// for a fixed 256x256 bit matrix T. A matrix is stored by column, col[i]
// being the image of state bit i (bit i % 64 of word i / 64), and a
// product T s is the XOR of the columns of the set bits of s.
struct Rng::JumpTable {
  using State = std::array<std::uint64_t, 4>;
  using Matrix = std::array<State, 256>;

  static State apply(const Matrix& m, const State& s) {
    State out{};
    for (std::size_t w = 0; w < s.size(); ++w) {
      for (std::uint64_t bits = s[w]; bits != 0; bits &= bits - 1) {
        const State& col = m[64 * w + std::countr_zero(bits)];
        for (std::size_t j = 0; j < out.size(); ++j) out[j] ^= col[j];
      }
    }
    return out;
  }

  JumpTable() {
    // Column i of T: one step from the state with only bit i set.
    Rng unit;
    for (std::size_t i = 0; i < 256; ++i) {
      unit.state_ = {};
      unit.state_[i / 64] = 1ull << (i % 64);
      static_cast<void>(unit());
      pow[0][i] = unit.state_;
    }
    // T^(2^j) = T^(2^(j-1)) applied to each column of T^(2^(j-1)).
    for (std::size_t j = 1; j < pow.size(); ++j) {
      for (std::size_t i = 0; i < 256; ++i) {
        pow[j][i] = apply(pow[j - 1], pow[j - 1][i]);
      }
    }
  }

  std::array<Matrix, 64> pow{};  // pow[j] = T^(2^j)
};

void Rng::discard(std::uint64_t k) {
  // Below this a few hundred steps are cheaper than the matrix products
  // (each costs about as much as 100 steps) and need no table.
  constexpr std::uint64_t kStepLimit = 256;
  if (k < kStepLimit) {
    for (; k != 0; --k) static_cast<void>((*this)());
    return;
  }
  static const JumpTable table;
  // Powers of one matrix commute, so the set bits apply in any order.
  for (; k != 0; k &= k - 1) {
    state_ = JumpTable::apply(table.pow[std::countr_zero(k)], state_);
  }
}

}  // namespace tp::common
