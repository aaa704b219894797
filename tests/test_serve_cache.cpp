// Differential property tests for the lock-free fingerprinted decision
// cache: drive serve::DecisionCache and a reference std::unordered_map
// model with identical operation streams and assert decision
// equivalence (every cache hit returns exactly the reference's value —
// the cache may forget, it may never lie), counter reconciliation, and
// correct behavior across model-version bumps. The concurrent phases run
// under ThreadSanitizer in CI (this suite matches the tsan preset
// filter), exercising the hit path under contention: hits perform no
// heap allocation and acquire no lock, so TSan sees only atomics.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve/cache.hpp"

namespace tp::serve {
namespace {

/// One synthetic key universe: keys are indexed 0..n-1, labels are a pure
/// function of the index, fingerprints flow through a PairInterner the
/// way PartitionService's do.
struct KeyUniverse {
  common::PairInterner interner{512};
  int roundDigits = 6;

  std::string machineOf(std::size_t i) const {
    return i % 2 == 0 ? "mc1" : "mc2";
  }
  std::string programOf(std::size_t i) const {
    return "prog" + std::to_string(i % 7) + "/kern" + std::to_string(i % 3);
  }
  std::vector<double> signatureOf(std::size_t i) const {
    return {static_cast<double>(1 + i) * 1024.0, 64.0,
            static_cast<double>(i % 5)};
  }
  static std::size_t labelOf(std::size_t i) { return (i * 31 + 7) % 97; }

  DecisionKey fullKey(const DecisionCache& cache, std::size_t i) const {
    return cache.makeKey(machineOf(i), programOf(i), signatureOf(i));
  }
  common::Fingerprint fingerprint(const DecisionKey& key) {
    const std::uint32_t pairId = interner.intern(key.machine, key.program);
    return launchFingerprint(pairId, key.features);
  }
};

/// roundSignificant() as the libm formula: one log10 and one pow per
/// call. The table-driven implementation must match it bit for bit.
double referenceRoundSignificant(double v, int digits) {
  if (digits <= 0 || v == 0.0 || !std::isfinite(v)) {
    return v == 0.0 ? 0.0 : v;
  }
  const double exponent = std::floor(std::log10(std::fabs(v)));
  const double scale =
      std::pow(10.0, static_cast<double>(digits - 1) - exponent);
  if (!std::isfinite(scale) || scale == 0.0) return v;
  const double rounded = std::round(v * scale) / scale;
  if (!std::isfinite(rounded)) return v;
  return rounded == 0.0 ? 0.0 : rounded;
}

void expectSameRounding(double v, std::size_t* checked) {
  for (int digits = 1; digits <= 15; ++digits) {
    for (const double x : {v, -v}) {
      const auto got = std::bit_cast<std::uint64_t>(roundSignificant(x, digits));
      const auto want =
          std::bit_cast<std::uint64_t>(referenceRoundSignificant(x, digits));
      ASSERT_EQ(got, want) << std::hexfloat << x << " digits=" << digits;
      ++*checked;
    }
  }
}

TEST(RoundSignificantDifferential, MatchesLibmFormulaOnRandomValues) {
  common::Rng rng(20240611);
  std::size_t checked = 0;
  for (int i = 0; i < 20000; ++i) {
    // Every finite double pattern, subnormals included...
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits)) expectSameRounding(bits, &checked);
    // ...and log-uniform magnitudes over the range launch signatures use.
    expectSameRounding(std::pow(10.0, rng.uniform(-8.0, 16.0)), &checked);
    // Integers, like NDRange sizes and byte counts.
    expectSameRounding(static_cast<double>(rng.below(1ull << 40)), &checked);
  }
  EXPECT_GT(checked, 1'000'000u);
}

TEST(RoundSignificantDifferential, MatchesLibmFormulaAroundPowersOfTen) {
  // Bracket edges are where a table lookup and floor(log10(x)) can
  // disagree: both std::pow's 10^k and the correctly rounded decimal
  // literal, each with its three neighbours on either side.
  std::size_t checked = 0;
  for (int k = -325; k <= 309; ++k) {
    const std::string literal = "1e" + std::to_string(k);
    for (double p : {std::pow(10.0, static_cast<double>(k)),
                     std::strtod(literal.c_str(), nullptr)}) {
      if (p == 0.0 || !std::isfinite(p)) continue;
      double below = p;
      double above = p;
      expectSameRounding(p, &checked);
      for (int ulp = 0; ulp < 3; ++ulp) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, HUGE_VAL);
        if (below != 0.0) expectSameRounding(below, &checked);
        if (std::isfinite(above)) expectSameRounding(above, &checked);
      }
    }
  }
  EXPECT_GT(checked, 100'000u);
}

using ReferenceModel =
    std::unordered_map<DecisionKey, std::size_t, DecisionKeyHash>;

TEST(DecisionCacheDifferential, SingleThreadedOperationStream) {
  // 20k random ops over 160 keys against a 64-slot cache: lookups,
  // inserts, occasional version bumps/advances and full clears. The
  // reference model never evicts, so: every cache hit must match the
  // reference exactly, and every key absent from the reference must miss.
  DecisionCache cache(64);
  KeyUniverse u;
  ReferenceModel reference;
  common::Rng rng(0xD1FFu);
  constexpr std::size_t kKeys = 160;
  constexpr std::size_t kOps = 20000;
  std::uint64_t hits = 0;

  for (std::size_t op = 0; op < kOps; ++op) {
    const std::uint64_t dice = rng.below(1000);
    if (dice < 3) {
      cache.bumpVersion();
      // Mirror the epoch sweep: the reference drops older generations.
      std::erase_if(reference, [&](const auto& kv) {
        return kv.first.modelVersion != cache.version();
      });
      continue;
    }
    if (dice < 5) {
      cache.advanceVersion(cache.version() + 1 + rng.below(3));
      std::erase_if(reference, [&](const auto& kv) {
        return kv.first.modelVersion != cache.version();
      });
      continue;
    }
    if (dice < 7) {
      cache.clear();
      reference.clear();
      continue;
    }
    const std::size_t i = rng.below(kKeys);
    const DecisionKey key = u.fullKey(cache, i);
    const common::Fingerprint fp = u.fingerprint(key);
    const auto hit = cache.lookup(fp, key.modelVersion);
    const auto ref = reference.find(key);
    if (hit.has_value()) {
      ++hits;
      // Decision equivalence: a hit may never disagree with the model.
      ASSERT_NE(ref, reference.end())
          << "cache served a key the reference never saw (op " << op << ")";
      ASSERT_EQ(*hit, ref->second) << "label mismatch at op " << op;
    } else {
      const std::size_t label = KeyUniverse::labelOf(i);
      cache.insert(fp, key, label);
      reference[key] = label;
    }
  }

  EXPECT_GT(hits, kOps / 10);  // the stream actually exercised the hit path
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
  EXPECT_EQ(c.collisions, 0u);
  EXPECT_LE(cache.size(), cache.capacity());

  // Post-stream sweep equivalence: everything the cache still holds must
  // be served with the reference's value.
  std::size_t resident = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const DecisionKey key = u.fullKey(cache, i);
    const common::Fingerprint fp = u.fingerprint(key);
    if (const auto hit = cache.lookup(fp, key.modelVersion)) {
      const auto ref = reference.find(key);
      ASSERT_NE(ref, reference.end());
      EXPECT_EQ(*hit, ref->second);
      ++resident;
    }
  }
  EXPECT_EQ(resident, cache.size());
}

TEST(DecisionCacheDifferential, ConcurrentHitsUnderContentionStayExact) {
  // The warm-path property under contention: readers hammer a resident
  // working set (smaller than capacity, so nothing is ever evicted) while
  // writers refresh the same keys with the same labels. Every hit must
  // carry the key's one true label; counters must reconcile afterwards.
  DecisionCache cache(256);
  KeyUniverse u;
  constexpr std::size_t kKeys = 96;

  // Pre-resolve keys/fingerprints so worker threads do pure cache ops.
  std::vector<DecisionKey> keys;
  std::vector<common::Fingerprint> fps;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(u.fullKey(cache, i));
    fps.push_back(u.fingerprint(keys.back()));
    cache.insert(fps.back(), keys.back(), KeyUniverse::labelOf(i));
  }
  ASSERT_EQ(cache.size(), kKeys);

  common::ThreadPool pool(8);
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> misses{0};
  pool.parallelFor(0, 40000, [&](std::size_t op) {
    const std::size_t i = (op * 2654435761u) % kKeys;
    if (op % 16 == 0) {
      cache.insert(fps[i], keys[i], KeyUniverse::labelOf(i));  // refresh
      return;
    }
    const auto hit = cache.lookup(fps[i], 0);
    if (!hit.has_value()) {
      misses.fetch_add(1);
    } else if (*hit != KeyUniverse::labelOf(i)) {
      wrong.fetch_add(1);
    }
  });
  pool.waitIdle();

  EXPECT_EQ(wrong.load(), 0u);
  // Nothing is evicted (working set < capacity) and refreshes keep the
  // entries resident; a rare transient miss can only come from a seqlock
  // retry exhaustion during a concurrent refresh of the same slot.
  EXPECT_LE(misses.load(), 4000u);
  EXPECT_EQ(cache.size(), kKeys);
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
}

TEST(DecisionCacheDifferential, ConcurrentStreamWithVersionBumps) {
  // Mixed readers/writers/version bumpers. Labels are a pure function of
  // (key, version): hits must always return the label inserted for the
  // version they were asked about — a bump may cost hits, never truth.
  DecisionCache cache(128);
  KeyUniverse u;
  constexpr std::size_t kKeys = 64;

  std::vector<std::string> machines;
  std::vector<std::string> programs;
  std::vector<std::vector<double>> signatures;
  std::vector<common::Fingerprint> fps;
  for (std::size_t i = 0; i < kKeys; ++i) {
    machines.push_back(u.machineOf(i));
    programs.push_back(u.programOf(i));
    signatures.push_back(u.signatureOf(i));
    const std::uint32_t pairId = u.interner.intern(machines[i], programs[i]);
    DecisionKey probe = cache.makeKey(machines[i], programs[i], signatures[i]);
    fps.push_back(launchFingerprint(pairId, probe.features));
  }

  common::ThreadPool pool(8);
  std::atomic<std::uint64_t> wrong{0};
  pool.parallelFor(0, 30000, [&](std::size_t op) {
    if (op % 4000 == 0) {
      cache.bumpVersion();
      return;
    }
    const std::size_t i = op % kKeys;
    // makeKey stamps the current version — exactly what the service does
    // at request start.
    const DecisionKey key =
        cache.makeKey(machines[i], programs[i], signatures[i]);
    const std::size_t expected =
        (KeyUniverse::labelOf(i) + key.modelVersion) % 97;
    if (const auto hit = cache.lookup(fps[i], key.modelVersion)) {
      if (*hit != expected) wrong.fetch_add(1);
    } else {
      cache.insert(fps[i], key, expected);
    }
  });
  pool.waitIdle();

  EXPECT_EQ(wrong.load(), 0u);
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());

  // After a final sweep only current-generation entries remain.
  cache.clearStale();
  const std::uint64_t v = cache.version();
  std::size_t resident = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (const auto hit = cache.lookup(fps[i], v)) {
      EXPECT_EQ(*hit, (KeyUniverse::labelOf(i) + v) % 97);
      ++resident;
    }
  }
  // >= rather than ==: two racing inserts of one fingerprint may occupy
  // two slots transiently (both carry the same label, so hits stay
  // correct); resident counts distinct fingerprints.
  EXPECT_GE(cache.size(), resident);
}

}  // namespace
}  // namespace tp::serve
