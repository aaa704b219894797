// Unit tests for tp_common: RNG determinism and distributions, statistics,
// CSV round-trips, string utilities, thread pool behaviour, the shared
// FNV key-hash helpers (collision sanity), wire serialization, and the
// striped in-flight latch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <unordered_set>

#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/intern.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"
#include "common/str.hpp"
#include "common/striped.hpp"
#include "common/thread_pool.hpp"

namespace tp::common {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev({42}), 0.0);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, MedianAndPercentiles) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
}

TEST(Stats, PercentileSingleSampleAndInterpolation) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100), 42.0);
  // Linear interpolation between ranks.
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 75), 7.5);
}

TEST(Stats, PercentileExactBoundaryRanks) {
  // p*(n-1) divisible by 100 must select an element *exactly* — the old
  // p/100*(n-1) formulation computed e.g. 0.95*20 as 18.999999999999996
  // and interpolated between the wrong pair of neighbors.
  std::vector<double> xs(21);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i);
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 95), 19.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 5), 1.0);
  std::vector<double> small(5);
  for (std::size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<double>(10 * i);
  }
  EXPECT_DOUBLE_EQ(percentile(small, 25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(small, 75), 30.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats rs;
  const std::vector<double> xs = {1.5, 2.5, -3.0, 7.25, 0.0};
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.25);
}

TEST(Stats, PearsonPerfectCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {-2, -4, -6}), -1.0, 1e-12);
}

TEST(Str, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Str, Affixes) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("foobar", "bar"));
  EXPECT_FALSE(endsWith("foobar", "baz"));
}

TEST(Str, JoinAndThousands) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(withThousands(1234567), "1,234,567");
  EXPECT_EQ(withThousands(-1000), "-1,000");
  EXPECT_EQ(withThousands(42), "42");
}

TEST(Csv, RoundTrip) {
  Table t({"name", "value", "note"});
  t.addRow({"alpha", "1.5", "plain"});
  t.addRow({"beta", "-2", "has, comma"});
  t.addRow({"gamma", "3", "has \"quotes\""});
  std::ostringstream os;
  t.writeCsv(os);
  std::istringstream is(os.str());
  const Table back = Table::readCsv(is);
  ASSERT_EQ(back.numRows(), 3u);
  EXPECT_EQ(back.cell(1, "note"), "has, comma");
  EXPECT_EQ(back.cell(2, "note"), "has \"quotes\"");
  EXPECT_DOUBLE_EQ(back.cellDouble(0, "value"), 1.5);
  EXPECT_EQ(back.cellInt(1, "value"), -2);
}

TEST(Csv, TypedAccessorsThrowOnGarbage) {
  Table t({"v"});
  t.addRow({"not_a_number"});
  EXPECT_THROW(t.cellDouble(0, "v"), IoError);
  EXPECT_THROW(t.cellInt(0, "v"), IoError);
  EXPECT_THROW(t.columnIndex("missing"), IoError);
}

TEST(Csv, WrongColumnCountNamesSourceAndLine) {
  std::istringstream is("a,b\n1,2\n3\n");
  try {
    Table::readCsv(is, "traffic.csv");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("traffic.csv:3"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 2 columns, got 1"), std::string::npos)
        << what;
  }
}

TEST(Csv, WrongColumnCountDefaultsSourceName) {
  std::istringstream is("a,b\n1,2,3\n");
  try {
    Table::readCsv(is);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("<csv>:2"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, UnterminatedQuoteNamesStartLine) {
  std::istringstream is("a,b\n1,\"open\n");
  try {
    Table::readCsv(is, "db.csv");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("db.csv:2"), std::string::npos) << what;
    EXPECT_NE(what.find("unterminated"), std::string::npos) << what;
  }
}

TEST(Csv, CellParseErrorCarriesRowProvenance) {
  std::istringstream is("name,value\nok,1.5\nbad,oops\n");
  const Table t = Table::readCsv(is, "feats.csv");
  EXPECT_DOUBLE_EQ(t.cellDouble(0, "value"), 1.5);
  try {
    t.cellDouble(1, "value");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("feats.csv:3"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, QuotedNewlinesKeepLineNumbersAligned) {
  // The quoted field spans two physical lines; the row after it must be
  // reported at its true line number.
  std::istringstream is("a,b\n\"multi\nline\",2\n3\n");
  try {
    Table::readCsv(is, "multi.csv");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("multi.csv:4"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, ProgrammaticRowsHaveNoProvenance) {
  Table t({"v"});
  t.addRow({"zzz"});
  EXPECT_EQ(t.rowLocation(0), "");
  try {
    t.cellDouble(0, "v");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    // No " (source:line)" suffix for rows that never came from CSV.
    EXPECT_EQ(std::string(e.what()).find(" ("), std::string::npos) << e.what();
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(0, 1000, [&](std::size_t i) { hits[i]++; }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(0, 100,
                                [](std::size_t i) {
                                  if (i == 42) throw Error("boom");
                                },
                                1),
               Error);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter++; });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    TP_REQUIRE(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// ---- shared key hashing ----------------------------------------------------

TEST(Hash, FieldBoundariesCannotAlias) {
  // Both the serve decision cache and the adapt refiner hash
  // (machine, program, signature) through hashLaunchKey; the length
  // prefix keeps adjacent variable-length fields from aliasing.
  EXPECT_NE(hashLaunchKey("ab", "c", {}), hashLaunchKey("a", "bc", {}));
  EXPECT_NE(hashLaunchKey("", "abc", {}), hashLaunchKey("abc", "", {}));
  EXPECT_NE(hashLaunchKey("m", "p", {1.0, 2.0}),
            hashLaunchKey("m", "p", {2.0, 1.0}));
  EXPECT_NE(hashLaunchKey("m", "p", {1.0}),
            hashLaunchKey("m", "p", {1.0, 0.0}));
  // Deterministic across calls.
  EXPECT_EQ(hashLaunchKey("mc2", "fft/run", {65536.0, 64.0}),
            hashLaunchKey("mc2", "fft/run", {65536.0, 64.0}));
}

TEST(Hash, CollisionSanityOverRealisticKeySpace) {
  // The shapes real traffic produces: a few machines and programs
  // crossed with a dense grid of launch signatures. Any collision here
  // would put two distinct launches in one refiner entry, so demand
  // exactly zero across ~20k keys.
  std::unordered_set<std::uint64_t> seen;
  std::size_t keys = 0;
  for (const char* machine : {"mc1", "mc2"}) {
    for (const char* program : {"fft/run", "spmv/kernel", "nbody/step",
                                "md5/hash", "scale/scale"}) {
      for (int n = 0; n < 40; ++n) {
        for (int k = 0; k < 50; ++k) {
          const double size = static_cast<double>(1 << (n % 20)) + n;
          seen.insert(hashLaunchKey(machine, program,
                                    {size, 64.0, static_cast<double>(k)}));
          ++keys;
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), keys);
}

// ---- wire serialization ----------------------------------------------------

TEST(Serial, RoundTripsEveryFieldType) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5678e-9);
  w.str("hello \0 world");  // string_view stops at the NUL here, fine
  w.str(std::string("bin\0ary", 7));
  w.doubles({1.0, -0.0, 5e-324, 1e308});

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5678e-9);
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
  const auto values = r.doubles();
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], 1.0);
  EXPECT_TRUE(std::signbit(values[1]));  // -0.0 survives bit-exactly
  EXPECT_EQ(values[2], 5e-324);
  EXPECT_EQ(values[3], 1e308);
  EXPECT_TRUE(r.atEnd());
  r.expectEnd();
}

TEST(Serial, TruncationAndTrailingBytesThrow) {
  WireWriter w;
  w.u32(7);
  w.str("payload");
  const std::string bytes = w.data();

  WireReader truncated(std::string_view(bytes).substr(0, bytes.size() - 2));
  EXPECT_EQ(truncated.u32(), 7u);
  EXPECT_THROW(truncated.str(), Error);

  const std::string padded = bytes + "x";
  WireReader trailing(padded);
  EXPECT_EQ(trailing.u32(), 7u);
  EXPECT_EQ(trailing.str(), "payload");
  EXPECT_FALSE(trailing.atEnd());
  EXPECT_THROW(trailing.expectEnd(), Error);

  // A length prefix larger than the remaining bytes must throw, not
  // allocate.
  WireWriter lying;
  lying.u32(0xffffffffu);
  WireReader r(lying.data());
  EXPECT_THROW(r.doubles(), Error);
  WireReader r2(lying.data());
  EXPECT_THROW(r2.str(), Error);
}

TEST(Serial, EncodingIsByteStable) {
  // The wire format is an interchange format: fixed little-endian bytes,
  // not host memory order.
  WireWriter w;
  w.u16(0x0102);
  w.u32(0x03040506u);
  const std::string& b = w.data();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x06);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x05);
  EXPECT_EQ(static_cast<unsigned char>(b[4]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[5]), 0x03);
}

TEST(Serial, CheckedCountRejectsHostileLengthPrefix) {
  // A length prefix claiming more elements than the input has bytes must
  // throw in checkedCount() — before any reserve() can turn it into a
  // multi-gigabyte allocation (lint rule R3 pins every decode loop to
  // this helper).
  WireWriter w;
  w.u32(0xFFFFFFFFu);  // claims ~4e9 elements...
  w.u32(7);            // ...with 4 bytes of payload behind it
  WireReader r(w.data());
  const std::uint32_t claimed = r.u32();
  EXPECT_THROW(r.checkedCount(claimed, 8), tp::Error);

  // An honest count passes through unchanged.
  WireWriter w2;
  w2.u32(2);
  w2.f64(1.0);
  w2.f64(2.0);
  WireReader r2(w2.data());
  EXPECT_EQ(r2.checkedCount(r2.u32(), 8), 2u);
}

TEST(InternerTest, InternFindRoundTrip) {
  PairInterner interner(16);
  const std::uint32_t a = interner.intern("m0", "prog/kernel");
  const std::uint32_t b = interner.intern("m1", "prog", "kernel");
  ASSERT_NE(a, PairInterner::kInvalid);
  ASSERT_NE(b, PairInterner::kInvalid);
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("m0", "prog/kernel"), a);  // idempotent
  EXPECT_EQ(interner.find("m0", "prog/kernel"), a);
  EXPECT_EQ(interner.find("m1", "prog", "kernel"), b);
  EXPECT_EQ(interner.find("m1", "prog/kernel"), b);  // split == joined
  EXPECT_EQ(interner.find("m2", "prog/kernel"), PairInterner::kInvalid);
  EXPECT_EQ(interner.first(a), "m0");
  EXPECT_EQ(interner.second(a), "prog/kernel");
}

TEST(InternerTest, ConcurrentInternAndFind) {
  // Referenced by the TP_LOCK_FREE_AUDITED reasons on PairInterner's
  // read path: under TSan this is the race test for the slot publication
  // protocol. Writers intern disjoint pair sets while readers probe the
  // full key space; a reader may race the publishing store, so the only
  // legal outcomes are kInvalid (not yet visible) or the final id with
  // fully readable strings.
  PairInterner interner(512);
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kPairsPerWriter = 128;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&interner, w] {
      for (int i = 0; i < kPairsPerWriter; ++i) {
        const std::string machine = "machine" + std::to_string(w);
        const std::string program = "prog" + std::to_string(i) + "/k";
        ASSERT_NE(interner.intern(machine, program), PairInterner::kInvalid);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&interner, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int w = 0; w < kWriters; ++w) {
          for (int i = 0; i < kPairsPerWriter; ++i) {
            const std::string machine = "machine" + std::to_string(w);
            const std::string head = "prog" + std::to_string(i);
            const std::uint32_t id = interner.find(machine, head, "k");
            if (id != PairInterner::kInvalid) {
              ASSERT_EQ(interner.first(id), machine);
              ASSERT_EQ(interner.second(id), head + "/k");
            }
          }
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Every interned pair is findable once writers have quiesced.
  EXPECT_EQ(interner.size(),
            static_cast<std::size_t>(kWriters * kPairsPerWriter));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPairsPerWriter; ++i) {
      const std::string machine = "machine" + std::to_string(w);
      const std::string program = "prog" + std::to_string(i) + "/k";
      EXPECT_NE(interner.find(machine, program), PairInterner::kInvalid);
    }
  }
  EXPECT_EQ(interner.fullRejections(), 0u);
}

TEST(InternerTest, CapacityRejectionDegradesAndCounts) {
  PairInterner interner(4);
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(interner.intern("m", "p" + std::to_string(i)));
    ASSERT_NE(ids.back(), PairInterner::kInvalid);
  }
  EXPECT_EQ(interner.size(), 4u);
  EXPECT_EQ(interner.fullRejections(), 0u);

  // New pairs are rejected and counted; each rejection degrades the
  // caller to its uncached path but corrupts nothing.
  EXPECT_EQ(interner.intern("m", "p4"), PairInterner::kInvalid);
  EXPECT_EQ(interner.intern("m", "p5"), PairInterner::kInvalid);
  EXPECT_EQ(interner.fullRejections(), 2u);
  EXPECT_EQ(interner.size(), 4u);

  // Existing pairs keep their fast path: re-intern is a hit, not a
  // rejection, and lookups still resolve.
  EXPECT_EQ(interner.intern("m", "p0"), ids[0]);
  EXPECT_EQ(interner.fullRejections(), 2u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(interner.find("m", "p" + std::to_string(i)), ids[i]);
  }
  EXPECT_EQ(interner.find("m", "p4"), PairInterner::kInvalid);
}

TEST(InternerTest, ConcurrentReadersAtCapacity) {
  // The degrade path under contention: the table is full, writers keep
  // hammering intern() with fresh pairs (every call a counted
  // rejection), and concurrent readers must keep resolving the resident
  // pairs exactly — capacity pressure may slow new pairs down but can
  // never corrupt published ones.
  constexpr std::size_t kCapacity = 8;
  PairInterner interner(kCapacity);
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    ids.push_back(interner.intern("m", "resident" + std::to_string(i)));
    ASSERT_NE(ids.back(), PairInterner::kInvalid);
  }

  constexpr int kAttemptsPerWriter = 200;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&interner, w] {
      for (int i = 0; i < kAttemptsPerWriter; ++i) {
        const std::string program =
            "overflow" + std::to_string(w) + "_" + std::to_string(i);
        ASSERT_EQ(interner.intern("m", program), PairInterner::kInvalid);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&interner, &ids] {
      for (int pass = 0; pass < 200; ++pass) {
        for (std::size_t i = 0; i < kCapacity; ++i) {
          ASSERT_EQ(interner.find("m", "resident" + std::to_string(i)),
                    ids[i]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(interner.size(), kCapacity);
  EXPECT_EQ(interner.fullRejections(),
            static_cast<std::uint64_t>(2 * kAttemptsPerWriter));
}

// ---- striped in-flight latch -----------------------------------------------

TEST(StripedLatch, AdmitOnOneThreadDoneOnAnother) {
  // Queued requests are admitted on the client thread and answered on a
  // lane worker: the two counts land on different stripes.
  StripedLatch latch;
  EXPECT_TRUE(latch.quiescent());
  latch.admit();
  latch.admit();
  EXPECT_FALSE(latch.quiescent());
  std::thread([&] { latch.done(); }).join();
  EXPECT_FALSE(latch.quiescent());
  std::thread([&] { latch.done(); }).join();
  EXPECT_TRUE(latch.quiescent());
  latch.wait();  // already quiescent: returns at once
}

TEST(StripedLatch, NeverQuiescentWhileAnItemIsInFlight) {
  // One item stays in flight while workers churn admit/done pairs across
  // their stripes, some finishing each other's items through a shared
  // hand-off counter. A checker summing stripes mid-churn must never see
  // equal sums while the pinned item is outstanding.
  StripedLatch latch;
  latch.admit();  // the pinned item
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> handedOff{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        latch.admit();
        if ((i + w) % 2 == 0) {
          latch.done();
        } else {
          handedOff.fetch_add(1, std::memory_order_acq_rel);
        }
        // Finish some other thread's item (never more than were handed off).
        std::int64_t pending = handedOff.load(std::memory_order_acquire);
        while (pending > 0 && !handedOff.compare_exchange_weak(
                                  pending, pending - 1,
                                  std::memory_order_acq_rel)) {
        }
        if (pending > 0) latch.done();
      }
    });
  }
  std::size_t checks = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_FALSE(latch.quiescent()) << "after " << checks << " checks";
    ++checks;
  }
  stop.store(true);
  for (auto& t : workers) t.join();
  for (std::int64_t n = handedOff.load(); n > 0; --n) latch.done();
  EXPECT_FALSE(latch.quiescent());
  latch.done();  // the pinned item
  EXPECT_TRUE(latch.quiescent());
  EXPECT_GT(checks, 0u);
}

TEST(StripedLatch, SleepingWaiterWakesOnLastDone) {
  StripedLatch latch;
  latch.admit();
  latch.admit();
  auto waiter = std::async(std::launch::async, [&] { latch.wait(); });
  // Give the waiter time to register and block on the epoch word.
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  std::thread([&] { latch.done(); }).join();
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  std::thread([&] { latch.done(); }).join();  // the last done
  ASSERT_EQ(waiter.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  waiter.get();
  EXPECT_TRUE(latch.quiescent());
}

}  // namespace
}  // namespace tp::common
