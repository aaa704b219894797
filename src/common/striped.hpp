#pragma once

// Striped (per-thread) accumulators for write-hot, read-rare statistics.
//
// A single shared counter serializes every writer on one cache line; a
// mutex-guarded block serializes them on a lock. Striping gives each
// thread its own cache-line-padded slot (threads are assigned a stable
// ordinal at first use, round-robin over the stripe count), so writers
// touch only their stripe with relaxed atomic adds and never contend
// unless more threads than stripes exist. Readers sum every stripe —
// each field is read atomically, but a concurrent writer may land
// between two field reads, so multi-field snapshots are "racy but
// per-field exact": totals are exact once writers quiesce.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace tp::common {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Stable small ordinal for the calling thread (assigned on first call,
/// process-wide). Never reused; long-lived thread churn wraps stripes
/// around, which only costs contention, never correctness.
inline std::size_t threadOrdinal() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

inline std::size_t threadStripe(std::size_t numStripes) noexcept {
  return threadOrdinal() % numStripes;
}

/// Default stripe count: enough that typical thread pools do not collide.
inline std::size_t defaultStripes() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n = hw == 0 ? 16 : 2 * static_cast<std::size_t>(hw);
  return n < 16 ? 16 : (n > 64 ? 64 : n);
}

/// Relaxed fetch-add for atomic doubles via CAS (std::atomic<double>::
/// fetch_add is C++20 but patchy across standard libraries).
inline void atomicAdd(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

template <typename T>
struct alignas(kCacheLineBytes) CachePadded {
  T value{};
};

/// Spin-claim a seqlock word: CAS it from even (stable) to odd (writer
/// inside) and return the even value. Critical sections guarded this way
/// must be short — claimants spin. Release with seqRelease(), which
/// publishes the mutations and leaves the word even again.
inline std::uint32_t seqClaim(std::atomic<std::uint32_t>& seq) noexcept
    TP_LOCK_FREE_AUDITED(
        "seqlock claim: CAS even->odd spin, acq_rel orders the critical "
        "section; TSan: test_serve LatencyRecorder.SnapshotRacesWithWriters"
        "Cleanly") {
  for (;;) {
    std::uint32_t s = seq.load(std::memory_order_relaxed);
    if ((s & 1u) == 0 &&
        seq.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel)) {
      return s;
    }
  }
}

inline void seqRelease(std::atomic<std::uint32_t>& seq,
                       std::uint32_t claimed) noexcept
    TP_LOCK_FREE_AUDITED(
        "seqlock release: publishes the claimed section with a release "
        "store; TSan: test_serve LatencyRecorder.SnapshotRacesWithWriters"
        "Cleanly") {
  seq.store(claimed + 2, std::memory_order_release);
}

/// RAII claim of a CAS busy flag (0 = free, 1 = claimed). Construction
/// attempts one claim; check claimed() before touching the protected
/// state. The destructor releases, so any exception thrown inside the
/// critical section leaves the flag free instead of leaking the claim —
/// the invariant lint rule A3 enforces for every claim/release section.
/// Call release() explicitly where the protocol wants the flag dropped
/// before trailing work (it is idempotent; the destructor then no-ops).
class ClaimGuard {
public:
  explicit ClaimGuard(std::atomic<std::uint32_t>& flag) noexcept
      TP_LOCK_FREE_AUDITED(
          "single CAS 0->1 claim attempt, acq_rel so the critical section "
          "is ordered against the previous owner's release; TSan: "
          "test_serve PartitionService.ConcurrentClientsGetConsistent"
          "Decisions")
      : flag_(&flag) {
    std::uint32_t expected = 0;
    claimed_ = flag.load(std::memory_order_relaxed) == 0 &&
               flag.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel);
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;
  ClaimGuard(ClaimGuard&& other) noexcept
      : flag_(other.flag_), claimed_(other.claimed_) {
    other.claimed_ = false;
  }
  ClaimGuard& operator=(ClaimGuard&&) = delete;
  ~ClaimGuard() { release(); }

  bool claimed() const noexcept { return claimed_; }

  void release() noexcept
      TP_LOCK_FREE_AUDITED(
          "release store of 0 publishes the critical section to the next "
          "claimant's acq_rel CAS; idempotent; TSan: test_serve "
          "PartitionService.ConcurrentClientsGetConsistentDecisions") {
    if (claimed_) {
      flag_->store(0, std::memory_order_release);
      claimed_ = false;
    }
  }

private:
  std::atomic<std::uint32_t>* flag_;
  bool claimed_ = false;
};

/// Monotonic counter, striped per thread. add() is a relaxed atomic add on
/// the caller's stripe; total() sums all stripes.
class StripedCounter {
public:
  explicit StripedCounter(std::size_t stripes = 0)
      : stripes_(stripes == 0 ? defaultStripes() : stripes) {}

  void add(std::uint64_t n = 1) noexcept
      TP_LOCK_FREE_AUDITED(
          "relaxed add on the caller's own stripe; monotonic counter, "
          "per-field exact on read; TSan: test_serve "
          "DecisionCacheContention.CountersAndCapacityStayConsistent") {
    stripes_[threadStripe(stripes_.size())].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

private:
  std::vector<CachePadded<std::atomic<std::uint64_t>>> stripes_;
};

/// In-flight latch, striped per thread: drain-style callers block until
/// nothing admitted is still in flight, while admit() and done() write
/// only the calling thread's own cache line. Each stripe holds monotonic
/// admitted and done counts; an item may be admitted on one thread and
/// done on another.
///
/// quiescent() sums every done count, then every admitted count. An item
/// is done only after it was admitted, so at each instant D <= A; the done
/// sum is at most D at the moment between the two passes and the admitted
/// sum at least A, hence equal sums prove that at that moment nothing was
/// in flight. All counts move with seq_cst read-modify-writes and are read
/// with seq_cst loads, so callers may pair admit() with a seq_cst gate
/// check (Dekker-style) against a closer that stores the gate and then
/// waits.
///
/// wait() registers as a waiter and sleeps on an epoch word; done() bumps
/// and notifies that word only while a waiter exists, so without waiters
/// it never touches a shared line.
class StripedLatch {
public:
  StripedLatch() : stripes_(defaultStripes()) {}

  void admit() noexcept
      TP_LOCK_FREE_AUDITED(
          "seq_cst add on the caller's own stripe; orders against a "
          "closer's seq_cst gate store; TSan: test_serve "
          "PartitionService.ShutdownRacesDrainLoopAndMixedTraffic") {
    stripes_[threadStripe(stripes_.size())].admitted.fetch_add(
        1, std::memory_order_seq_cst);
  }

  void done() noexcept
      TP_LOCK_FREE_AUDITED(
          "seq_cst add on the caller's own stripe, then a seq_cst waiter "
          "check: a waiter registered before its quiescence check sees "
          "this done or gets the epoch bump; TSan: test_common "
          "StripedLatch.SleepingWaiterWakesOnLastDone") {
    stripes_[threadStripe(stripes_.size())].done.fetch_add(
        1, std::memory_order_seq_cst);
    if (waiters_.value.load(std::memory_order_seq_cst) != 0) {
      epoch_.value.fetch_add(1, std::memory_order_seq_cst);
      epoch_.value.notify_all();
    }
  }

  /// True when, at one instant during the call, every admitted item was
  /// done.
  bool quiescent() const noexcept
      TP_LOCK_FREE_AUDITED(
          "seq_cst loads: every done stripe, then every admitted stripe "
          "(see the class comment for the proof); TSan: test_common "
          "StripedLatch.NeverQuiescentWhileAnItemIsInFlight") {
    std::uint64_t done = 0;
    for (const Stripe& s : stripes_) {
      done += s.done.load(std::memory_order_seq_cst);
    }
    std::uint64_t admitted = 0;
    for (const Stripe& s : stripes_) {
      admitted += s.admitted.load(std::memory_order_seq_cst);
    }
    return done == admitted;
  }

  /// Block until quiescent() holds.
  void wait() noexcept
      TP_LOCK_FREE_AUDITED(
          "registers as a waiter before each seq_cst epoch read and "
          "quiescence check, so a done() the check missed bumps the epoch "
          "it sleeps on; TSan: test_common "
          "StripedLatch.SleepingWaiterWakesOnLastDone") {
    waiters_.value.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      const std::uint32_t epoch = epoch_.value.load(std::memory_order_seq_cst);
      if (quiescent()) break;
      epoch_.value.wait(epoch, std::memory_order_seq_cst);
    }
    waiters_.value.fetch_sub(1, std::memory_order_seq_cst);
  }

private:
  struct alignas(kCacheLineBytes) Stripe {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> done{0};
  };

  std::vector<Stripe> stripes_;
  CachePadded<std::atomic<std::uint32_t>> waiters_;
  CachePadded<std::atomic<std::uint32_t>> epoch_;
};

}  // namespace tp::common
