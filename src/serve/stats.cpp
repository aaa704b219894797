#include "serve/stats.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace tp::serve {

LatencyRecorder::LatencyRecorder(std::size_t window)
    : window_(window), stripes_(common::defaultStripes()) {
  TP_REQUIRE(window > 0, "LatencyRecorder: window must be > 0");
}

void LatencyRecorder::add(double seconds) {
  Stripe& stripe = stripes_[common::threadStripe(stripes_.size())];
  const std::uint32_t s = common::seqClaim(stripe.seq);
  if (stripe.ring.capacity() == 0) {
    // One-time reservation the first time this stripe records, so the
    // steady-state path never allocates and idle stripes cost nothing.
    stripe.ring.reserve(window_);
  }
  if (stripe.ring.size() < window_) {
    stripe.ring.push_back(seconds);
  } else {
    stripe.ring[stripe.next] = seconds;
  }
  stripe.next = (stripe.next + 1) % window_;
  ++stripe.count;
  stripe.sum += seconds;
  stripe.max = std::max(stripe.max, seconds);
  common::seqRelease(stripe.seq, s);
}

LatencyRecorder::Summary LatencyRecorder::summary() const {
  Summary out;
  std::vector<double> pooled;
  double sum = 0.0;
  for (Stripe& stripe : stripes_) {
    const std::uint32_t s = common::seqClaim(stripe.seq);
    pooled.insert(pooled.end(), stripe.ring.begin(), stripe.ring.end());
    out.count += stripe.count;
    sum += stripe.sum;
    out.maxSeconds = std::max(out.maxSeconds, stripe.max);
    common::seqRelease(stripe.seq, s);
  }
  if (out.count == 0) return out;
  out.meanSeconds = sum / static_cast<double>(out.count);
  // Percentiles over the pooled union of the per-stripe windows — exactly
  // common::percentile of the merged samples (see the class comment for
  // the merge-order semantics).
  out.p50Seconds = common::percentile(pooled, 50.0);
  out.p95Seconds = common::percentile(std::move(pooled), 95.0);
  return out;
}

MachineLoadStats::MachineLoadStats(std::size_t numDevices)
    : numDevices_(numDevices), stripes_(common::defaultStripes()) {
  for (Stripe& s : stripes_) {
    s.deviceBusy = std::vector<std::atomic<double>>(numDevices_);
  }
}

void MachineLoadStats::record(
    double makespanSeconds,
    const std::vector<runtime::DeviceExecution>& devices) noexcept {
  Stripe& stripe = stripes_[common::threadStripe(stripes_.size())];
  stripe.requests.fetch_add(1, std::memory_order_relaxed);
  common::atomicAdd(stripe.makespanSum, makespanSeconds);
  for (const auto& dev : devices) {
    common::atomicAdd(stripe.deviceBusy[dev.device],
                      dev.transferInSeconds + dev.kernelSeconds +
                          dev.transferOutSeconds);
  }
}

MachineLoadStats::Snapshot MachineLoadStats::snapshot() const {
  Snapshot out;
  out.deviceBusySeconds.assign(numDevices_, 0.0);
  for (const Stripe& stripe : stripes_) {
    out.requests += stripe.requests.load(std::memory_order_relaxed);
    out.makespanSum += stripe.makespanSum.load(std::memory_order_relaxed);
    for (std::size_t d = 0; d < numDevices_; ++d) {
      out.deviceBusySeconds[d] +=
          stripe.deviceBusy[d].load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace tp::serve
