#pragma once

// The benchmark run: set up the shipped deployment, drive one workload
// with closed-loop clients, check the sampled responses, and report the
// end-to-end metrics (tracing off) or the per-layer metrics (tracing on).
//
// Decision quality is scored first, before any timing or retrain: each
// client's seeded quality stream is sent one request at a time, and every
// response is checked and scored against the benchmark's own oracle and
// single-device makespans. The deployment models are fixed while it runs,
// so the quality metrics depend on the seed only.
//
// Timing runs in rounds. Before a round each client tops its batch of
// LaunchRequests up from its seeded stream (untimed); the round starts all
// clients together, each moves its prebuilt requests into
// PartitionService::call() one after another, and the round ends for all
// once every client has passed a fixed deadline, or as soon as one client
// has no prebuilt request left. Unsent requests carry over to the next
// round. A run is a fixed number of timed rounds (--seconds over the round
// deadline), so the number of retrains in a run does not depend on its
// speed. Throughput and latency percentiles are taken per round and
// reported as the median over rounds.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace perfbench {

struct WorkloadParams {
  std::string name;
  double roundSeconds = 0.1;       ///< a round ends at this deadline ...
  std::size_t batchPerClient = 0;  ///< ... or when a client's batch runs out
  /// Client 0 calls retrain() at the start of every timed round.
  bool retrainEachRound = false;
  std::size_t qualityPerClient = 0;  ///< quality requests per client
  double qualityFreshShare = 0.0;    ///< share of them that are fresh launches
  /// Every k-th timed response of a client is checked.
  std::size_t checkStride = 1;
};

/// warm_skew, retrain_churn.
const std::vector<WorkloadParams>& workloads();
const WorkloadParams& workloadByName(const std::string& name);

struct RunOptions {
  std::string workload = "warm_skew";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t setupReps = 3;   ///< set-ups per run; setup_s is their median
  std::size_t ladderSizes = 0;  ///< 0 = full ladder (self-test shrinks it)
  double scale = 1.0;          ///< multiplies round and sample sizes
  /// Test hook: applied to the first checked timed response of client 0,
  /// as served, before it is stored for checking.
  std::function<void(tp::serve::LaunchResponse&)> tamper;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PhaseCount {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;  ///< call() threw
  std::uint64_t shed = 0;    ///< answered with LaunchResponse::shed
};

struct SpanRow {
  std::string name;
  std::uint64_t count = 0;
  double totalUs = 0.0;
  double selfUs = 0.0;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t clients = 0;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t wrong = 0;    ///< checked responses that failed a check
  std::uint64_t checked = 0;  ///< responses checked
  std::vector<PhaseCount> phases;
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  std::vector<SpanRow> spans;  ///< folded trace (trace on)
  /// Per untraced timed round: requests/s, p50 and p99 latency (µs), and
  /// client 0's time inside retrain() (ms, 0 when it did not retrain).
  std::vector<std::array<double, 4>> rounds;
  /// Sample sizes and other facts a reader needs to judge the numbers.
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> mismatches;  ///< the first few, described

  std::string json() const;
};

RunResult runWorkload(const RunOptions& options);

}  // namespace perfbench
