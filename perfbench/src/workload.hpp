#pragma once

// Set-up and traffic generation of the repository benchmark.
//
// setUp() is the timed deployment pipeline the benchmark reports as
// setup_s: compile the 23 suite kernels, run the full size-ladder training
// sweep on both evaluation machines, train one "forest:32" deployment
// model per machine, and construct a PartitionService with the shipped
// ServiceConfig defaults.
//
// LaunchSet holds the launches the workloads send. Warm launches are the
// first two ladder sizes of every program on both machines (92 launches).
// Fresh launches are off-ladder sizes of every program, each multiplied
// by one of many distinct iteration counts (Task::transferScale), so every
// fresh key is a launch the service has never seen while the number of
// task instances held in memory stays fixed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/classifier.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"

namespace perfbench {

inline constexpr const char* kModelSpec = "forest:32";

struct SetupTimes {
  double compileS = 0.0;  ///< runtime::CompiledKernel::compile, 23 kernels
  double inputsS = 0.0;   ///< suite::Benchmark::make over the full ladder
  double sweepS = 0.0;    ///< runtime::measureLaunch, every size x machine
  double trainS = 0.0;    ///< runtime::trainDeploymentModel, both machines
  double serviceS = 0.0;  ///< PartitionService construction + addMachine
  double totalS() const {
    return compileS + inputsS + sweepS + trainS + serviceS;
  }
};

struct Deployment {
  std::vector<tp::sim::MachineConfig> machines;
  tp::runtime::PartitioningSpace space;
  /// Deployment model per machine, in `machines` order.
  std::vector<std::shared_ptr<const tp::ml::Classifier>> models;
  std::unique_ptr<tp::serve::PartitionService> service;
  SetupTimes times;
};

/// One timed set-up with the shipped ServiceConfig defaults.
/// `ladderSizes` limits the sweep to the first sizes of every ladder
/// (0 = the full ladder; only the self-test shrinks it).
Deployment setUp(std::size_t ladderSizes = 0);

/// Another service over the same deployment models (untimed).
std::unique_ptr<tp::serve::PartitionService> makeService(
    const tp::serve::ServiceConfig& config, const Deployment& deployment);

/// One launch a workload sends.
struct LaunchSpec {
  std::uint32_t base = 0;     ///< index into LaunchSet::bases
  std::uint32_t machine = 0;  ///< index into Deployment::machines
  double transferScale = 1.0;
  /// Distinct per distinct launch: warm launches are 0..warm.size()-1,
  /// fresh launches are warm.size() + their fresh key.
  std::uint64_t id = 0;
};

class LaunchSet {
public:
  /// Warm: the first `warmSizes` ladder sizes of every program. Fresh:
  /// `perGap` distinct seeded sizes strictly inside each of the first
  /// `gaps` gaps between consecutive ladder points of every program, times
  /// `iterationSteps` iteration counts spaced log-uniformly over [1, 1000].
  /// perGap = 0 builds no fresh launches.
  LaunchSet(std::uint64_t seed, std::size_t machines, std::size_t warmSizes = 2,
            std::size_t gaps = 3, std::size_t perGap = 2,
            std::size_t iterationSteps = 8192);

  const std::vector<LaunchSpec>& warm() const noexcept { return warm_; }
  std::uint64_t freshKeys() const noexcept;
  /// The fresh launch with key k in [0, freshKeys()).
  LaunchSpec fresh(std::uint64_t key) const;

  /// A launchable copy of the spec's task.
  tp::runtime::Task build(const LaunchSpec& spec) const;
  std::size_t programs() const noexcept { return programs_; }

private:
  std::vector<tp::runtime::Task> bases_;  ///< warm bases, then fresh bases
  std::size_t programs_ = 0;
  std::size_t machines_ = 0;
  std::size_t warmBases_ = 0;
  std::size_t freshBases_ = 0;
  std::size_t iterationSteps_ = 0;
  std::vector<LaunchSpec> warm_;
};

/// Zipf exponent of the warm draws: the skew bench/chaos_soak.cpp uses for
/// its serving traffic (a few hot launches dominate, the tail still shows).
inline constexpr double kZipfExponent = 1.1;

/// Deterministic request stream of one client. Each request is a fresh
/// launch with probability `freshShare`, otherwise a Zipf(kZipfExponent)-
/// skewed draw over the warm launches (popularity order fixed, independent
/// of the seed, so the seed changes the draw sequence and the fresh sizes
/// only). Fresh keys come from a seeded permutation of the key space;
/// stream c of n takes positions c, c + n, ... so no two streams of a run
/// share a fresh key.
class ClientStream {
public:
  ClientStream(const LaunchSet& launches, double freshShare,
               std::uint64_t seed, std::size_t client, std::size_t clients);

  LaunchSpec next();

private:
  const LaunchSet* launches_;
  double freshShare_;
  tp::common::Rng rng_;
  std::vector<double> zipfCdf_;        ///< over popularity ranks
  std::vector<std::uint32_t> byRank_;  ///< rank -> warm launch index
  std::uint64_t permMul_ = 1;
  std::uint64_t permAdd_ = 0;
  std::uint64_t position_;
  std::size_t stride_;
};

}  // namespace perfbench
