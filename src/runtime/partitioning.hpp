#pragma once

// The discretized task-partitioning space (paper §2.1: "p is selected from
// a discretized partitioning space with a stepsize of 10%").
//
// A Partitioning assigns each device an integral number of `divisions`
// units summing to `divisions` (10 units of 10% by default). For a machine
// with 3 devices and 10% steps the space has C(12,2) = 66 elements; the
// CPU-only and GPU-only default strategies are particular corners of it.
// The step size is a parameter so the step-size ablation
// (bench/ablation_stepsize) can compare coarser/finer spaces.

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace tp::runtime {

/// Share of work per device, in units of (100/divisions)%.
struct Partitioning {
  std::vector<int> units;
  int divisions = 10;

  double fraction(std::size_t device) const {
    return static_cast<double>(units[device]) / static_cast<double>(divisions);
  }

  std::size_t numDevices() const noexcept { return units.size(); }

  /// True when exactly one device receives all work.
  bool isSingleDevice() const;
  /// Index of the only active device; requires isSingleDevice().
  std::size_t singleDevice() const;
  /// Number of devices with a non-zero share.
  int activeDevices() const;

  /// "50/30/20" (percentages).
  std::string toString() const;

  bool operator==(const Partitioning& o) const {
    return units == o.units && divisions == o.divisions;
  }
};

/// Apportion `total` indivisible work items among the devices of `p` in
/// exact proportion to their unit shares (largest-remainder method over
/// integer arithmetic — no floating point, so the result always sums to
/// exactly `total`). Zero-share devices receive zero items; leftovers go
/// to the active devices with the largest integer remainders (ties to the
/// lower device index). Requires at least one active device when
/// total > 0; throws tp::Error otherwise.
std::vector<std::size_t> apportion(std::size_t total, const Partitioning& p);

/// apportion() into caller storage of p.numDevices() elements; allocates
/// nothing for machines of up to kInlineDevices devices.
void apportionInto(std::size_t total, const Partitioning& p,
                   std::span<std::size_t> counts);

/// Device count up to which per-launch device temporaries stay on the
/// stack (apportionInto, Scheduler::execute).
inline constexpr std::size_t kInlineDevices = 16;

/// Coarse family of a partitioning, used by the two-stage model:
/// 0 = CPU only, 1 = single GPU, 2 = GPU-mixed (no CPU), 3 = CPU+GPU mixed.
enum class PartitionFamily : int {
  CpuOnly = 0,
  SingleGpu = 1,
  MultiGpu = 2,
  Mixed = 3,
};

class PartitioningSpace {
public:
  /// Enumerates all assignments of `divisions` units to `numDevices`
  /// devices (lexicographic, deterministic).
  PartitioningSpace(std::size_t numDevices, int divisions = 10);

  std::size_t size() const noexcept { return all_.size(); }
  std::size_t numDevices() const noexcept { return numDevices_; }
  int divisions() const noexcept { return divisions_; }

  const Partitioning& at(std::size_t index) const;
  const std::vector<Partitioning>& all() const noexcept { return all_; }

  /// Index of an existing partitioning; throws tp::Error if absent.
  std::size_t indexOf(const Partitioning& p) const;

  /// The two default strategies of the paper.
  std::size_t cpuOnlyIndex() const;
  /// All work on GPU `gpuDevice` (a device index, not a GPU ordinal).
  std::size_t singleDeviceIndex(std::size_t device) const;

  PartitionFamily family(std::size_t index) const;
  /// label→family map for ml::TwoStageClassifier.
  std::vector<int> familyLabels() const;

  /// Indices of every partitioning reachable from `index` by moving
  /// between 1 and `radius` units from one device to another — the local
  /// search neighborhood of the online refiner (tp::adapt). Sorted,
  /// deduplicated, never contains `index` itself. Radius 0 is empty.
  std::vector<std::size_t> neighbors(std::size_t index, int radius = 1) const;

private:
  std::size_t numDevices_;
  int divisions_;
  std::vector<Partitioning> all_;
  /// units -> index, so indexOf (hot inside adapt's neighborhood
  /// enumeration, which runs under a shard lock) avoids a linear scan.
  std::map<std::vector<int>, std::size_t> index_;
};

}  // namespace tp::runtime
