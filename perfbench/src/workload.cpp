#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "runtime/compiler.hpp"
#include "runtime/database.hpp"
#include "runtime/evaluation.hpp"
#include "suite/benchmark.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed the popularity order of warm launches is drawn from. Fixed, so
/// the Zipf head is the same launches on every seed.
constexpr std::uint64_t kPopularitySeed = 0x21BF5EEDull;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Deployment setUp(std::size_t ladderSizes) {
  namespace rt = tp::runtime;
  const auto& benches = tp::suite::allBenchmarks();  // lazy, compiled once

  auto machines = tp::sim::evaluationMachines();
  rt::PartitioningSpace space(machines.front().numDevices(),
                              tp::serve::ServiceConfig{}.divisions);
  Deployment d{std::move(machines), std::move(space), {}, nullptr, {}};

  auto t = Clock::now();
  for (const auto& bench : benches) {
    (void)rt::CompiledKernel::compile(bench.source());
  }
  d.times.compileS = secondsSince(t);

  auto db = rt::FeatureDatabase::withDefaultSchema(d.space.size());
  for (const auto& bench : benches) {
    const std::size_t count =
        ladderSizes == 0 ? bench.sizes.size()
                         : std::min(ladderSizes, bench.sizes.size());
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t n = bench.sizes[s];
      t = Clock::now();
      const auto inst = bench.make(n);
      d.times.inputsS += secondsSince(t);
      t = Clock::now();
      const std::string sizeLabel = "n=" + std::to_string(n);
      for (const auto& machine : d.machines) {
        db.add(rt::measureLaunch(inst.task, machine, d.space, sizeLabel));
      }
      d.times.sweepS += secondsSince(t);
    }
  }

  t = Clock::now();
  for (const auto& machine : d.machines) {
    d.models.push_back(std::shared_ptr<const tp::ml::Classifier>(
        rt::trainDeploymentModel(db, machine.name, kModelSpec)));
  }
  d.times.trainS = secondsSince(t);

  t = Clock::now();
  d.service = makeService(tp::serve::ServiceConfig{}, d);
  d.times.serviceS = secondsSince(t);
  return d;
}

std::unique_ptr<tp::serve::PartitionService> makeService(
    const tp::serve::ServiceConfig& config, const Deployment& deployment) {
  auto service = std::make_unique<tp::serve::PartitionService>(config);
  for (std::size_t m = 0; m < deployment.machines.size(); ++m) {
    service->addMachine(deployment.machines[m], deployment.models[m]);
  }
  return service;
}

LaunchSet::LaunchSet(std::uint64_t seed, std::size_t machines,
                     std::size_t warmSizes, std::size_t gaps,
                     std::size_t perGap, std::size_t iterationSteps)
    : machines_(machines), iterationSteps_(iterationSteps) {
  const auto& benches = tp::suite::allBenchmarks();
  programs_ = benches.size();
  for (const auto& bench : benches) {
    for (std::size_t s = 0; s < std::min(warmSizes, bench.sizes.size()); ++s) {
      bases_.push_back(bench.make(bench.sizes[s]).task);
    }
  }
  warmBases_ = bases_.size();
  for (std::size_t b = 0; b < warmBases_; ++b) {
    for (std::size_t m = 0; m < machines_; ++m) {
      warm_.push_back(LaunchSpec{static_cast<std::uint32_t>(b),
                                 static_cast<std::uint32_t>(m),
                                 bases_[b].transferScale, warm_.size()});
    }
  }

  // Off-ladder sizes: distinct seeded points strictly inside each of the
  // first `gaps` gaps of the ladder, on the granularity the kernel accepts
  // (8 for the 2-D programs whose ladder is a matrix/image dimension, the
  // work-group size for the 1-D ones).
  tp::common::Rng rng(mix(seed, 1));
  for (const auto& bench : benches) {
    if (bench.sizes.size() <= gaps) {
      throw std::runtime_error("ladder of " + bench.name + " is too short");
    }
    const std::size_t grain =
        bench.sizes.front() < 512 ? 8 : bench.make(bench.sizes.front()).task.localSize;
    for (std::size_t gap = 0; gap < gaps && perGap > 0; ++gap) {
      const std::size_t lo = bench.sizes[gap];
      const std::size_t hi = bench.sizes[gap + 1];
      const std::size_t steps = (hi - lo) / grain;
      std::vector<std::size_t> chosen;
      for (int attempt = 0; attempt < 64 && chosen.size() < perGap && steps >= 2;
           ++attempt) {
        const std::size_t n = lo + grain * (1 + rng.below(steps - 1));
        if (std::find(chosen.begin(), chosen.end(), n) != chosen.end()) continue;
        try {
          auto task = bench.make(n).task;
          task.validate();
          bases_.push_back(std::move(task));
          chosen.push_back(n);
        } catch (const std::exception&) {
          // Not a size this kernel accepts: draw another.
        }
      }
      if (chosen.size() < perGap) {
        throw std::runtime_error("too few off-ladder sizes for " + bench.name);
      }
    }
  }
  freshBases_ = bases_.size() - warmBases_;
}

std::uint64_t LaunchSet::freshKeys() const noexcept {
  return static_cast<std::uint64_t>(freshBases_) * machines_ * iterationSteps_;
}

LaunchSpec LaunchSet::fresh(std::uint64_t key) const {
  const std::uint64_t step = key % iterationSteps_;
  const std::uint64_t rest = key / iterationSteps_;
  const std::uint64_t machine = rest % machines_;
  const std::uint64_t base = warmBases_ + rest / machines_;
  const double iterations = std::pow(
      10.0, 3.0 * static_cast<double>(step) /
                static_cast<double>(std::max<std::size_t>(1, iterationSteps_ - 1)));
  return LaunchSpec{static_cast<std::uint32_t>(base),
                    static_cast<std::uint32_t>(machine),
                    bases_[base].transferScale / iterations, warm_.size() + key};
}

tp::runtime::Task LaunchSet::build(const LaunchSpec& spec) const {
  tp::runtime::Task task = bases_[spec.base];
  task.transferScale = spec.transferScale;
  return task;
}

ClientStream::ClientStream(const LaunchSet& launches, double freshShare,
                           std::uint64_t seed, std::size_t client,
                           std::size_t clients)
    : launches_(&launches),
      freshShare_(freshShare),
      rng_(mix(seed, 100 + client)),
      position_(client),
      stride_(clients) {
  const std::size_t n = launches.warm().size();
  byRank_.resize(n);
  std::iota(byRank_.begin(), byRank_.end(), 0u);
  tp::common::Rng popularity(kPopularitySeed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(byRank_[i - 1], byRank_[popularity.below(i)]);
  }
  double total = 0.0;
  zipfCdf_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipfCdf_[r] = total;
  }
  for (double& c : zipfCdf_) c /= total;

  // Fresh keys: position -> (mul * position + add) mod K, a bijection
  // when gcd(mul, K) == 1. Every client derives the same permutation.
  const std::uint64_t keys = launches.freshKeys();
  if (keys < 2) return;
  tp::common::Rng perm(mix(seed, 2));
  permAdd_ = perm.below(keys);
  do {
    permMul_ = 1 + perm.below(keys - 1);
  } while (std::gcd(permMul_, keys) != 1);
}

LaunchSpec ClientStream::next() {
  const double u = rng_.uniform();
  if (u < freshShare_) {
    const std::uint64_t keys = launches_->freshKeys();
    if (position_ >= keys) {
      throw std::runtime_error("fresh key space exhausted");
    }
    const auto key = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(permMul_) * position_ + permAdd_) %
        keys);
    position_ += stride_;
    return launches_->fresh(key);
  }
  const double v = rng_.uniform();
  const auto rank = static_cast<std::size_t>(
      std::upper_bound(zipfCdf_.begin(), zipfCdf_.end(), v) -
      zipfCdf_.begin());
  return launches_->warm()[byRank_[std::min(rank, byRank_.size() - 1)]];
}

}  // namespace perfbench
